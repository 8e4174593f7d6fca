(** Migration shipping: pack a process, choose a full image or a delta
    over a negotiated baseline, transmit it hop by hop under the retry
    policy, deliver it idempotently to the target daemon, and install
    the successor (the move commit every initiator shares).  Also the
    storage side of the same images: suspend files and incremental
    checkpoint chains.  It owns every decision about a shipped or stored
    image: the one delta-or-full choice (for hops and checkpoint
    segments alike), the checkpoint-chain codec (segment names, length
    bound, full rewrite, replay), the hop envelope ids and the
    delta-shipping ledger. *)

open Cluster_types

type retry = {
  max_attempts : int;
  hop_timeout_s : float;
  backoff_base_s : float;
  backoff_factor : float;
}

val default_retry : retry
(** The policy every hop runs under (see [Cluster.Config.default_retry]). *)

type t

val create :
  Cluster_core.t -> Spec_graph.t -> delta:bool -> forward_ttl_s:float -> t

val handle_migration : t -> entry -> unit
(** Serve a process that stopped at a migration point: migrate to a
    node, suspend or checkpoint to the store, or refuse the target. *)

val move_running :
  t -> pid:int -> node_id:int -> (Move.outcome, migration_error) result
(** Host-initiated live migration of a running process; on failure it
    keeps running where it was.  The FIR digest is offered to the
    destination first: when its daemon holds the code the move lands at
    once; otherwise the FIR is shipped and compiled there (or an
    in-flight compile of it is joined) while the process keeps running,
    and the outcome carries the cut-over's ticket.  A subject whose
    cut-over is pending is refused with [Cutover_pending].  Any other
    hop that lands on a node before a compile ahead of the same code is
    ready waits for it. *)

val has_pending : t -> bool
(** Some compile-ahead move has not cut over yet. *)

val land_due : t -> node -> idle:bool -> bool
(** Land the cut-overs whose subject is on the node and whose
    destination's code is ready by the node's clock, and drop those
    whose subject ended; the scheduler calls it at the node's quantum
    boundary.  An [idle] node (nothing ran, no event ahead) also lands,
    advancing its clock to the ready time, once every other node
    hosting live work has passed that time.  Whether any was
    handled. *)

val land_all : t -> bool
(** Land every pending cut-over, advancing each source's clock to its
    destination's ready time: the scheduler's last step when nothing
    else can progress.  Whether any landed. *)

val read_checkpoint :
  t -> string -> (Migrate.Wire.image * int * float, string) result
(** Read the checkpoint chain stored at a path: the base image, then
    exactly the delta segments the chain recorded, replayed in order,
    each digest-verified against its reconstruction.  Returns the image
    the chain ends at, the bytes read and the simulated read seconds.
    Errors: ["no checkpoint <path>"], ["corrupt image: ..."],
    ["checkpoint segment K of N unreadable"] (missing, or every replica
    lost or corrupt), ["checkpoint segment K: ..."] and ["checkpoint
    segment K is not a delta image"]. *)
