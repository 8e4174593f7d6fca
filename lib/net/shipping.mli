(** Migration shipping: pack a process, choose a full image or a delta
    over a negotiated baseline, transmit it hop by hop under the retry
    policy, deliver it idempotently to the target daemon, and install
    the successor (the move commit every initiator shares).  It owns
    the one delta-or-full choice (for hops and {!Checkpoint}'s stored
    segments alike), the hop envelope ids, the delta-shipping ledger
    and the compile-ahead cut-overs. *)

open Cluster_types

val max_attempts : int
(** Transmissions of one hop before it is given up. *)

type t

val create :
  Cluster_core.t -> Spec_graph.t -> delta:bool -> forward_ttl_s:float -> t

val handle_migrate : t -> entry -> string -> unit
(** Serve [migrate("mcc://host")]: ship the process to the named node,
    or resume it where it was when the hop fails. *)

val refuse_hop : t -> entry -> target:string -> unit
(** Trace a hop to a target that is down, local or unparsable, and
    resume the process. *)

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

(** {2 Shared with {!Checkpoint}} *)

type shipment = { sh_bytes : string; sh_delta : bool; sh_pack_s : float }
(** An image ready to leave, and its simulated pack (or encode) cost. *)

val choose_shipment :
  entry -> Migrate.Pack.packed ->
  baseline:(string * Migrate.Wire.image) option -> shipment
(** The delta over [baseline] (one the receiver holds) when it is
    strictly smaller than the full image; the full image otherwise. *)

val rebase_baseline : node -> entry -> Migrate.Pack.packed -> string
(** Record a fresh pack as the entry's baseline and retain it on the
    node's daemon; returns its digest. *)

val dspec_ctx_of : t -> entry -> Migrate.Wire.dspec_ctx option
(** The oldest transaction the process coordinates, as images carry it. *)

val note_shipment : t -> as_delta:bool -> bytes:int -> unit
(** Count one image into the delta ledger ([migrate.bytes_*] and, with
    delta shipping on, the hit/miss counters and the hit-rate gauge). *)

val record_migration :
  t -> Obs.Metrics.counter -> ?cache_hit:bool -> ?transfer_s:float ->
  ?compile_s:float -> bytes:int -> pack_s:float -> unit -> unit
(** Count one image shipped or stored under its outcome counter and
    observe its bytes and costs in the [cluster.*] histograms. *)
