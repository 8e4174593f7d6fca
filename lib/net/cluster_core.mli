(** The cluster's shared core: the nodes, the process table, rank
    mailboxes and incarnation epochs, the simulated clocks and the
    trace.  Every other part of the cluster reads it; each keeps its own
    state in its own module ({!Spec_graph}, {!Externs}, {!Shipping},
    {!Recovery}, {!Balance_tick}, {!Scheduler}). *)

open Runtime
open Vm
open Cluster_types

module Int_tbl : Hashtbl.S with type key = int
(** The pid and rank tables below: an int key hashes to itself.  None of
    them is iterated, so their bucket order never matters. *)

type t = {
  nodes : node array;
  net : Simnet.t;
  storage : Storage.t;
  faults : Faults.t;
  detector : Detector.t option;
  registry : Registry.t;
      (** laddr -> current rank, plus the bounded-TTL forwarders left on
          vacated ranks *)
  dspec : Dspec.t;
      (** the coordinator/participant table the epoch-fenced commit
          protocol runs over.  Cluster-global: a transaction survives the
          migration of any of its processes. *)
  balance : Balance.t option;
      (** the placement policy engine ([None] when disabled): sends feed
          its affinity matrix, identity changes re-key it, and
          {!Balance_tick} plans with it *)
  obj_store : (int, Bytes.t) Hashtbl.t;  (** Figure 1's account objects *)
  tracer : Obs.Trace.t;  (** events carry SIMULATED time *)
  metrics : Obs.Metrics.t;  (** the cluster-level registry *)
  mutable entries : entry list;
      (** every entry ever registered, newest first *)
  by_pid : entry Int_tbl.t;
  ranks : int Int_tbl.t;  (** rank -> pid of its current holder *)
  mutable epochs : int array;
      (** rank -> current incarnation epoch, read through
          {!rank_epoch} (absent = 0; empty until the first bump).
          Bumped by every resurrection under that rank; entries carrying
          an older epoch are fenced.  The ground truth a real system
          would hold in its membership service. *)
  rank_mailboxes : Mpi.mailbox Int_tbl.t;
      (** messages are addressed to RANKS, and a rank's queue survives
          the death of its holder: a resurrected or migrated successor
          inherits it (like DEMOS/MP's forwarding stubs).  Unranked
          processes get private mailboxes. *)
  mutable next_pid : int;
  c_fence_rejections : Obs.Metrics.counter;
  mutable cur_base : float;
  mutable cur_cycles0 : int;
  mutable running : entry option;
      (** time base, starting cycles and entry of the quantum the
          scheduler is running ([running] is [None] between quanta):
          extern handlers act for [running] and compute its precise
          local time from the other two *)
}

val create :
  nodes:node array -> net:Simnet.t -> storage:Storage.t -> faults:Faults.t ->
  detector:Detector.t option -> dspec:Dspec.t -> balance:Balance.t option ->
  tracer:Obs.Trace.t -> metrics:Obs.Metrics.t -> t

(** {2 Lookups, clocks and the trace} *)

val node : t -> int -> node
(** Raises [Invalid_argument] for an unknown node id. *)

val entry_of_pid : t -> int -> entry option
val entry_of_rank : t -> int -> entry option

val now : t -> float
(** Cluster-wide time: the farthest node clock. *)

val effective_now : t -> Process.t -> float
(** Precise local time of the process running the current quantum. *)

val charge_seconds : Process.t -> float -> unit
(** Charge simulated seconds to a process as cycles of its arch. *)

val entry_rank : entry -> int
(** The entry's rank, -1 when unranked. *)

val emit :
  t -> time:float -> ?node:int -> ?pid:int -> ?rank:int -> Obs.Trace.kind ->
  unit

val emit_entry : t -> entry -> Obs.Trace.kind -> unit
(** Trace an event attributed to an entry, at its precise mid-quantum
    time when it is the running process, else at its node's clock. *)

(** {2 Entries} *)

val fresh_pid : t -> int

val rank_mailbox : t -> int -> Mpi.mailbox
(** The rank's shared mailbox, created on first use. *)

val mailbox_for : t -> int option -> Mpi.mailbox
(** A ranked process's rank mailbox, or a private one. *)

val make_entry :
  ?baseline:string * Migrate.Wire.image -> ?bindings:(int, int) Hashtbl.t ->
  ?notices:(float * int * int) list -> proc:Process.t -> emu:Emulator.t ->
  node_id:int -> mailbox:Mpi.mailbox -> rank:int option -> epoch:int ->
  start_at:float -> unit -> entry
(** The one entry constructor.  A new entry is unparked; it has an empty
    binding cache and owes no notices unless given a migrant's. *)

val register : t -> entry -> unit
(** Index a new entry (global list, its node's residents, pid and rank
    tables) and trace its collections.  {!Spec_graph.register} adds the
    speculation hooks on top. *)

(** {2 Incarnation epochs and fencing} *)

val dyn_rank_base : int
(** The first of the fresh ranks a re-homed service gets, far above
    user-assigned ones. *)

val rank_epoch : t -> int -> int

val bump_epoch : t -> int -> int
(** Start the rank's next incarnation; returns its epoch. *)

val is_stale : t -> entry -> bool
(** The entry's rank has moved to a newer epoch: it is a zombie. *)

val fence : t -> entry -> what:string -> unit
(** Record the typed rejection and halt the zombie.  Idempotent. *)

val unless_stale :
  t -> entry -> what:string -> (unit -> Value.t) -> Value.t
(** Fence a zombie (returning MSG_ROLL), or run the interaction. *)

val purge_stale_traffic : t -> entry -> unit
(** Drop queued messages a superseded incarnation sent before it was
    fenced, so a rank's successor never consumes them. *)

(** {2 Distributed-transaction decisions} *)

val abort_txn : t -> entry -> Dspec.txn -> string -> unit
val compensate_txn : t -> entry -> Dspec.txn -> discarded:int -> unit
