(** The scheduler: a conservative discrete-event simulation.  Each alive
    node runs its runnable, non-parked processes for one quantum per
    round and advances its LOCAL clock by the work done; idle nodes jump
    to their next event; processes sharing a node serialise and pay
    context switches.  Scripted stalls and crashes, heartbeats and the
    balance tick fire between quanta. *)

type t

val create :
  Cluster_core.t -> Externs.t -> Shipping.t -> Recovery.t -> Balance_tick.t ->
  t

val run : ?max_rounds:int -> ?stop:(unit -> bool) -> t -> int
(** Schedule until quiescent, stopped, or out of rounds; returns the
    number of rounds executed.  Quiescent is a round in which no
    process runs or is fenced, no idle clock jumps, no scripted fault
    fires and the balance tick moves no service. *)

val visits : t -> int
(** Entries the scheduler has visited taking each node's entries, summed
    over the run: what one node's turn costs grows with this count. *)

val blocks : t -> int
(** Emulator steps (basic blocks) the scheduler has run, summed over the
    run.  A plain count like {!visits}, outside the metrics registry. *)

val advance_clocks : t -> float -> unit
(** Advance every alive node's clock to the cluster's now + dt, pumping
    heartbeats, even with nothing runnable. *)

val pump_heartbeats : Cluster_core.t -> unit
(** Emit every heartbeat due on each alive node's clock through the
    fault layer. *)
