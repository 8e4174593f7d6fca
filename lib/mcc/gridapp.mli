(** The canonical grid computation (paper, Figure 2).

    A 2-D heat-diffusion stencil, row-decomposed across ranks, generated
    as mini-C source and compiled by the MCC pipeline: border exchange
    over the cluster's message passing, a speculation per checkpoint
    interval, neighbour-barrier + [commit] + [migrate("checkpoint://...")]
    at each boundary, [abort] on MSG_ROLL.

    Every distributed run — fault-free or with injected node failures and
    resurrection — is verifiable bit-exactly against {!golden_checksums},
    a sequential OCaml model with identical floating-point evaluation
    order. *)

type config = {
  ranks : int;
  rows_per_rank : int;
  cols : int;
  timesteps : int;
  interval : int;  (** checkpoint every this many steps; 0 = never *)
  work_us_per_step : int;
      (** simulated µs of production-scale work each step stands for
          (0 = off); the verification kernel still runs bit-exactly *)
}

val default_config : config

val checkpoint_path : int -> string
(** Storage path of a rank's checkpoint file. *)

val source : config -> int -> string
(** The generated mini-C source for one rank. *)

val compile_rank : config -> int -> Fir.Ast.program
(** Compile one rank's {!source} with the optimiser on.
    @raise Invalid_argument if the generated source fails to compile
    (a library bug). *)

val golden_checksums : config -> int array
(** Per-rank checksums from the sequential reference run. *)

(** {2 Deployment and recovery} *)

type deployment = {
  d_config : config;
  d_cluster : Net.Cluster.t;
  mutable d_pids : int array;  (** rank -> current pid *)
}

val deploy :
  ?engine:[ `Masm ] -> ?spare:bool ->
  Net.Cluster.t -> config -> deployment
(** Place rank [r] on node [r mod usable]; [spare] reserves the last node
    for resurrection.  Every rank runs on a MASM emulator; [engine]
    selects nothing (see {!Net.Cluster.spawn}). *)

val rank_status : deployment -> int -> Vm.Process.status
val all_exited : deployment -> bool
val run : ?max_rounds:int -> deployment -> int

val run_resilient : ?max_rounds:int -> deployment -> int
(** Like {!run}, but self-healing: ranks that die with their node (e.g.
    a fault-plan crash) and have a checkpoint on storage are resurrected
    on the least-loaded live node and the run continues.  Returns total
    rounds executed.  Stops — possibly with ranks unfinished — when a
    dead rank has no checkpoint or no live node remains.

    When the cluster was configured with a heartbeat failure detector
    ({!Net.Cluster.Config.t.detector}), recovery decisions come ONLY
    from heartbeat suspicion, never from ground-truth crash state: a
    rank is resurrected (with a bumped incarnation epoch) when its
    node is unanimously silent past the suspicion timeout.  A stalled
    node can be falsely suspected; epoch fencing guarantees exactly one
    incarnation of the rank completes. *)

val checksums : deployment -> int option array

val recover : deployment -> rank:int -> node_id:int -> (int, string) result
(** The resurrection daemon: bring a rank back from its last checkpoint. *)

val fail_and_recover :
  ?rounds_before_failure:int -> ?after_time:float ->
  deployment -> victim_node:int -> spare_node:int -> int list
(** Wait until every rank has a checkpoint (and, optionally, until the
    simulated clock passes [after_time]), kill [victim_node], resurrect
    its ranks on [spare_node].  Returns the victim ranks ([] if the
    computation finished first). *)

module Serve = Serve
(** The request-serving workload under its former name. *)
