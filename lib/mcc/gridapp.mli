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

val initial_value : int -> int -> float
(** Initial value of global cell (gi, j). *)

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

val ranks_on_node : deployment -> int -> int list

val fail_and_recover :
  ?rounds_before_failure:int -> ?after_time:float ->
  deployment -> victim_node:int -> spare_node:int -> int list
(** Wait until every rank has a checkpoint (and, optionally, until the
    simulated clock passes [after_time]), kill [victim_node], resurrect
    its ranks on [spare_node].  Returns the victim ranks ([] if the
    computation finished first). *)

(** The request-serving workload: closed-loop RPC clients addressing K
    registered services by logical address ([svc_send]), while the
    services are re-homed mid-traffic through {!Net.Cluster.move} —
    every move gives the successor a fresh rank, so the registry's
    forward / notify / rebind protocol is what keeps requests flowing.
    Duplicated requests are deduplicated service-side (per-client
    last-seq), duplicated replies client-side; exit codes carry the
    exactly-once evidence (clients: ordering violations, services:
    unique requests served).  With [skew] on, the request stream
    concentrates on a phase-shifting hot service (the T2 workload the
    placement policy engine chases). *)
module Serve : sig
  type config = {
    clients : int;
    services : int;
    requests_per_client : int;
    work_us : int;  (** simulated service time per request *)
    skew : bool;
        (** skewed, phase-shifting stream: 4 of every 5 requests target
            the current phase's hot service; the rest stay round-robin *)
    speculative : bool;
        (** speculative exactly-once serving (F5): the service's dedup
            write and reply happen inside a speculation — the reply
            leaves before the dedup state is durable — and the commit is
            coordinated through the cluster's epoch-fenced distributed
            transaction protocol ([dspec_open]/[dspec_commit]).  The
            client joins the region by consuming the stamped reply and
            spins on [spec_pending()] until the distributed commit
            lands; an abort rolls both sides back and replays. *)
  }

  val default_config : config

  val request_tag : int
  val reply_tag_base : int
  (** Replies to client [r] arrive on tag [reply_tag_base + r]. *)

  val target_service : config -> client:int -> int -> int
  (** Which service (0-based) request [seq] of client [client] targets,
      mirroring the generated client code exactly.  Without [skew] the
      schedule is identical for every client; with it the hot 4/5 is
      common but the background fifth is offset by the client rank, so
      the clients do not march in lockstep on a single service. *)

  val expected_served : config -> int -> int
  (** Unique requests service [k] (laddr [k+1]) owes — the schedule is
      deterministic, so the split is exact. *)

  val client_source : config -> int -> string
  (** Client [rank]'s program.  Every client runs the same text: it
      reads its rank at run time with [rank()]. *)

  val service_source : config -> int -> string
  (** Service [k]'s program.  Without [skew] every service runs the
      same text and computes its quota from its own laddr with
      [svc_self()], so it must be registered before it runs; with
      [skew] each one bakes [expected_served cfg k] into its text. *)

  type deployment = {
    sv_config : config;
    sv_cluster : Net.Cluster.t;
    sv_client_pids : int array;  (** client rank -> pid (never moves) *)
    mutable sv_service_pids : int array;  (** service k -> CURRENT pid *)
    sv_laddrs : int array;  (** service k -> logical address *)
  }

  val deploy :
    ?engine:[ `Masm ] ->
    ?placement:[ `Spread | `Pack of int ] ->
    Net.Cluster.t -> config -> deployment
  (** Clients on ranks 0..C-1, services on C..C+K-1; every service
      registered in the process registry, which seeds its node's code
      cache.  Each distinct source is compiled once.  [`Spread]
      (default) places both round-robin over the nodes; [`Pack p]
      crams the services onto the first [p] nodes — the deliberately
      bad starting point a placement policy is measured against.
      Every process runs on a MASM emulator; [engine] selects nothing.
      @raise Invalid_argument when a count is < 1 or generated source
      fails to compile (a library bug). *)

  val refresh_service_pids : deployment -> unit
  (** Re-resolve each service's CURRENT pid through its laddr: the
      placement policy can move services underneath the driver, and the
      retired predecessor pid would otherwise read as an early exit.
      {!all_exited} and {!run} call this themselves. *)

  val all_exited : deployment -> bool

  type report = {
    rp_requests : int;  (** latency observations = completed requests *)
    rp_violations : int;  (** sum of client exit codes *)
    rp_migrations : int;
        (** re-home requests the cluster accepted: landed at once, or
            waiting for their destination to compile the code.  One
            whose service ends first never cuts over; the cluster's
            [cluster.migrations_ok] counter counts the moves that
            landed *)
    rp_served : int array;  (** per service: unique requests served *)
    rp_p50_ms : float;
    rp_p90_ms : float;
    rp_p99_ms : float;
    rp_mean_ms : float;
    rp_forwarded : int;  (** messages relayed through forwarders *)
    rp_rebinds : int;  (** Recipient_moved notices consumed *)
    rp_expired : int;  (** sends that hit an expired forwarder *)
    rp_wedged : bool;  (** went quiescent before every rank exited *)
  }

  val run :
    ?max_rounds:int -> ?migrate_every_s:float -> ?migrations:int ->
    deployment -> report
  (** Drive to completion, requesting a re-home of one service
      round-robin to the next node every [migrate_every_s] simulated
      seconds, [migrations] requests in all (0 = a static run).  A
      request the cluster refuses — among them a re-move of a service
      whose cut-over is still pending — is skipped and not counted in
      [rp_migrations].  Latency quantiles come from the cluster's
      ["app.latency_seconds"] histogram. *)

  val exactly_once : deployment -> report -> bool
  (** Every request completed, every service served exactly its
      deterministic share of unique requests, no ordering violations,
      nothing wedged. *)
end
