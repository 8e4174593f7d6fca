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
