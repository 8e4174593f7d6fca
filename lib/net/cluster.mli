(** The simulated cluster (paper, Sections 2 and 5).

    Nodes — each with a local clock, an architecture, and a migration
    daemon — host processes, exchange rank-addressed messages, share
    reliable storage, and fail on command.  The cluster implements the
    three migration protocols end-to-end, resurrection from checkpoint
    files, and the distributed speculation-join cascade: a process that
    consumed a speculative message is rolled back when the sender's
    speculation aborts (including the sender dying with its node).

    Scheduling is a conservative discrete-event simulation: each node's
    clock advances with the work its processes do; idle nodes jump to
    their next event; processes sharing a node serialise and pay context
    switches.  The node clocks are the only simulated time ({!now} is
    the farthest one).  While a quantum executes, its entry is
    [Cluster_core.running], the one entry every extern call acts for;
    it is [None] between quanta. *)

open Vm

type engine = Interp_engine | Emu_engine of Emulator.t

type entry = {
  proc : Process.t;
  mutable engine : engine;
  mutable node_id : int;
  mailbox : Mpi.mailbox;
  mutable rank : int option;
  mutable epoch : int;
      (** incarnation epoch of the rank this entry was created under; an
          entry whose epoch falls behind the rank's current epoch is a
          zombie and is fenced at every interaction point *)
  mutable start_at : float;  (** not schedulable before this (node) time *)
  mutable parked_on : (Mpi.source * int) option;
      (** the park state, and the only one: [Some (source, tag)] while
          the process is parked on an unsuccessful poll, [None] while it
          is schedulable.  The scheduler wakes it only for a matching
          delivery or a roll notice from that source, so unrelated
          traffic cannot spin-livelock a parked receiver; a send to its
          rank, a forced rollback, a relevant roll notice and a fence
          wake it too.  Every wake sets it back to [None]. *)
  mutable baseline : (string * Migrate.Wire.image) option;
      (** ({!Migrate.Wire.image_digest}, image) of this process's most
          recent pack — what its heap dirty set is tracked against, and
          hence the only image a delta may be encoded over.  Rebased at
          EVERY pack (packing clears the dirty set). *)
  bindings : (int, int) Hashtbl.t;
      (** sender-side binding cache: laddr -> last resolved rank.
          Carried across the SENDER's own migrations; left stale by the
          target's moves until a notice or typed error refreshes it *)
  mutable notices : (float * int * int) list;
      (** (due time, laddr, new rank) moved notices owed by forwarders
          this process sent through; consumed at its next svc_send *)
}

type node = {
  node_id : int;
  node_name : string;
  node_arch : Arch.t;
  mutable alive : bool;
  daemon : Migrate.Server.t;
  mutable busy_seconds : float;
  mutable clock : float;
      (** local simulated clock (busy + idle).  Nodes advance
          independently — a conservative discrete-event simulation — so
          out-of-phase processes (e.g. a freshly resurrected rank)
          overlap with their peers instead of serialising. *)
  mutable residents : entry list;
      (** entries registered on this node, newest first; terminated
          entries are purged lazily each round.  Scheduler index only —
          the global entry list remains the source of truth. *)
}

type migration_record = {
  mr_kind : [ `Migrate | `Suspend | `Checkpoint ];
  mr_pid : int;
  mr_bytes : int;
  mr_pack_s : float;
  mr_transfer_s : float;
  mr_compile_s : float;  (** link-only on a recompilation-cache hit *)
  mr_cache_hit : bool;
  mr_delta : bool;
      (** the accepted shipment was a delta (incremental checkpoint
          segment or delta migration hop) *)
  mr_ok : bool;
}

type migration_report = {
  rep_pid : int;  (** successor pid *)
  rep_attempts : int;  (** hop transmissions, >= 1 *)
  rep_retries : int;  (** [rep_attempts - 1] *)
  rep_backoff_s : float;  (** total backoff waited between attempts *)
  rep_elapsed_s : float;
      (** simulated seconds from initiation to resume on the target *)
  rep_bytes : int;
  rep_cache_hit : bool;
  rep_delta : bool;  (** the hop that was accepted shipped as a delta *)
}
(** What a successful [Running]-subject {!move} reports. *)

type migration_error =
  | No_such_process of int
  | Not_running  (** terminated, or already at a migration point *)
  | Target_down
  | Already_there
  | Unreachable of { attempts : int; reason : string }
      (** retry budget exhausted — every transmission was lost or
          partitioned; the process keeps running where it was *)
  | Rejected of string  (** the target daemon refused the image *)
  | Fenced of { rank : int; stale : int; current : int }
      (** the process is a stale incarnation of [rank]: a resurrection
          bumped the rank's epoch to [current] past the process's
          [stale] one, and zombies may not migrate *)
  | Resurrect_failed of string
      (** an [Image]-subject {!move} could not restore the checkpoint:
          destination down, missing or corrupt image, or a wedged
          replicated read.  Carries the storage-level message. *)

val migration_error_to_string : migration_error -> string

(** Typed cluster configuration: the one record that says everything —
    topology, trust, seed, cache sizing, the fault-injection plan,
    delta shipping, failure detection, replication, scheduling mode,
    forwarding and placement policy.  The scheduling quantum (64 steps),
    the trace ring (65 536 events) and the migration retry policy
    ({!default_retry}) are fixed. *)
module Config : sig
  type retry = {
    max_attempts : int;  (** total transmissions per migration hop *)
    hop_timeout_s : float;  (** wait before declaring an attempt lost *)
    backoff_base_s : float;
    backoff_factor : float;
        (** sender waits [base * factor^(attempt-1)] between attempts *)
  }

  val default_retry : retry
  (** The retry policy every migration hop runs under: 5 attempts,
      20 ms hop timeout, 2 ms base backoff doubling. *)

  type t = {
    node_count : int;
    arches : Arch.t array;  (** assigned round-robin *)
    trusted : bool;  (** binary fast path for inter-node migration *)
    seed : int;
    code_cache : int;
        (** per-node recompilation-cache capacity; [<= 0] disables *)
    net : Simnet.t option;  (** [None] = default Simnet *)
    faults : Faults.plan;
    delta : bool;
        (** ship deltas (and incremental checkpoint segments) when a
            negotiated baseline makes one possible and smaller; [false]
            forces every image on the wire to be full *)
    baseline_cache : int;
        (** per-daemon retained-baseline bound; [<= 0] disables delta
            RECEIVE on every node (senders then always fall back) *)
    detector : Detector.config option;
        (** [Some cfg] runs a heartbeat failure detector over the
            cluster; [None] (default) emits no heartbeats and draws no
            extra randomness, keeping legacy traces byte-identical *)
    replication : int;
        (** checkpoint replication factor: [k >= 1] places every stored
            file on [k] distinct node-local stores that die with their
            node (clamped to [node_count]); [<= 0] (default) keeps the
            legacy indestructible shared store *)
    legacy_scan_sched : bool;
        (** [true] schedules by scanning the global entry list every
            round (the pre-index behaviour, kept for equivalence tests
            and as the S1 baseline); [false] (default) uses the per-node
            resident lists and indexed mailboxes *)
    forward_ttl_s : float;
        (** how long a vacated rank keeps forwarding after a registered
            service migrates away (default 0.25 simulated seconds): long
            enough for every active sender to learn the new rank from a
            [Recipient_moved] notice.  A send arriving later gets the
            typed {!msg_moved} error and must re-resolve through the
            registry *)
    balance : Balance.Config.t;
        (** the load-aware placement policy engine.  When
            [balance.enabled], the scheduler samples per-node load
            gauges every [balance.period_s] and migrates hot registered
            services through {!move} with reason [Policy]; disabled by
            default (no gauges, no extra trace events, legacy traces
            byte-identical) *)
  }

  val default : t
  (** 4 nodes, cisc32, untrusted, seed 1, 16-entry caches, default
      net, {!Faults.none}, delta shipping on with 4 retained baselines
      per daemon, no failure detector, unreplicated shared storage,
      indexed scheduler, placement policy off. *)
end

(** The unified migration API.  Every initiator — the explicit CLI/test
    migration, the resilient recovery path, resurrection, serve
    re-homing, and the placement policy engine — builds one
    {!Move.request} and calls {!move}.  The protocol invariants hold
    for every subject and reason, and are stated here once:

    - {b Fencing}: a stale incarnation (its rank's epoch moved past it)
      never moves; a [Running] move of a zombie fails with [Fenced],
      and an [Image] move under [?rank] bumps the rank's epoch FIRST so
      the old holder is fenced before the successor exists.
    - {b Forwarder install + drain}: moving a REGISTERED service
      re-homes it under a fresh rank; the laddr rebinds, the vacated
      rank forwards for [Config.forward_ttl_s] (owing [Recipient_moved]
      notices to senders), and messages already queued at the old rank
      are relayed to the successor inside the move commit — no
      initiator can strand stamped messages.  An [Image] move under
      [?rank] inherits the rank's mailbox outright, so queued traffic
      survives resurrection too.
    - {b Baseline reuse}: a [Running] subject ships as a delta over its
      previous pack when the destination still holds that baseline
      (transparent full-image fallback otherwise); the successor's
      baseline is rebased on what was shipped.
    - {b Reason is accounting only}: it selects a [move.*] counter and
      nothing else — traces are byte-identical across reasons, which
      the equivalence suite asserts. *)
module Move : sig
  type reason = Explicit | Policy | Resurrect | Rehome

  type subject =
    | Running of int
        (** a live process, by pid: packed between basic blocks,
            shipped under the retry policy, resumed on the target *)
    | Image of { path : string; rank : int option; seed : int }
        (** a checkpoint image on shared storage (the resurrection
            path); [rank] assigns the successor the rank's mailbox and
            bumps its epoch *)

  type request = {
    mv_subject : subject;
    mv_dest : int;  (** destination node id *)
    mv_reason : reason;
  }

  type outcome = {
    mv_pid : int;  (** the (successor) pid now running at [mv_dest] *)
    mv_report : migration_report option;  (** [None] for [Image] *)
  }

  val request : reason:reason -> subject -> dest:int -> request
end

type t

val msg_moved : int
(** svc_send's typed "recipient moved" code (-3): the cached binding
    led to a vacated rank whose forwarder TTL passed.  Nothing was
    sent; the caller's cache entry is dropped so a retry re-resolves
    through the registry.  Never a silent drop. *)

val create_cfg : Config.t -> t
(** Build a cluster of [node_count] nodes named [node0..] from a typed
    configuration.
    @raise Invalid_argument when a fault-plan directive names a node
    outside [0, node_count); the message quotes the directive. *)

val node : t -> int -> node
val node_count : t -> int
val entry_of_pid : t -> int -> entry option
val entry_of_rank : t -> int -> entry option

val now : t -> float
(** Cluster-wide time: the farthest node clock. *)

val extern_signatures : Fir.Typecheck.extern_lookup
(** The signatures of the cluster's extern table: one entry per name
    holds its signature and its implementation, the cluster's own
    (messaging, registry, object store, files, distributed speculation)
    plus the base runtime's ({!Vm.Extern}).  Cluster programs are
    strictly typechecked against it, including by the migration
    daemons, and the scheduler's handler runs the same entries: a name
    absent here traps as ["unknown extern <name>"], arguments that do
    not fit an entry as ["extern <name>: bad arguments (<args>)"]. *)

val extern_names : string list
(** Every name of the cluster's extern table, sorted. *)

(** {2 The fault-injected object store (Figure 1)} *)

val set_object : t -> int -> string -> unit
val get_object : t -> int -> string option

val set_object_failure_probability : t -> float -> unit
(** Storage-fault probability for [obj_read]/[obj_write].  Draws come
    from the seeded fault-plan RNG (never the global [Random] state), so
    runs are reproducible under [Config.seed]. *)

(** {2 Placement and execution} *)

val spawn :
  ?rank:int -> ?engine:[ `Interp | `Masm ] -> ?seed:int ->
  t -> node_id:int -> Fir.Ast.program -> int
(** Compile (for [`Masm]) and place a process; returns its pid. *)

val run : ?max_rounds:int -> ?stop:(unit -> bool) -> t -> int
(** Schedule until quiescent, stopped, or out of rounds; returns the
    number of rounds executed. *)

(** {2 The process registry (location-transparent addressing)} *)

val register_service : t -> pid:int -> int
(** Allocate a ranked process a stable logical address (sequential
    from 1).  From here on any {!move} (or a process-initiated migrate)
    RE-HOMES it: the successor gets a fresh rank, the laddr rebinds,
    the vacated rank forwards for {!Config.t.forward_ttl_s} with
    [Recipient_moved] notices to senders, and in-flight messages are
    relayed — traffic addressed with [svc_send] keeps flowing while the
    process moves.  Registration also makes the process eligible for
    the placement policy engine ({!Config.t.balance}). *)

val registry : t -> Registry.t
(** The registry itself (bindings, forwarders, counters). *)

val service_rank : t -> laddr:int -> int option
(** Authoritative current rank of a logical address. *)

(** Deterministic table re-key (exposed for the regression suite):
    entries stably sorted by original key, colliding remapped keys
    merged in that canonical order — never in [Hashtbl.fold] order. *)
module Rekey : sig
  val merge : remap:('k -> 'j) -> ('k * 'v list) list -> ('j * 'v list) list
end

val advance_clocks : t -> float -> unit
(** Advance every alive node's local clock by the given seconds even
    with nothing runnable, pumping heartbeat traffic: lets a resilience
    driver time out suspicions when the system is quiescent (every
    survivor parked on a rank whose holder went silent). *)

(** {2 Failure and recovery} *)

val fail_node : t -> int -> unit
(** Kill a node: resident processes die, their speculations' dependents
    are rolled back, and survivors polling the dead ranks observe
    MSG_ROLL. *)

val resurrect :
  ?rank:int -> ?seed:int -> t -> node_id:int -> path:string ->
  (int, string) result
(** Convenience wrapper: {!move} with an [Image] subject and reason
    [Resurrect], flattening the error to its historical string form.
    Executes a checkpoint image from shared storage on a live node (the
    resurrection daemon of Figure 2); same-architecture resurrections
    take the binary fast path.  Returns the new pid.

    The epoch-bump-first and mailbox-inheritance guarantees are the
    [Image]-subject invariants stated on {!module:Move}.

    A checkpoint taken mid-speculation restores the process's LOCAL
    speculation state; cross-process dependency edges are not restored
    across death (live migration re-keys them through the move commit).
    The paper's protocol commits before every checkpoint, so its
    canonical application never checkpoints inside a speculation that
    other processes depend on. *)

val detection_enabled : t -> bool
(** A heartbeat failure detector was configured. *)

val detector_config : t -> Detector.config option

val suspected_nodes : t -> int list
(** Nodes the failure detector currently suspects (ascending), judged
    ONLY from heartbeat silence on the observers' local clocks — never
    from ground-truth aliveness.  A stalled or partitioned node can be
    falsely suspected; epoch fencing makes resurrecting over it safe.
    Empty when no detector is configured. *)

val rank_epoch : t -> int -> int
(** The rank's current incarnation epoch (0 until first resurrection). *)

val move : t -> Move.request -> (Move.outcome, migration_error) result
(** The one migration entry point (see {!module:Move} for the
    invariants).  A [Running] subject is packed mid-execution, shipped
    under {!Config.default_retry} (per-hop timeout, bounded retry,
    exponential backoff in simulated time) and delivered idempotently
    to the target's daemon; the process cannot observe the move, and on
    any failure — including an exhausted retry budget — it keeps
    running where it was.  An [Image] subject is read (and its delta
    chain replayed) from shared storage and resumed on the destination;
    failures surface as [Resurrect_failed]. *)

(** {2 Introspection} *)

val statuses : t -> (int * int option * int * Process.status) list
(** (pid, rank, node, status) for every process ever placed. *)

val migrations : t -> migration_record list
val storage : t -> Storage.t
val net : t -> Simnet.t

val trace : t -> Obs.Trace.t
(** The typed event trace: migrations, failures, resurrections,
    speculation resolution, message traffic and collections, stamped
    with simulated time (export with {!Obs.Trace.write_jsonl}). *)

val dspec : t -> Dspec.t
(** The cluster-global distributed-transaction table (tests and audits
    read transaction states and counters through it). *)

val metrics : t -> Obs.Metrics.t
(** The cluster-level registry: scheduler counters ([sched.rounds],
    [sched.quanta]), migration counters and cost histograms
    ([cluster.migrations_ok], [cluster.migrate_bytes],
    [cluster.pack_seconds], ...), failure/recovery counters, and the
    delta-shipping ledger ([migrate.bytes_full], [migrate.bytes_delta],
    [migrate.delta_hits], [migrate.delta_misses],
    [migrate.delta_fallbacks], gauge [migrate.delta_hit_rate]), the
    per-reason move counters ([move.explicit], [move.policy],
    [move.resurrect], [move.rehome]) and the policy-engine ledger
    ([balance.ticks], [balance.proposals], [balance.moves], gauges
    [balance.spread] and [balance.last_move_s]).  Per-node daemon and
    cache registries live on the daemons themselves. *)
