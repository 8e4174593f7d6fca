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

type entry = {
  proc : Process.t;
  mutable emu : Emulator.t;
      (** the MASM emulator running [proc]: every cluster process runs
          compiled code, from spawn on *)
  node_id : int;
  mailbox : Mpi.mailbox;
  rank : int option;
  mutable epoch : int;
      (** incarnation epoch of the rank this entry was created under; an
          entry whose epoch falls behind the rank's current epoch is a
          zombie and is fenced at every interaction point *)
  start_at : float;  (** not schedulable before this (node) time *)
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

type migration_report = {
  rep_pid : int;  (** successor pid *)
  rep_attempts : int;
      (** transmissions over the move's hops, >= 1: the image hop's,
          plus the FIR hop's when the destination compiled ahead *)
  rep_retries : int;  (** transmissions after a lost one, over both hops *)
  rep_backoff_s : float;  (** total backoff waited between attempts *)
  rep_elapsed_s : float;
      (** simulated seconds from the request to resume on the target *)
  rep_bytes : int;  (** the image hop's bytes *)
  rep_cache_hit : bool;
      (** the destination held the code when the move was requested *)
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
  | Cutover_pending of { dest : int; ready_at : float }
      (** the subject's destination [dest] is still compiling its code
          for an earlier move, ready at [ready_at]; the subject keeps
          running and cuts over when the code is ready *)

(** A [Running]-subject move whose destination did not hold the
    subject's code when it was requested ({!move}): where it stands
    ({!Move.cutover}). *)
type cutover =
  | Compiling of { dest : int; ready_at : float }
      (** node [dest] compiles the code, ready at [ready_at]; the
          subject runs on at its source *)
  | Landed of migration_report  (** the cut-over installed the successor *)
  | Abandoned of migration_error
      (** the cut-over never happened: the subject ended first
          ([Not_running]), its destination died ([Target_down]), it was
          fenced, or the image hop failed; a live subject keeps
          running where it was *)

val migration_error_to_string : migration_error -> string

(** Typed cluster configuration: the one record that says everything —
    topology, seed, the fault-injection plan, delta shipping, failure
    detection, replication, forwarding and placement policy.  The
    scheduling quantum (64 steps), the migration retry
    policy ({!default_retry}), the daemons (untrusted, a 16-entry
    recompilation cache, 4 retained delta baselines), the placement
    policy's tunables ({!Balance}), the heartbeat size
    ({!Detector.hb_bytes}) and the seed of every resurrected process
    are fixed; the trace keeps every event. *)
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
    seed : int;
    net : Simnet.t option;  (** [None] = default Simnet *)
    faults : Faults.plan;
    delta : bool;
        (** ship deltas (and incremental checkpoint segments) when a
            negotiated baseline makes one possible and smaller; [false]
            forces every image on the wire and in the store to be full
            and retains no baselines on the daemons.  Kept because
            [mcc grid --no-delta] and the delta tests compare both
            settings *)
    detector : Detector.config option;
        (** [Some cfg] runs a heartbeat failure detector over the
            cluster ({!create_cfg} rejects non-positive or NaN timings);
            [None] (default) emits no heartbeats and draws no extra
            randomness, keeping legacy traces byte-identical *)
    replication : int;
        (** checkpoint replication factor: [k >= 1] places every stored
            file on [k] distinct node-local stores that die with their
            node (clamped to [node_count]); [<= 0] (default) keeps the
            legacy indestructible shared store *)
    forward_ttl_s : float;
        (** how long a vacated rank keeps forwarding after a registered
            service migrates away (default 0.25 simulated seconds): long
            enough for every active sender to learn the new rank from a
            [Recipient_moved] notice.  A send arriving later gets the
            typed {!msg_moved} error and must re-resolve through the
            registry.  Kept because shortening it is the only way a test
            reaches forwarder expiry *)
    balance : bool;
        (** the load-aware placement policy engine.  When [true], the
            scheduler samples per-node load gauges every
            {!Balance.period_s} and migrates hot registered services
            through {!move} with reason [Policy], under the policy's
            fixed constants ({!Balance}); off by default (no gauges, no
            extra trace events, legacy traces byte-identical) *)
  }

  val default : t
  (** 4 nodes, cisc32, seed 1, default net, {!Faults.none}, delta
      shipping on, no failure detector, unreplicated shared storage,
      0.25 s forwarders, placement policy off.  Every
      daemon is untrusted with a 16-entry recompilation cache and 4
      retained baselines. *)
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
      previous pack when the destination holds that baseline (only the
      node that packed it does), and as the full image otherwise; the
      successor's baseline is rebased on what was shipped.
    - {b Offer, then cut over}: a [Running] subject's FIR digest is
      offered to the destination's daemon first.  When the daemon holds
      the code, the move packs, ships and installs at once.  Otherwise
      the FIR alone is shipped under the retry policy (an unreachable
      target or a rejected FIR fails the move at once) and compiled on
      the destination, charged to its busy time, while the subject keeps
      running at its source.  The code is ready at
      [max(target clock, source clock + FIR transfer) + compile]; the
      scheduler cuts over at the subject's first quantum boundary at
      which its node's clock has reached that time (or, when nothing
      else can run, by waiting for it), through the same pack, ship and
      install — a cache hit, so the outage is the transfer and the
      link.  A second move to a node still compiling the same code joins
      that compile; a move of a subject whose cut-over is pending fails
      with [Cutover_pending].  The program's own [migrate] and [Image]
      moves ship at once, as before.
    - {b Reason is accounting only}: it selects a [move.*] counter and
      nothing else — traces are byte-identical across reasons, which
      the equivalence suite asserts. *)
module Move : sig
  type reason = Explicit | Policy | Resurrect | Rehome

  type subject =
    | Running of int
        (** a live process, by pid: packed between basic blocks,
            shipped under the retry policy, resumed on the target *)
    | Image of { path : string; rank : int option }
        (** a checkpoint image on shared storage (the resurrection
            path); [rank] assigns the successor the rank's mailbox and
            bumps its epoch.  Every resurrected process seeds its
            random-number state with the same constant *)

  type request = {
    mv_subject : subject;
    mv_dest : int;  (** destination node id *)
    mv_reason : reason;
  }

  type ticket
  (** A compile-ahead move's handle, held by whoever requested it; the
      cluster keeps no record of a cut-over once it landed or was
      abandoned. *)

  type outcome = {
    mv_pid : int;
        (** the successor pid now running at [mv_dest]; while the
            cut-over is pending, the subject's own pid at its source *)
    mv_report : migration_report option;
        (** [None] for [Image] and for a pending cut-over *)
    mv_cutover : ticket option;
        (** [Some t] when the destination compiles ahead: the subject
            cuts over once its node's clock reaches the ready time, and
            [cutover t] tells how it went *)
  }

  val request : reason:reason -> subject -> dest:int -> request

  val cutover : ticket -> cutover
  (** Where a compile-ahead move stands: still compiling (with its
      ready time), landed (with its report) or abandoned. *)
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
    outside [0, node_count) (the message quotes the directive), or when
    the detector's [hb_interval_s] or [suspect_timeout_s] is zero,
    negative or NaN (the message names the field). *)

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
    not fit an entry as ["extern <name>: bad arguments (<args>)"].
    Outside the cluster only tests read it, to typecheck cluster
    programs. *)

val extern_names : string list
(** Every name of the cluster's extern table, sorted.  Test
    introspection. *)

(** {2 The fault-injected object store (Figure 1)} *)

val set_object : t -> int -> string -> unit
val get_object : t -> int -> string option

val set_object_failure_probability : t -> float -> unit
(** Storage-fault probability for [obj_read]/[obj_write].  Draws come
    from the seeded fault-plan RNG (never the global [Random] state), so
    runs are reproducible under [Config.seed]. *)

(** {2 Placement and execution} *)

val spawn :
  ?rank:int -> ?engine:[ `Masm ] -> ?seed:int ->
  t -> node_id:int -> Fir.Ast.program -> int
(** Compile for the node's architecture and place a process on a MASM
    emulator; returns its pid.  A program is compiled once per program
    value and architecture per cluster: every spawn of the same value
    onto a node of that architecture shares one compiled image, and a
    content-equal copy, being another value, compiles its own.  This
    deploy memo is host-only: it charges no simulated time, and moves,
    resurrections and checkpoint reads never consult it.  [engine] names
    the one cluster engine and selects nothing. *)

val run : ?max_rounds:int -> ?stop:(unit -> bool) -> t -> int
(** Schedule until quiescent, stopped, or out of rounds; returns the
    number of rounds executed. *)

val sched_visits : t -> int
(** Entries the scheduler has visited so far, taking each node's
    entries for its turn (not an {!metrics} counter).  It tracks the
    node's live residents, not every entry ever placed. *)

(** {2 The process registry (location-transparent addressing)} *)

val register_service : t -> pid:int -> int
(** Allocate a ranked process a stable logical address (sequential
    from 1).  From here on any {!move} (or a process-initiated migrate)
    RE-HOMES it: the successor gets a fresh rank, the laddr rebinds,
    the vacated rank forwards for {!Config.t.forward_ttl_s} with
    [Recipient_moved] notices to senders, and in-flight messages are
    relayed — traffic addressed with [svc_send] keeps flowing while the
    process moves.  Registration also makes the process eligible for
    the placement policy engine ({!Config.t.balance}).  A process is
    registered once: raises [Invalid_argument] if its rank already
    serves a laddr.

    Registration seeds the node's recompilation cache with the
    process's program (keyed by its FIR digest, the node's
    architecture and [Verified]): the daemon's typecheck verdict and
    the code the process runs, reused from its emulator.  The verdict
    and the FIR payload are computed once per program (the deploy memo
    of {!spawn}), and every service of that program is seeded with the
    one payload.  A re-home of any process with the same program onto
    that node then hits.  No simulated time is charged. *)

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
  ?rank:int -> t -> node_id:int -> path:string -> (int, string) result
(** Convenience wrapper: {!move} with an [Image] subject and reason
    [Resurrect], flattening the error to its historical string form.
    Executes a checkpoint image from shared storage on a live node (the
    resurrection daemon of Figure 2); same-architecture resurrections
    take the binary fast path.  Returns the new pid.  A chain with a
    recorded segment the store cannot return fails with ["checkpoint
    segment K of N unreadable"] rather than resuming an older image.

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
(** The rank's current incarnation epoch (0 until first resurrection).
    Test introspection. *)

val move : t -> Move.request -> (Move.outcome, migration_error) result
(** The one migration entry point (see {!module:Move} for the
    invariants).  A [Running] subject is packed mid-execution, shipped
    under {!Config.default_retry} (per-hop timeout, bounded retry,
    exponential backoff in simulated time) and delivered idempotently
    to the target's daemon — at once when the daemon holds its code,
    otherwise at the cut-over after the daemon compiled it ahead (see
    {!module:Move}); the process cannot observe the move, and on
    any failure — including an exhausted retry budget — it keeps
    running where it was.  An [Image] subject is read (and its delta
    chain replayed) from shared storage and resumed on the destination;
    failures surface as [Resurrect_failed]. *)

(** {2 Introspection} *)

val statuses : t -> (int * int option * int * Process.status) list
(** (pid, rank, node, status) for every process ever placed. *)

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
    delta-shipping ledger ([migrate.bytes_full], [migrate.bytes_delta];
    while delta is on, [migrate.delta_hits] counts hops and checkpoint
    segments shipped as deltas, [migrate.delta_misses] those shipped
    full, and the gauge [migrate.delta_hit_rate] is their ratio), the
    per-reason move counters ([move.explicit], [move.policy],
    [move.resurrect], [move.rehome]) and the policy-engine ledger
    ([balance.ticks], [balance.proposals], [balance.moves], gauges
    [balance.spread] and [balance.last_move_s]).  Per-node daemon and
    cache registries live on the daemons themselves. *)
