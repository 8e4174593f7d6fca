(* The simulated cluster (paper, Sections 2 and 5).

   A cluster is a set of nodes, each running an MCC migration daemon
   (Migrate.Server), connected by the simulated network, sharing reliable
   storage (the "NFS mount").  Processes are placed on nodes, scheduled
   round-robin with a step quantum, and interact through the Mpi message
   layer.  The cluster implements:

   - the three migration protocols end-to-end (pack on the source, bytes
     across the network, verify/recompile/resume on the target daemon);
   - node failure injection: resident processes die, survivors that poll
     the dead ranks observe MSG_ROLL, and speculative messages' consumers
     are rolled back through the dependency cascade;
   - resurrection: a checkpoint file is read back from shared storage and
     the process resumes on a chosen node under its old rank (Figure 2's
     recovery path).

   Simulated time: every process's work is charged in architecture cycles;
   a round advances the clock by the busiest node's share, so nodes run in
   parallel while processes on one node serialize.  Checkpoint writes and
   migrations charge their full cost to the process that performs them. *)

open Runtime
open Vm

type engine = Interp_engine | Emu_engine of Emulator.t

type entry = {
  proc : Process.t;
  mutable engine : engine;
  mutable node_id : int;
  mailbox : Mpi.mailbox;
  mutable rank : int option;
  (* the incarnation of the rank this process embodies.  Resurrection
     bumps the rank's current epoch; an entry whose epoch is older than
     the rank's current one is a ZOMBIE (it survived a false suspicion)
     and is fenced at its next interaction point.  Migration preserves
     the epoch: the successor is the same incarnation. *)
  mutable epoch : int;
  mutable start_at : float; (* not schedulable before this time *)
  (* the (src rank, tag) the process last polled unsuccessfully: the
     scheduler only wakes it for a matching delivery (or a roll notice
     from that source), so unrelated traffic cannot spin-livelock a
     parked receiver *)
  mutable parked_on : (int * int) option;
  (* (image_digest, image) of this process's most recent pack — what its
     heap's dirty set is tracked against, hence the only image the NEXT
     pack can ship a delta over.  Updated at EVERY pack (the dirty set is
     cleared there even when the migration subsequently fails). *)
  mutable baseline : (string * Migrate.Wire.image) option;
  (* sender-side binding cache: laddr -> the rank this process last
     resolved it to.  Migration of the SENDER carries the cache (it is
     process state); migration of the TARGET leaves it stale until a
     Recipient_moved notice or a typed MSG_MOVED forces a re-resolve. *)
  bindings : (int, int) Hashtbl.t;
  (* moved notices owed to this process by forwarders it sent through:
     (delivery time, laddr, new rank), newest first.  Consumed — oldest
     first — at the next svc_send once due, rebinding the cache. *)
  mutable notices : (float * int * int) list;
}

type node = {
  node_id : int;
  node_name : string;
  node_arch : Arch.t;
  mutable alive : bool;
  daemon : Migrate.Server.t;
  mutable busy_seconds : float; (* time spent executing *)
  (* the node's local simulated clock (busy + idle waiting).  Nodes
     advance independently — a conservative discrete-event simulation —
     so out-of-phase processes (e.g. a freshly resurrected rank) overlap
     with their peers instead of serialising against a global clock. *)
  mutable clock : float;
  (* the entries hosted on this node, newest first (the per-node index
     the indexed scheduler iterates: a round touches each entry once
     through its node instead of scanning the global list per node).
     Terminated entries are purged lazily each round; an entry never
     changes node in place (migration registers a fresh entry), so the
     list only ever gains at registration and loses at purge. *)
  mutable residents : entry list;
}

type migration_record = {
  mr_kind : [ `Migrate | `Suspend | `Checkpoint ];
  mr_pid : int;
  mr_bytes : int;
  mr_pack_s : float;
  mr_transfer_s : float;
  mr_compile_s : float; (* link-only on a recompilation-cache hit *)
  mr_cache_hit : bool;
  mr_delta : bool; (* the image travelled as a delta over a baseline *)
  mr_ok : bool;
}

(* What a successful host-initiated migration reports (the structured
   replacement for the old bare successor pid). *)
type migration_report = {
  rep_pid : int; (* successor pid *)
  rep_attempts : int; (* hop transmissions, >= 1 *)
  rep_retries : int; (* rep_attempts - 1 *)
  rep_backoff_s : float; (* total backoff waited between attempts *)
  rep_elapsed_s : float; (* simulated initiation -> resume on target *)
  rep_bytes : int;
  rep_cache_hit : bool;
  rep_delta : bool; (* shipped as a delta (no fallback needed) *)
}

type migration_error =
  | No_such_process of int
  | Not_running (* terminated, or already at a migration point *)
  | Target_down
  | Already_there
  | Unreachable of { attempts : int; reason : string }
    (* retry budget exhausted: every transmission was lost or
       partitioned; the process keeps running where it was *)
  | Rejected of string (* the target daemon refused the image *)
  | Fenced of { rank : int; stale : int; current : int }
    (* the process is a superseded incarnation of its rank: a newer
       epoch exists (the rank was resurrected elsewhere), so this copy
       must halt instead of acting *)
  | Resurrect_failed of string
    (* an image-subject move could not restore the checkpoint (node
       down, missing/corrupt image, wedged replicated read).  The
       message is the historical resurrection error string verbatim. *)

let migration_error_to_string = function
  | No_such_process pid -> Printf.sprintf "no process %d" pid
  | Not_running -> "process is not running"
  | Target_down -> "target node is down"
  | Already_there -> "already there"
  | Unreachable { attempts; reason } ->
    Printf.sprintf "target unreachable after %d attempts (last: %s)"
      attempts reason
  | Rejected msg -> msg
  | Fenced { rank; stale; current } ->
    Printf.sprintf "fenced: rank %d epoch %d superseded by epoch %d" rank
      stale current
  | Resurrect_failed msg -> msg

(* Typed cluster configuration: one record instead of the optional-
   argument pile that kept growing on [create].  The fields are
   documented in cluster.mli. *)
module Config = struct
  type retry = {
    max_attempts : int;
    hop_timeout_s : float;
    backoff_base_s : float;
    backoff_factor : float;
  }

  let default_retry =
    {
      max_attempts = 5;
      hop_timeout_s = 0.02;
      backoff_base_s = 0.002;
      backoff_factor = 2.0;
    }

  type t = {
    node_count : int;
    arches : Arch.t array;
    trusted : bool;
    seed : int;
    code_cache : int;
    net : Simnet.t option;
    faults : Faults.plan;
    delta : bool;
    baseline_cache : int;
    detector : Detector.config option;
    replication : int;
    legacy_scan_sched : bool;
    forward_ttl_s : float;
    balance : Balance.Config.t;
  }

  let default =
    {
      node_count = 4;
      arches = [| Arch.cisc32 |];
      trusted = false;
      seed = 1;
      code_cache = 16;
      net = None;
      faults = Faults.none;
      delta = true;
      baseline_cache = 4;
      detector = None;
      replication = 0;
      legacy_scan_sched = false;
      forward_ttl_s = 0.25;
      balance = Balance.Config.default;
    }
end

(* The unified migration API: every initiator — the explicit CLI
   migration, the resilient retry path, resurrection, serve re-homing
   and the placement policy engine — builds one [Move.request] and
   calls [move], so fencing, forwarder install, mailbox drain and
   baseline negotiation behave identically regardless of who asked.
   [reason] is accounting only (per-reason counters); it never changes
   protocol behaviour, which is what the trace-equivalence suite
   asserts. *)
module Move = struct
  type reason = Explicit | Policy | Resurrect | Rehome

  type subject =
    | Running of int (* live process, by pid: pack/ship/resume *)
    | Image of { path : string; rank : int option; seed : int }
      (* checkpoint image on shared storage: the resurrection path *)

  type request = {
    mv_subject : subject;
    mv_dest : int; (* destination node id *)
    mv_reason : reason;
  }

  type outcome = {
    mv_pid : int; (* the (successor) pid now running at [mv_dest] *)
    mv_report : migration_report option; (* None for [Image] subjects *)
  }

  let request ~reason subject ~dest =
    { mv_subject = subject; mv_dest = dest; mv_reason = reason }
end

(* Incremental-checkpoint chain state for one storage path: the image the
   NEXT delta segment would patch (the last one written into the chain)
   and how many [path.dN] segments exist on the store. *)
type ckpt_chain = {
  mutable cc_digest : string;
  mutable cc_image : Migrate.Wire.image;
  mutable cc_len : int;
}

(* A chain longer than this is rewritten in full: resurrection replays
   every segment, so unbounded chains would trade write bytes for
   unbounded recovery time. *)
let max_chain_len = 8

(* Interpreter/emulator steps a process runs per scheduling turn. *)
let quantum = 64

type t = {
  nodes : node array;
  net : Simnet.t;
  storage : Storage.t;
  mutable entries : entry list; (* newest first *)
  by_pid : (int, entry) Hashtbl.t;
  ranks : (int, int) Hashtbl.t; (* rank -> pid *)
  (* rank -> current incarnation epoch (absent = 0).  Bumped by every
     resurrection under that rank; entries carrying an older epoch are
     fenced.  The table is the cluster-level ground truth a real system
     would hold in its membership/coordination service. *)
  epochs : (int, int) Hashtbl.t;
  detector : Detector.t option;
  (* rank-level mailboxes: messages are addressed to RANKS, and the queue
     survives the death of the process currently holding the rank (a
     resurrected or migrated successor inherits it, like DEMOS/MP's
     forwarding stubs).  Unranked processes get private mailboxes. *)
  rank_mailboxes : (int, Mpi.mailbox) Hashtbl.t;
  (* the process registry: laddr -> current rank, plus the bounded-TTL
     forwarders left on vacated ranks *)
  registry : Registry.t;
  (* fresh ranks for re-homed services, far above user-assigned ones *)
  mutable next_dyn_rank : int;
  forward_ttl_s : float;
  (* (sender pid, sender level uid) -> dependent (receiver pid, receiver uid) *)
  deps : (int * int, (int * int) list ref) Hashtbl.t;
  (* distributed-speculation transactions: the coordinator/participant
     table the epoch-fenced commit protocol runs over.  Cluster-global —
     a transaction survives the migration of any of its processes. *)
  dspec : Dspec.t;
  mutable next_pid : int;
  trusted : bool;
  scan_sched : bool; (* legacy linear-scan scheduler (see Config) *)
  faults : Faults.t;
  mutable hop_seq : int; (* envelope id generator for migration hops *)
  obj_store : (int, Bytes.t) Hashtbl.t; (* Figure 1's account objects *)
  (* speculative object writes: (writer pid, level uid) -> saved old
     contents, newest first.  The object store participates in the
     writer's speculation: rollback restores these, commit folds them
     into the parent level (exactly the heap's checkpoint-record
     discipline, applied to external state). *)
  obj_undo : (int * int, (int * Bytes.t option) list ref) Hashtbl.t;
  (* MojaveFS-lite: per-speculation-level undo log for shared-store files
     (path -> previous contents), mirroring the object store's *)
  fs_undo : (int * int, (string * string option) list ref) Hashtbl.t;
  mutable obj_fail_prob : float;
  mutable migrations : migration_record list;
  (* observability: the typed event trace and the metrics registry.
     Events carry SIMULATED time; counters aggregate what the trace
     itemises. *)
  tracer : Obs.Trace.t;
  metrics : Obs.Metrics.t;
  c_rounds : Obs.Metrics.counter;
  c_quanta : Obs.Metrics.counter;
  c_migrations_ok : Obs.Metrics.counter;
  c_migrations_failed : Obs.Metrics.counter;
  c_migration_cache_hits : Obs.Metrics.counter;
  c_checkpoints : Obs.Metrics.counter;
  c_node_failures : Obs.Metrics.counter;
  c_resurrections : Obs.Metrics.counter;
  c_migrate_retries : Obs.Metrics.counter;
  c_fence_rejections : Obs.Metrics.counter;
  (* delta migration: whether it is enabled, the per-path checkpoint
     chains, and the byte/outcome accounting the benches read *)
  delta : bool;
  ckpt_chains : (string, ckpt_chain) Hashtbl.t;
  c_bytes_full : Obs.Metrics.counter;
  c_bytes_delta : Obs.Metrics.counter;
  c_delta_hits : Obs.Metrics.counter;
  c_delta_misses : Obs.Metrics.counter;
  c_delta_fallbacks : Obs.Metrics.counter;
  g_delta_hit_rate : Obs.Metrics.gauge;
  (* registry counters: service moves, forwarded relays, sender rebinds
     and TTL expiries, plus the request-latency histogram the serving
     workloads (Gridapp T1) feed through the lat_us extern *)
  c_svc_moves : Obs.Metrics.counter;
  c_svc_forwarded : Obs.Metrics.counter;
  c_svc_rebinds : Obs.Metrics.counter;
  c_svc_expired : Obs.Metrics.counter;
  h_app_latency : Obs.Metrics.histogram;
  h_backoff_s : Obs.Metrics.histogram;
  h_migrate_bytes : Obs.Metrics.histogram;
  h_pack_s : Obs.Metrics.histogram;
  h_transfer_s : Obs.Metrics.histogram;
  h_compile_s : Obs.Metrics.histogram;
  (* per-reason accounting for the unified move API *)
  c_move_explicit : Obs.Metrics.counter;
  c_move_policy : Obs.Metrics.counter;
  c_move_resurrect : Obs.Metrics.counter;
  c_move_rehome : Obs.Metrics.counter;
  (* the placement policy engine: None when disabled.  [bal_busy0] and
     [bal_cycles0] remember the previous tick's busy-seconds / charged
     cycles so a tick measures rates over its own period; a pid absent
     from [bal_cycles0] (fresh successor) measures zero for one period,
     which doubles as anti-ping-pong damping for just-moved services. *)
  balance : Balance.t option;
  mutable bal_prev_at : float;
  mutable bal_next_at : float;
  bal_busy0 : float array;
  bal_cycles0 : (int, int) Hashtbl.t;
  mutable bal_last_move_s : float;
  c_bal_ticks : Obs.Metrics.counter;
  c_bal_proposals : Obs.Metrics.counter;
  c_bal_moves : Obs.Metrics.counter;
  g_bal_spread : Obs.Metrics.gauge;
  g_bal_last_move : Obs.Metrics.gauge;
  (* time base of the quantum currently executing (single-threaded):
     lets extern handlers compute the running process's precise local
     time even mid-quantum *)
  mutable cur_base : float;
  mutable cur_cycles0 : int;
  mutable cur_pid : int; (* pid of the process in that quantum, or -1 *)
}

let msg_none = Mpi.msg_none
let msg_roll = Mpi.msg_roll

(* svc_send's typed "recipient moved" code (-3): the cached binding led
   to a vacated rank whose forwarder TTL has passed.  The message was
   NOT sent — the caller drops its cache and retries, re-resolving
   through the registry.  Never a silent drop. *)
let msg_moved = -3

(* ------------------------------------------------------------------ *)
(* Externs available to cluster processes                              *)
(* ------------------------------------------------------------------ *)

let extern_signatures_list : (string * (Fir.Types.ty list * Fir.Types.ty)) list
    =
  let open Fir.Types in
  [
    "msg_send", ([ Tint; Tint; Tptr Tfloat; Tint ], Tint);
    "msg_try_recv", ([ Tint; Tint; Tptr Tfloat; Tint ], Tint);
    "msg_send_int", ([ Tint; Tint; Tptr Tint; Tint ], Tint);
    "msg_try_recv_int", ([ Tint; Tint; Tptr Tint; Tint ], Tint);
    (* location-transparent messaging: sends by logical address, the
       wildcard receive a mobile service needs (its clients' ranks are
       whatever the registry said at their send time), and the
       request-latency probe the serving benches feed *)
    "svc_send", ([ Tint; Tint; Tptr Tfloat; Tint ], Tint);
    "svc_resolve", ([ Tint ], Tint);
    "msg_try_recv_any", ([ Tint; Tptr Tfloat; Tint ], Tint);
    "lat_us", ([ Tint ], Tunit);
    "rank", ([], Tint);
    "sim_now_us", ([], Tint);
    "obj_read", ([ Tint; Tptr Tint; Tint ], Tint);
    "obj_write", ([ Tint; Tptr Tint; Tint ], Tint);
    (* MojaveFS-lite (the paper's "speculative I/O" future work,
       Section 7): byte files on the shared store whose writes join the
       writer's speculation, so "normal file I/O operations" are usable
       inside a speculation and roll back with it *)
    "fs_write", ([ Traw; Tptr Tint; Tint ], Tint);
    "fs_read", ([ Traw; Tptr Tint; Tint ], Tint);
    "fs_size", ([ Traw ], Tint);
    (* distributed speculation: open a transaction rooted at the current
       level, run the epoch-fenced commit protocol over everyone who
       joined, and test whether anyone still depends on this process's
       current level (the client's pre-commit barrier) *)
    "dspec_open", ([], Tint);
    "dspec_commit", ([ Tint ], Tint);
    "spec_pending", ([], Tint);
  ]

let extern_signatures : Fir.Typecheck.extern_lookup =
 fun name ->
  match List.assoc_opt name extern_signatures_list with
  | Some s -> Some s
  | None -> Extern.signature_lookup [] name

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create_cfg (cfg : Config.t) =
  let net = match cfg.Config.net with Some n -> n | None -> Simnet.create () in
  let nodes =
    Array.init cfg.Config.node_count (fun i ->
        let arch = cfg.Config.arches.(i mod Array.length cfg.Config.arches) in
        (* each node's daemon owns its own bounded recompilation cache
           (code_cache <= 0 disables caching cluster-wide) *)
        let cache =
          if cfg.Config.code_cache > 0 then
            Some (Migrate.Codecache.create ~capacity:cfg.Config.code_cache ())
          else None
        in
        {
          node_id = i;
          node_name = Printf.sprintf "node%d" i;
          node_arch = arch;
          alive = true;
          daemon =
            Migrate.Server.create_cfg
              {
                Migrate.Server.Config.default with
                trusted = cfg.Config.trusted;
                extern_signatures;
                first_pid = 0;
                cache;
                baseline_cache =
                  (if cfg.Config.delta then
                     max 0 cfg.Config.baseline_cache
                   else 0);
              }
              arch;
          busy_seconds = 0.0;
          clock = 0.0;
          residents = [];
        })
  in
  let metrics = Obs.Metrics.create () in
  (* register outside the record literal: field expressions evaluate in
     unspecified order, and the registry renders in registration order *)
  let c_rounds = Obs.Metrics.counter metrics "sched.rounds" in
  let c_quanta = Obs.Metrics.counter metrics "sched.quanta" in
  let c_migrations_ok =
    Obs.Metrics.counter metrics "cluster.migrations_ok"
  in
  let c_migrations_failed =
    Obs.Metrics.counter metrics "cluster.migrations_failed"
  in
  let c_migration_cache_hits =
    Obs.Metrics.counter metrics "cluster.migration_cache_hits"
  in
  let c_checkpoints = Obs.Metrics.counter metrics "cluster.checkpoints" in
  let c_node_failures =
    Obs.Metrics.counter metrics "cluster.node_failures"
  in
  let c_resurrections =
    Obs.Metrics.counter metrics "cluster.resurrections"
  in
  let c_migrate_retries =
    Obs.Metrics.counter metrics "migrate.retries"
  in
  let c_fence_rejections =
    Obs.Metrics.counter metrics "fence.rejections"
  in
  let c_bytes_full = Obs.Metrics.counter metrics "migrate.bytes_full" in
  let c_bytes_delta = Obs.Metrics.counter metrics "migrate.bytes_delta" in
  let c_delta_hits = Obs.Metrics.counter metrics "migrate.delta_hits" in
  let c_delta_misses = Obs.Metrics.counter metrics "migrate.delta_misses" in
  let c_delta_fallbacks =
    Obs.Metrics.counter metrics "migrate.delta_fallbacks"
  in
  let g_delta_hit_rate =
    Obs.Metrics.gauge metrics "migrate.delta_hit_rate"
  in
  let c_svc_moves = Obs.Metrics.counter metrics "registry.moves" in
  let c_svc_forwarded = Obs.Metrics.counter metrics "registry.forwarded" in
  let c_svc_rebinds = Obs.Metrics.counter metrics "registry.rebinds" in
  let c_svc_expired = Obs.Metrics.counter metrics "registry.expired" in
  let h_app_latency =
    Obs.Metrics.histogram metrics "app.latency_seconds"
  in
  let h_backoff_s =
    Obs.Metrics.histogram metrics "migrate.backoff_seconds"
  in
  let h_migrate_bytes =
    Obs.Metrics.histogram metrics "cluster.migrate_bytes"
  in
  let h_pack_s = Obs.Metrics.histogram metrics "cluster.pack_seconds" in
  let h_transfer_s =
    Obs.Metrics.histogram metrics "cluster.transfer_seconds"
  in
  let h_compile_s =
    Obs.Metrics.histogram metrics "cluster.compile_seconds"
  in
  let c_move_explicit = Obs.Metrics.counter metrics "move.explicit" in
  let c_move_policy = Obs.Metrics.counter metrics "move.policy" in
  let c_move_resurrect = Obs.Metrics.counter metrics "move.resurrect" in
  let c_move_rehome = Obs.Metrics.counter metrics "move.rehome" in
  let c_bal_ticks = Obs.Metrics.counter metrics "balance.ticks" in
  let c_bal_proposals = Obs.Metrics.counter metrics "balance.proposals" in
  let c_bal_moves = Obs.Metrics.counter metrics "balance.moves" in
  let g_bal_spread = Obs.Metrics.gauge metrics "balance.spread" in
  let g_bal_last_move = Obs.Metrics.gauge metrics "balance.last_move_s" in
  (* the fault runtime draws from (plan seed, cluster seed): the same
     plan is reproducible per cluster seed, and seed sweeps (F1) still
     vary their storage-fault draws *)
  let faults =
    Faults.create ~salt:cfg.Config.seed ~metrics cfg.Config.faults
  in
  let storage =
    Storage.create ~replication:cfg.Config.replication
      ~nodes:cfg.Config.node_count ~faults ~metrics net
  in
  let detector =
    Option.map
      (fun dcfg ->
        Detector.create ~metrics ~nodes:cfg.Config.node_count dcfg)
      cfg.Config.detector
  in
  let dspec = Dspec.create ~metrics () in
  let tracer = Obs.Trace.create () in
  (* scripted partition windows are part of the run's story: put them in
     the trace up front, stamped with their opening times *)
  List.iter
    (fun (w : Faults.partition) ->
      Obs.Trace.record tracer ~time:w.Faults.p_from ~node:w.Faults.pa
        (Obs.Trace.Link_partition
           {
             peer_a = w.Faults.pa;
             peer_b = w.Faults.pb;
             until_s = w.Faults.p_until;
           }))
    (List.rev cfg.Config.faults.Faults.f_partitions);
  {
    nodes;
    net;
    storage;
    entries = [];
    by_pid = Hashtbl.create 32;
    ranks = Hashtbl.create 32;
    epochs = Hashtbl.create 8;
    detector;
    rank_mailboxes = Hashtbl.create 32;
    registry = Registry.create ();
    next_dyn_rank = 1 lsl 16;
    forward_ttl_s = cfg.Config.forward_ttl_s;
    deps = Hashtbl.create 32;
    dspec;
    next_pid = 1;
    trusted = cfg.Config.trusted;
    scan_sched = cfg.Config.legacy_scan_sched;
    faults;
    hop_seq = 0;
    obj_store = Hashtbl.create 8;
    obj_undo = Hashtbl.create 8;
    fs_undo = Hashtbl.create 8;
    obj_fail_prob = 0.0;
    migrations = [];
    tracer;
    metrics;
    c_rounds;
    c_quanta;
    c_migrations_ok;
    c_migrations_failed;
    c_migration_cache_hits;
    c_checkpoints;
    c_node_failures;
    c_resurrections;
    c_migrate_retries;
    c_fence_rejections;
    delta = cfg.Config.delta;
    ckpt_chains = Hashtbl.create 8;
    c_bytes_full;
    c_bytes_delta;
    c_delta_hits;
    c_delta_misses;
    c_delta_fallbacks;
    g_delta_hit_rate;
    c_svc_moves;
    c_svc_forwarded;
    c_svc_rebinds;
    c_svc_expired;
    h_app_latency;
    h_backoff_s;
    h_migrate_bytes;
    h_pack_s;
    h_transfer_s;
    h_compile_s;
    c_move_explicit;
    c_move_policy;
    c_move_resurrect;
    c_move_rehome;
    balance =
      (if cfg.Config.balance.Balance.Config.enabled then
         Some (Balance.create cfg.Config.balance)
       else None);
    bal_prev_at = 0.0;
    bal_next_at = cfg.Config.balance.Balance.Config.period_s;
    bal_busy0 = Array.make cfg.Config.node_count 0.0;
    bal_cycles0 = Hashtbl.create 32;
    bal_last_move_s = 0.0;
    c_bal_ticks;
    c_bal_proposals;
    c_bal_moves;
    g_bal_spread;
    g_bal_last_move;
    cur_base = 0.0;
    cur_cycles0 = 0;
    cur_pid = -1;
  }
  |> fun t ->
  (* read-repair events belong in the cluster trace: stamp them with the
     cluster-wide clock at the moment of the repairing read *)
  Storage.set_on_repair t.storage (fun ~path ~replicas ->
      let time =
        Array.fold_left (fun acc n -> Float.max acc n.clock) 0.0 t.nodes
      in
      Obs.Trace.record t.tracer ~time
        (Obs.Trace.Storage_repair { path; replicas }));
  t

let node t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Cluster.node: no node %d" id)
  else t.nodes.(id)

let entry_of_pid t pid = Hashtbl.find_opt t.by_pid pid

let entry_of_rank t rank =
  match Hashtbl.find_opt t.ranks rank with
  | Some pid -> entry_of_pid t pid
  | None -> None

(* cluster-wide time: the farthest local clock (completion time of the
   whole system when quiescent) *)
let now t =
  Array.fold_left (fun acc n -> max acc n.clock) (Simnet.now t.net) t.nodes

(* precise local time of the process currently executing a quantum *)
let effective_now t (proc : Process.t) =
  t.cur_base
  +. Arch.seconds proc.Process.arch (proc.Process.cycles - t.cur_cycles0)

let charge_seconds (proc : Process.t) s =
  proc.Process.cycles <-
    proc.Process.cycles
    + int_of_float (s *. float_of_int proc.Process.arch.Arch.clock_mhz *. 1e6)

(* Best available simulated time for an event attributed to [e]: the
   precise mid-quantum time when [e]'s process is the one currently
   executing, its node's local clock otherwise (cascaded rollbacks,
   host-initiated failure/recovery). *)
let entry_time t (e : entry) =
  if e.proc.Process.pid = t.cur_pid then effective_now t e.proc
  else (node t e.node_id).clock

let entry_rank (e : entry) = match e.rank with Some r -> r | None -> -1

let emit t ~time ?node ?pid ?rank kind =
  Obs.Trace.record t.tracer ~time ?node ?pid ?rank kind

let emit_entry t (e : entry) kind =
  Obs.Trace.record t.tracer ~time:(entry_time t e) ~node:e.node_id
    ~pid:e.proc.Process.pid ~rank:(entry_rank e) kind

(* ------------------------------------------------------------------ *)
(* Incarnation epochs and fencing                                      *)
(* ------------------------------------------------------------------ *)

let rank_epoch t rank =
  match Hashtbl.find_opt t.epochs rank with Some e -> e | None -> 0

(* An entry is stale when a resurrection has bumped its rank's epoch past
   the one the entry carries: it is a zombie incarnation of a rank whose
   authority has moved on, and it must not be allowed to interact. *)
let is_stale t (e : entry) =
  match e.rank with
  | None -> false
  | Some r -> e.epoch < rank_epoch t r

(* Fence a stale incarnation at an interaction point: record the typed
   rejection and halt the zombie so exactly one copy of the rank keeps
   running.  Idempotent — a fenced process stays fenced. *)
let fence t (e : entry) ~what =
  let current = match e.rank with Some r -> rank_epoch t r | None -> 0 in
  Obs.Metrics.incr t.c_fence_rejections;
  emit_entry t e
    (Obs.Trace.Fenced { stale_epoch = e.epoch; current_epoch = current; what });
  (match e.proc.Process.status with
  | Process.Exited _ | Process.Trapped _ -> ()
  | Process.Running | Process.Migrating _ ->
    e.proc.Process.status <-
      Process.Trapped
        (Printf.sprintf "fenced: stale incarnation epoch %d (current %d)"
           e.epoch current));
  e.proc.Process.waiting <- false

(* Decisions on a distributed transaction: the [Dspec] transition
   (state and counter) plus the trace event naming it, stamped at [e]. *)
let abort_txn t (e : entry) txn reason =
  Dspec.abort t.dspec txn reason;
  emit_entry t e
    (Obs.Trace.Dspec_abort
       { txn = txn.Dspec.x_id; parts = Dspec.part_pids txn; reason })

let compensate_txn t (e : entry) txn ~discarded =
  Dspec.compensate t.dspec txn ~discarded;
  emit_entry t e
    (Obs.Trace.Dspec_compensate { txn = txn.Dspec.x_id; discarded })

(* ------------------------------------------------------------------ *)
(* Externs                                                             *)
(* ------------------------------------------------------------------ *)

(* The list stored under [key] in one of the (pid, uid)-keyed logs
   (dependents, object and file undo), created empty on first use. *)
let log_for tbl key =
  match Hashtbl.find_opt tbl key with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add tbl key l;
    l

(* Before [proc]'s first write to [key] inside its current speculation
   level, save the old contents ([old ()]) in that level's undo log, so
   a rollback can restore them ([cascade]). *)
let note_undo table (proc : Process.t) key ~old =
  match Spec.Engine.current_unique proc.Process.spec with
  | None -> ()
  | Some uid ->
    let log = log_for table (proc.Process.pid, uid) in
    if not (List.mem_assoc key !log) then log := (key, old ()) :: !log

(* Record that [receiver] consumed a message sent from inside [sender]'s
   speculation: the receiver joins that speculation. *)
let add_dependency t ~sender ~receiver =
  let deps = log_for t.deps sender in
  if not (List.mem receiver !deps) then deps := receiver :: !deps;
  (* if the joined level is an open distributed transaction's root
     region, the receiver is now a participant: record it at its
     CURRENT incarnation epoch — the prepare round revalidates that
     epoch, so a later resurrection voids this ack *)
  match
    Dspec.open_with_root t.dspec ~coord_pid:(fst sender)
      ~root_uid:(snd sender)
  with
  | None -> ()
  | Some txn when fst receiver <> fst sender -> (
    match entry_of_pid t (fst receiver) with
    | None -> ()
    | Some e ->
      Dspec.register txn ~pid:(fst receiver)
        ~rank:(entry_rank e)
        ~epoch:e.epoch)
  | Some _ -> ()

(* Roll a process back because a speculation it depends on failed.  If the
   joined level is gone (committed or already rolled back) fall back to the
   process's oldest open level; a receiver with no speculation to undo is
   unrecoverable and traps (it consumed state that never happened). *)
let rec force_rollback t ~pid ~uid ~code =
  match entry_of_pid t pid with
  | None -> ()
  | Some entry -> (
    match entry.proc.Process.status with
    | Process.Exited _ | Process.Trapped _ -> ()
    | Process.Running | Process.Migrating _ -> (
      let spec = entry.proc.Process.spec in
      let level =
        match Spec.Engine.level_of_unique spec uid with
        | Some l -> Some l
        | None -> if Spec.Engine.depth spec > 0 then Some 1 else None
      in
      match level with
      | None ->
        emit_entry t entry (Obs.Trace.Forced_rollback { level = -1 });
        entry.proc.Process.status <-
          Process.Trapped "unrecoverable speculative dependency"
      | Some level ->
        (* if the process was parked at a migration point, cancel it *)
        (match entry.proc.Process.status with
        | Process.Migrating _ -> Process.migration_failed entry.proc
        | Process.Running | Process.Exited _ | Process.Trapped _ -> ());
        (* do_rollback fires the engine's on_rollback hook, which cascades
           to this process's own dependents transitively *)
        Process.do_rollback entry.proc ~level ~code;
        entry.proc.Process.waiting <- false;
        emit_entry t entry (Obs.Trace.Forced_rollback { level })))

(* Undo everything that depended on the given (now rolled back or dead)
   speculation levels of [sender_pid]: discard their unconsumed messages,
   then roll back their consumers.  Returns how many queued messages the
   discard un-delivered — the mailbox-compensation count a distributed
   abort reports. *)
and cascade t ~sender_pid ~uids ~code =
  (* undo the rolled-back levels' external object and file writes
     (newest level first, so the oldest saved contents win) *)
  let undo table restore uid =
    match Hashtbl.find_opt table (sender_pid, uid) with
    | None -> ()
    | Some log ->
      Hashtbl.remove table (sender_pid, uid);
      List.iter (fun (k, old) -> restore k old) (List.rev !log)
  in
  List.iter
    (fun uid ->
      undo t.obj_undo
        (fun obj -> function
          | Some bytes -> Hashtbl.replace t.obj_store obj bytes
          | None -> Hashtbl.remove t.obj_store obj)
        uid;
      undo t.fs_undo
        (fun path -> function
          | Some data -> ignore (Storage.write t.storage path data)
          | None -> Storage.remove t.storage path)
        uid)
    uids;
  let discarded =
    List.fold_left
      (fun acc (e : entry) ->
        acc + Mpi.discard_speculative e.mailbox ~uids ~sender_pid)
      0 t.entries
  in
  List.iter
    (fun uid ->
      match Hashtbl.find_opt t.deps (sender_pid, uid) with
      | None -> ()
      | Some dependents ->
        let ds = !dependents in
        Hashtbl.remove t.deps (sender_pid, uid);
        List.iter
          (fun (rpid, ruid) ->
            if rpid <> sender_pid then
              force_rollback t ~pid:rpid ~uid:ruid ~code)
          ds)
    uids;
  discarded

(* Consume every moved notice now due on the sender's clock, rebinding
   its cached laddr bindings (oldest first, so the newest notice wins a
   double migration).  This is how "forwarding chains collapse as
   notices propagate": once a sender rebinds, its traffic goes direct
   and the forwarder stops relaying for it. *)
let consume_notices t (entry : entry) ~now =
  match entry.notices with
  | [] -> ()
  | notices ->
    let due, pending = List.partition (fun (at, _, _) -> at <= now) notices in
    if due <> [] then begin
      entry.notices <- pending;
      List.iter
        (fun (_, laddr, new_rank) ->
          match Hashtbl.find_opt entry.bindings laddr with
          | Some r when r = new_rank -> ()
          | Some _ | None ->
            Hashtbl.replace entry.bindings laddr new_rank;
            Obs.Metrics.incr t.c_svc_rebinds;
            emit_entry t entry
              (Obs.Trace.Recipient_moved { laddr; new_rank }))
        (List.rev due)
    end

(* The shared send path: enqueue [read_payload ()] to [dst_rank]'s
   mailbox under the fault plan.  [extra_delay_s] is the relay cost a
   forwarded send pays on top of the direct link time (one
   store-and-forward traversal per chain hop). *)
let send_payload t (entry : entry) (proc : Process.t) ~dst_rank ~tag
    ~read_payload ~extra_delay_s =
  match Hashtbl.find_opt t.rank_mailboxes dst_rank with
  | None -> Value.Vint (-1)
  | Some dst_mailbox ->
    let payload = read_payload () in
    let len = Array.length payload in
    let bytes = 8 * len in
    Simnet.record_message t.net bytes;
    let send_at = effective_now t proc in
    (* fault decision for this delivery: loss surfaces as link-level
       retransmission delay (never a silent drop — receivers poll),
       partitions delay to their heal time, jitter adds spread, and a
       duplicate enqueues a second copy *)
    let fault =
      Faults.on_message t.faults ~now:send_at ~src:entry.node_id
        ~dst:
          (match entry_of_rank t dst_rank with
          | Some dst -> dst.node_id
          | None -> -1)
    in
    let msg =
      {
        Mpi.msg_src_rank = entry_rank entry;
        msg_src_pid = proc.Process.pid;
        msg_tag = tag;
        msg_payload = payload;
        msg_deliver_at =
          send_at +. Simnet.message_seconds t.net bytes
          +. fault.Faults.d_delay_s +. extra_delay_s;
        msg_spec =
          (match Spec.Engine.current_unique proc.Process.spec with
          | Some uid -> Some (proc.Process.pid, uid)
          | None -> None);
        msg_src_epoch = entry.epoch;
      }
    in
    if fault.Faults.d_dropped then begin
      (* undeliverable (permanently partitioned link): the sender does
         not know — exactly the paper's fire-and-forget send *)
      emit_entry t entry (Obs.Trace.Msg_drop { dst = dst_rank; tag });
      Value.Vint 0
    end
    else begin
      Mpi.enqueue dst_mailbox msg;
      (* a message sent from inside an open transaction's root region
         recruits the rank's current holder as a participant, pinned at
         the epoch it has NOW (consumption may confirm it later via
         [add_dependency], but the wire obligation starts here) *)
      (match msg.Mpi.msg_spec with
      | None -> ()
      | Some (spid, suid) -> (
        match
          Dspec.open_with_root t.dspec ~coord_pid:spid ~root_uid:suid
        with
        | None -> ()
        | Some txn -> (
          match entry_of_rank t dst_rank with
          | Some dst when dst.proc.Process.pid <> spid ->
            Dspec.register txn ~pid:dst.proc.Process.pid ~rank:dst_rank
              ~epoch:dst.epoch
          | Some _ | None -> ())));
      if fault.Faults.d_duplicate then begin
        Mpi.enqueue dst_mailbox msg;
        emit_entry t entry (Obs.Trace.Msg_dup { dst = dst_rank; tag })
      end;
      emit_entry t entry
        (Obs.Trace.Msg_send { dst = dst_rank; tag; cells = len });
      (* affinity piggyback: a delivered send is one unit of attraction
         from this process toward the destination rank *)
      (match t.balance with
      | Some b -> Balance.note_comm b ~pid:proc.Process.pid ~peer_rank:dst_rank
      | None -> ());
      (* wake the current holder of the rank, if any *)
      (match entry_of_rank t dst_rank with
      | Some dst -> dst.proc.Process.waiting <- false
      | None -> ());
      Value.Vint 0
    end

(* The rank mailbox is shared with any zombie predecessor of the rank:
   purge traffic a stale incarnation enqueued before it was fenced, so
   the successor never consumes superseded state. *)
let purge_stale_traffic t (entry : entry) =
  if Hashtbl.length t.epochs > 0 then begin
    let stale_seen = ref (-1, -1) in
    let dropped =
      Mpi.discard_stale entry.mailbox ~stale:(fun m ->
          let r = m.Mpi.msg_src_rank in
          if r >= 0 && m.Mpi.msg_src_epoch < rank_epoch t r then begin
            stale_seen := m.Mpi.msg_src_epoch, rank_epoch t r;
            true
          end
          else false)
    in
    if dropped > 0 then begin
      let stale_epoch, current_epoch = !stale_seen in
      Obs.Metrics.incr ~by:dropped t.c_fence_rejections;
      emit_entry t entry
        (Obs.Trace.Fenced { stale_epoch; current_epoch; what = "stale_msg" })
    end
  end

(* A zombie incarnation's interaction is rejected and the process
   halted; [act] runs for a current one. *)
let unless_stale t (entry : entry) ~what act =
  if is_stale t entry then begin
    fence t entry ~what;
    Value.Vint msg_roll
  end
  else act ()

let write_cells heap ptr payload n =
  let idx, off = Vm.Interp.as_ptr ptr in
  for k = 0 to n - 1 do
    Heap.write heap idx (off + k) payload.(k)
  done

(* One receive for both externs: [src] is [Some rank] for a directed
   poll, [None] for the wildcard.  Parking records the polled source
   (-1 for the wildcard, which the scheduler wakes for any delivery
   with the tag), and so does a roll notice's trace event. *)
let recv t (entry : entry) (proc : Process.t) ~src ~tag ptr maxlen =
  unless_stale t entry ~what:"recv" @@ fun () ->
    purge_stale_traffic t entry;
    let now = effective_now t proc in
    let polled_src, polled =
      match src with
      | Some src_rank ->
        src_rank, Mpi.try_recv entry.mailbox ~now ~src_rank ~tag
      | None -> -1, Mpi.try_recv_any entry.mailbox ~now ~tag
    in
    match polled with
    | Mpi.Roll ->
      entry.parked_on <- None;
      emit_entry t entry (Obs.Trace.Msg_roll { src = polled_src });
      Value.Vint msg_roll
    | Mpi.None_yet ->
      proc.Process.waiting <- true;
      entry.parked_on <- Some (polled_src, tag);
      Value.Vint msg_none
    | Mpi.Received m ->
      entry.parked_on <- None;
      let n = min maxlen (Array.length m.Mpi.msg_payload) in
      (* a directed poll only matches its own (src, tag) bucket, so the
         message's source is the polled one there too *)
      emit_entry t entry
        (Obs.Trace.Msg_recv { src = m.Mpi.msg_src_rank; tag; cells = n });
      write_cells proc.Process.heap ptr m.Mpi.msg_payload n;
      (match m.Mpi.msg_spec with
      | Some (spid, uid) when spid <> proc.Process.pid ->
        (* join the sender's speculation *)
        let ruid =
          match Spec.Engine.current_unique proc.Process.spec with
          | Some u -> u
          | None -> -1
        in
        add_dependency t ~sender:(spid, uid)
          ~receiver:(proc.Process.pid, ruid)
      | Some _ | None -> ());
      Value.Vint n

let cluster_extern t (entry : entry) : Process.handler =
 fun proc name args ->
  let heap = proc.Process.heap in
  let read_cells ptr len =
    let idx, off = Vm.Interp.as_ptr ptr in
    Array.init len (fun k -> Heap.read heap idx (off + k))
  in
  match name, args with
  | ("msg_send" | "msg_send_int"), [ Value.Vint dst_rank; Value.Vint tag;
                                     (Value.Vptr _ as ptr); Value.Vint len ]
    ->
    if len < 0 then raise (Process.Extern_failure "msg_send: negative length");
    unless_stale t entry ~what:"send" @@ fun () ->
      send_payload t entry proc ~dst_rank ~tag
        ~read_payload:(fun () -> read_cells ptr len)
        ~extra_delay_s:0.0
  | "svc_send", [ Value.Vint laddr; Value.Vint tag; (Value.Vptr _ as ptr);
                  Value.Vint len ] -> (
    if len < 0 then raise (Process.Extern_failure "svc_send: negative length");
    (* the registry never weakens fencing: a zombie's sends are rejected
       exactly as rank-addressed ones are *)
    unless_stale t entry ~what:"send" @@ fun () ->
      let now_s = effective_now t proc in
      (* due moved notices first: rebind before resolving, so a sender
         that was told about the move goes direct from this call on *)
      consume_notices t entry ~now:now_s;
      let bound =
        match Hashtbl.find_opt entry.bindings laddr with
        | Some r -> Some r
        | None -> (
          match Registry.lookup t.registry laddr with
          | Some r ->
            Hashtbl.replace entry.bindings laddr r;
            Some r
          | None -> None)
      in
      match bound with
      | None -> Value.Vint (-1) (* unknown laddr: like an unknown rank *)
      | Some r -> (
        match Registry.resolve t.registry ~now:now_s r with
        | Registry.Direct final ->
          send_payload t entry proc ~dst_rank:final ~tag
            ~read_payload:(fun () -> read_cells ptr len)
            ~extra_delay_s:0.0
        | Registry.Forwarded { final; hops } ->
          (* relay through the vacated rank(s): the message pays one
             extra store-and-forward traversal per chain hop, and the
             forwarder owes the sender a Recipient_moved notice (due
             one link time from now — the notice travels back) *)
          let relay_s =
            float_of_int hops *. Simnet.message_seconds t.net (8 * len)
          in
          Obs.Metrics.incr t.c_svc_forwarded;
          emit_entry t entry
            (Obs.Trace.Msg_forward
               { laddr; from_rank = r; to_rank = final; hops });
          entry.notices <-
            (now_s +. Simnet.message_seconds t.net 32, laddr, final)
            :: entry.notices;
          send_payload t entry proc ~dst_rank:final ~tag
            ~read_payload:(fun () -> read_cells ptr len)
            ~extra_delay_s:relay_s
        | Registry.Expired rank ->
          (* the forwarder is gone: typed error, never a silent drop.
             Dropping the cached binding makes the retry re-resolve
             through the registry's authoritative table *)
          Hashtbl.remove entry.bindings laddr;
          Obs.Metrics.incr t.c_svc_expired;
          emit_entry t entry (Obs.Trace.Forward_expired { laddr; rank });
          Value.Vint msg_moved))
  | "svc_resolve", [ Value.Vint laddr ] -> (
    (* authoritative resolve: refreshes the caller's cached binding *)
    match Registry.lookup t.registry laddr with
    | Some r ->
      Hashtbl.replace entry.bindings laddr r;
      Value.Vint r
    | None -> Value.Vint (-1))
  | "lat_us", [ Value.Vint us ] ->
    Obs.Metrics.observe t.h_app_latency (float_of_int us /. 1e6);
    Value.Vunit
  | ("msg_try_recv" | "msg_try_recv_int"),
    [ Value.Vint src_rank; Value.Vint tag; (Value.Vptr _ as ptr);
      Value.Vint maxlen ] ->
    recv t entry proc ~src:(Some src_rank) ~tag ptr maxlen
  | "msg_try_recv_any", [ Value.Vint tag; (Value.Vptr _ as ptr);
                          Value.Vint maxlen ] ->
    (* wildcard receive: a mobile service cannot know its clients'
       ranks ahead of time (and a client cannot know which rank its
       reply comes from after the service moved), so it matches on tag
       alone *)
    recv t entry proc ~src:None ~tag ptr maxlen
  | "rank", [] ->
    Value.Vint (entry_rank entry)
  | "sim_now_us", [] ->
    Value.Vint (int_of_float (effective_now t proc *. 1e6))
  | "fs_write", [ (Value.Vptr _ as pathp); (Value.Vptr _ as ptr);
                  Value.Vint k ] ->
    let path = Heap.raw_to_string heap (fst (Vm.Interp.as_ptr pathp)) in
    note_undo t.fs_undo proc path ~old:(fun () ->
        Option.map fst (Storage.read t.storage path));
    let cells = read_cells ptr k in
    let data =
      String.init k (fun i ->
          match cells.(i) with
          | Value.Vint b -> Char.chr (b land 0xff)
          | _ -> raise (Process.Extern_failure "fs_write: non-byte cell"))
    in
    charge_seconds proc (Storage.write t.storage path data);
    Value.Vint k
  | "fs_read", [ (Value.Vptr _ as pathp); (Value.Vptr _ as ptr);
                 Value.Vint k ] -> (
    let path = Heap.raw_to_string heap (fst (Vm.Interp.as_ptr pathp)) in
    match Storage.read t.storage path with
    | None -> Value.Vint (-1)
    | Some (data, dt) ->
      charge_seconds proc dt;
      let n = min k (String.length data) in
      let payload =
        Array.init n (fun i -> Value.Vint (Char.code data.[i]))
      in
      write_cells heap ptr payload n;
      Value.Vint n)
  | "fs_size", [ (Value.Vptr _ as pathp) ] -> (
    let path = Heap.raw_to_string heap (fst (Vm.Interp.as_ptr pathp)) in
    match Storage.size t.storage path with
    | Some n -> Value.Vint n
    | None -> Value.Vint (-1))
  | "obj_read", [ Value.Vint obj; (Value.Vptr _ as ptr); Value.Vint k ] ->
    (* storage faults draw from the seeded fault-plan RNG, never the
       global Random state: reproducible under the cluster seed *)
    if Random.State.float (Faults.rng t.faults) 1.0 < t.obj_fail_prob then
      Value.Vint (-1)
    else begin
      match Hashtbl.find_opt t.obj_store obj with
      | None -> Value.Vint (-1)
      | Some data ->
        let n = min k (Bytes.length data) in
        let payload =
          Array.init n (fun i -> Value.Vint (Char.code (Bytes.get data i)))
        in
        write_cells heap ptr payload n;
        Value.Vint n
    end
  | "obj_write", [ Value.Vint obj; (Value.Vptr _ as ptr); Value.Vint k ] ->
    if Random.State.float (Faults.rng t.faults) 1.0 < t.obj_fail_prob then
      Value.Vint (-1)
    else begin
      note_undo t.obj_undo proc obj ~old:(fun () ->
          Option.map Bytes.copy (Hashtbl.find_opt t.obj_store obj));
      let cells = read_cells ptr k in
      let data =
        match Hashtbl.find_opt t.obj_store obj with
        | Some d when Bytes.length d >= k -> d
        | _ -> Bytes.make (max k 1) '\000'
      in
      Array.iteri
        (fun i v ->
          match v with
          | Value.Vint b -> Bytes.set data i (Char.chr (b land 0xff))
          | _ -> raise (Process.Extern_failure "obj_write: non-byte cell"))
        cells;
      Hashtbl.replace t.obj_store obj data;
      Value.Vint k
    end
  | "dspec_open", [] -> (
    unless_stale t entry ~what:"dspec" @@ fun () ->
      match Spec.Engine.current_unique proc.Process.spec with
      | None ->
        raise
          (Process.Extern_failure "dspec_open: no open speculation level")
      | Some uid ->
        let laddr =
          match entry.rank with
          | None -> -1
          | Some r -> (
            match Registry.laddr_of_rank t.registry r with
            | Some l -> l
            | None -> -1)
        in
        let txn =
          Dspec.open_txn t.dspec ~coord_pid:proc.Process.pid ~root_uid:uid
            ~coord_laddr:laddr
        in
        emit_entry t entry
          (Obs.Trace.Dspec_open { txn = txn.Dspec.x_id; uid });
        Value.Vint txn.Dspec.x_id)
  | "dspec_commit", [ Value.Vint txn_id ] -> (
    unless_stale t entry ~what:"dspec" @@ fun () ->
      match Dspec.find t.dspec txn_id with
      | None ->
        raise
          (Process.Extern_failure
             (Printf.sprintf "dspec_commit: unknown transaction %d" txn_id))
      | Some txn -> (
        if txn.Dspec.x_coord_pid <> proc.Process.pid then
          raise
            (Process.Extern_failure "dspec_commit: not the coordinator");
        match txn.Dspec.x_state with
        | Dspec.Committed -> Value.Vint 0
        | Dspec.Aborted _ -> Value.Vint msg_roll
        | Dspec.Open -> (
          (* prepare round: ask every participant to revalidate its
             recorded incarnation epoch.  The whole round is decided
             synchronously here (the simulation's atomicity unit is the
             quantum) and charged as one RTT per participant plus the
             decision broadcast. *)
          let parts = List.rev txn.Dspec.x_parts in
          let part_pids = Dspec.part_pids txn in
          Obs.Metrics.incr (Dspec.c_prepares t.dspec);
          emit_entry t entry
            (Obs.Trace.Dspec_prepare { txn = txn_id; parts = part_pids });
          charge_seconds proc
            (2.0
            *. Simnet.message_seconds t.net 64
            *. float_of_int (max 1 (List.length parts)));
          let abort reason =
            abort_txn t entry txn reason;
            (* the coordinator's own abort(level) follows in the program:
               its rollback cascade un-delivers the region's in-flight
               messages and rolls every joined participant back *)
            Value.Vint msg_roll
          in
          (* epoch fencing: an ack is valid only while the participant's
             rank still runs the incarnation that joined — a resurrected
             zombie can never speak for a dead one *)
          let reject (p : Dspec.part) ~current_epoch reason =
            Obs.Metrics.incr (Dspec.c_fence_rejections t.dspec);
            emit_entry t entry
              (Obs.Trace.Dspec_fence
                 { txn = txn_id; part_rank = p.Dspec.p_rank;
                   stale_epoch = p.Dspec.p_epoch; current_epoch });
            abort reason
          in
          let stale =
            List.find_opt
              (fun p ->
                p.Dspec.p_rank >= 0
                && p.Dspec.p_epoch < rank_epoch t p.Dspec.p_rank)
              parts
          in
          match stale with
          | Some p ->
            reject p ~current_epoch:(rank_epoch t p.Dspec.p_rank) "fence"
          | None ->
            (* a dead participant never acks (epochs only move on
               resurrection, so liveness is checked directly) *)
            if
              List.exists
                (fun p ->
                  match entry_of_pid t p.Dspec.p_pid with
                  | None -> true
                  | Some e -> (
                    match e.proc.Process.status with
                    | Process.Running | Process.Migrating _ -> false
                    | Process.Exited _ | Process.Trapped _ -> true))
                parts
            then abort "participant_dead"
            else begin
              Obs.Metrics.incr
                ~by:(List.length parts)
                (Dspec.c_prepare_acks t.dspec);
              (* all acks are in.  One fault draw per protocol round: a
                 participant may crash between its ack and the commit
                 receipt.  Its rank re-incarnates at a bumped epoch
                 (voiding the ack it gave — same fencing event as a
                 zombie), the live process adopts the new epoch, and the
                 coordinator must treat the round as in-doubt and abort;
                 the abort cascade performs the victim's rollback. *)
              if parts <> [] && Faults.crash_in_commit t.faults then begin
                let victim =
                  List.nth parts
                    (Random.State.int (Faults.rng t.faults)
                       (List.length parts))
                in
                if victim.Dspec.p_rank >= 0 then
                  Hashtbl.replace t.epochs victim.Dspec.p_rank
                    (rank_epoch t victim.Dspec.p_rank + 1);
                (match entry_of_pid t victim.Dspec.p_pid with
                | Some e -> (
                  match e.rank with
                  | Some r -> e.epoch <- rank_epoch t r
                  | None -> ())
                | None -> ());
                reject victim "crash_in_commit"
                  ~current_epoch:
                    (if victim.Dspec.p_rank >= 0 then
                       rank_epoch t victim.Dspec.p_rank
                     else victim.Dspec.p_epoch + 1)
              end
              else begin
                (* decision: COMMIT.  The region's in-flight messages
                   stop carrying a join obligation — a receiver that
                   consumes one later must not join a level the commit
                   is about to dissolve. *)
                Dspec.commit t.dspec txn;
                emit_entry t entry
                  (Obs.Trace.Dspec_commit { txn = txn_id; parts = part_pids });
                let uids = [ txn.Dspec.x_root_uid ] in
                List.iter
                  (fun (e : entry) ->
                    ignore
                      (Mpi.settle_speculative e.mailbox ~uids
                         ~sender_pid:proc.Process.pid))
                  t.entries;
                Value.Vint 0
              end
            end)))
  | "spec_pending", [] ->
    (* is this process's current level still joined to an undecided
       foreign region?  The participant's pre-commit barrier: committing
       while the coordinator's fate is open would durably absorb state a
       distributed abort may yet revoke.  The dependency dissolves when
       the coordinator's level commits durably and is force-rolled when
       it aborts — either way the spin ends. *)
    let pid = proc.Process.pid in
    let pending =
      match Spec.Engine.current_unique proc.Process.spec with
      | None -> false
      | Some uid ->
        Hashtbl.fold
          (fun _ dependents acc ->
            acc
            || List.exists
                 (fun (rpid, ruid) -> rpid = pid && ruid = uid)
                 !dependents)
          t.deps false
    in
    Value.Vint (if pending then 1 else 0)
  | _ when List.mem_assoc name extern_signatures_list ->
    raise
      (Process.Extern_failure
         (Printf.sprintf "extern %s: bad arguments" name))
  | _ -> raise (Process.Extern_failure ("unknown extern " ^ name))

let handler t entry = Extern.combine (cluster_extern t entry) Extern.base

(* ------------------------------------------------------------------ *)
(* Object store setup (Figure 1 example)                               *)
(* ------------------------------------------------------------------ *)

let set_object t obj data =
  Hashtbl.replace t.obj_store obj (Bytes.of_string data)

let get_object t obj =
  Option.map Bytes.to_string (Hashtbl.find_opt t.obj_store obj)

let set_object_failure_probability t p = t.obj_fail_prob <- p

(* ------------------------------------------------------------------ *)
(* Process placement                                                   *)
(* ------------------------------------------------------------------ *)

(* When a level commits into its parent, its dependents become dependents
   of the parent; committing into level 0 makes the values durable and the
   dependencies dissolve. *)
let rekey_dependencies t ~pid ~uid ~parent =
  (match Hashtbl.find_opt t.deps (pid, uid) with
  | None -> ()
  | Some dependents -> (
    Hashtbl.remove t.deps (pid, uid);
    match parent with
    | None -> ()
    | Some parent_uid ->
      List.iter
        (fun d -> add_dependency t ~sender:(pid, parent_uid) ~receiver:d)
        !dependents));
  (* object-store and file undo entries fold into the parent level; the
     parent's own (older) saved contents win, like heap checkpoint
     records *)
  let fold_undo : 'k 'v. (int * int, ('k * 'v) list ref) Hashtbl.t -> unit =
   fun table ->
    match Hashtbl.find_opt table (pid, uid) with
    | None -> ()
    | Some child -> (
      Hashtbl.remove table (pid, uid);
      match parent with
      | None -> () (* committed for good: the writes are durable *)
      | Some parent_uid -> (
        let key = pid, parent_uid in
        match Hashtbl.find_opt table key with
        | None -> Hashtbl.add table key child
        | Some plog ->
          List.iter
            (fun (k, old) ->
              if not (List.mem_assoc k !plog) then plog := (k, old) :: !plog)
            (List.rev !child)))
  in
  fold_undo t.obj_undo;
  fold_undo t.fs_undo

let rank_mailbox t rank =
  match Hashtbl.find_opt t.rank_mailboxes rank with
  | Some mbox -> mbox
  | None ->
    let mbox = Mpi.create_mailbox () in
    Hashtbl.add t.rank_mailboxes rank mbox;
    mbox

let mailbox_for t rank =
  match rank with
  | Some r -> rank_mailbox t r
  | None -> Mpi.create_mailbox ()

let register_entry t (entry : entry) =
  t.entries <- entry :: t.entries;
  (* the per-node index the scheduler iterates; an entry never changes
     node in place, so registration is the only insertion point *)
  let n = node t entry.node_id in
  n.residents <- entry :: n.residents;
  Hashtbl.replace t.by_pid entry.proc.Process.pid entry;
  let pid = entry.proc.Process.pid in
  Spec.Engine.set_hooks entry.proc.Process.spec
    ~on_enter:(fun ~uid ~depth ->
      emit_entry t entry (Obs.Trace.Spec_enter { uid; depth }))
    ~on_rollback:(fun uids ->
      emit_entry t entry (Obs.Trace.Spec_rollback { uids });
      (* a rolled level that roots a still-open distributed transaction
         takes the transaction down with it (the coordinator abandoned
         the region without running the protocol) *)
      List.iter
        (fun uid ->
          match Dspec.open_with_root t.dspec ~coord_pid:pid ~root_uid:uid with
          | None -> ()
          | Some txn -> abort_txn t entry txn "coordinator_rolled_back")
        uids;
      let discarded = cascade t ~sender_pid:pid ~uids ~code:msg_roll in
      (* mailbox compensation for a distributed abort is accounted once,
         against the transaction the rolled root belonged to *)
      List.iter
        (fun uid ->
          match
            Dspec.aborted_with_root t.dspec ~coord_pid:pid ~root_uid:uid
          with
          | None -> ()
          | Some txn -> compensate_txn t entry txn ~discarded)
        uids)
    ~on_commit:(fun ~uid ~parent ->
      emit_entry t entry
        (Obs.Trace.Spec_commit { uid; durable = parent = None });
      rekey_dependencies t ~pid ~uid ~parent);
  entry.proc.Process.on_gc <-
    Some
      (fun res ->
        emit_entry t entry
          (Obs.Trace.Gc
             {
               gc_kind =
                 (match res.Gc.kind with
                 | Gc.Minor -> Obs.Trace.Minor
                 | Gc.Major -> Obs.Trace.Major);
               live = res.Gc.live_blocks;
               collected = res.Gc.collected_blocks;
             }));
  match entry.rank with
  | Some r -> Hashtbl.replace t.ranks r entry.proc.Process.pid
  | None -> ()

let spawn ?rank ?(engine = `Interp) ?(seed = 7) t ~node_id program =
  let n = node t node_id in
  if not n.alive then invalid_arg "Cluster.spawn: node is down";
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  let proc = Process.create ~pid ~arch:n.node_arch ~seed program in
  let engine =
    match engine with
    | `Interp -> Interp_engine
    | `Masm ->
      Emu_engine
        (Emulator.create (Codegen.compile ~arch:n.node_arch program) proc)
  in
  let entry =
    {
      proc;
      engine;
      node_id;
      mailbox = mailbox_for t rank;
      rank;
      epoch = (match rank with Some r -> rank_epoch t r | None -> 0);
      start_at = (node t node_id).clock;
      parked_on = None;
      baseline = None;
      bindings = Hashtbl.create 4;
      notices = [];
    }
  in
  register_entry t entry;
  emit t ~time:entry.start_at ~node:node_id ~pid ~rank:(entry_rank entry)
    Obs.Trace.Spawn;
  pid

(* Register a ranked process as a SERVICE: allocate it a stable logical
   address (sequential from 1, so a deployment script can predict the
   laddrs its clients are compiled against).  From here on, migrating
   the process re-homes it under a fresh rank and the registry forwards
   — svc_send traffic keeps flowing while it moves. *)
let register_service t ~pid =
  match entry_of_pid t pid with
  | None -> invalid_arg (Printf.sprintf "Cluster.register_service: no pid %d" pid)
  | Some e -> (
    match e.rank with
    | None ->
      invalid_arg "Cluster.register_service: process has no rank"
    | Some r ->
      let laddr = Registry.register t.registry ~rank:r in
      emit_entry t e
        (Obs.Trace.Service_bind { laddr; new_rank = r; old_rank = -1 });
      laddr)

let registry t = t.registry

let service_rank t ~laddr = Registry.lookup t.registry laddr

(* A process that migrates (or is resurrected) gets a NEW pid and its
   speculation levels are re-installed with FRESH unique ids.  The
   distributed-speculation registries are keyed by (pid, uid), so every
   key and every dependent entry naming the old identity must be re-keyed
   to the successor, or dependents could escape a later cascade.
   [uid_map] pairs old level uids with new ones (both newest-first). *)
(* Deterministic table re-key.  A Hashtbl's fold order depends on its
   internals (insertion history, resize points), so merging COLLIDING
   remapped keys in fold order would make the merged lists' order — and
   hence later cascade order and traces — nondeterministic, breaking
   the byte-identical-trace guarantee the sched_equivalence suite
   relies on.  Entries are stably sorted by their ORIGINAL (pid, uid)
   key first; a collision appends the larger key's values behind the
   smaller's.  Exposed (and pure) so the regression suite can feed it
   deliberately colliding keys in permuted orders. *)
module Rekey = struct
  let merge ~remap entries =
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> compare a b) entries
    in
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun (k, v) ->
        let k' = remap k in
        match Hashtbl.find_opt tbl k' with
        | None ->
          Hashtbl.add tbl k' (ref v);
          order := k' :: !order
        | Some existing -> existing := !existing @ v)
      sorted;
    List.rev_map (fun k -> k, !(Hashtbl.find tbl k)) !order
end

let rekey_identity t ~old_pid ~new_pid ~uid_map =
  let map_uid uid =
    match List.assoc_opt uid uid_map with Some u -> u | None -> uid
  in
  let map_key (pid, uid) =
    if pid = old_pid then new_pid, map_uid uid else pid, uid
  in
  (* dependency edges: keys (senders) and list entries (receivers) *)
  let entries =
    Hashtbl.fold (fun k v acc -> (k, List.map map_key !v) :: acc) t.deps []
  in
  Hashtbl.reset t.deps;
  List.iter
    (fun (k', vs) -> Hashtbl.add t.deps k' (ref vs))
    (Rekey.merge ~remap:map_key entries);
  (* external-state undo logs: keys only (they name the writer) *)
  let rekey_undo : 'k 'v. (int * int, ('k * 'v) list ref) Hashtbl.t -> unit =
   fun table ->
    let entries = Hashtbl.fold (fun k v acc -> (k, !v) :: acc) table [] in
    Hashtbl.reset table;
    List.iter
      (fun (k', vs) -> Hashtbl.add table k' (ref vs))
      (Rekey.merge ~remap:map_key entries)
  in
  rekey_undo t.obj_undo;
  rekey_undo t.fs_undo;
  (* the policy engine tracks affinity by pid: carry the row across the
     identity change so a service's attraction survives its moves *)
  match t.balance with
  | Some b -> Balance.rekey b ~old_pid ~new_pid
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Migration protocols                                                 *)
(* ------------------------------------------------------------------ *)

(* Simulated pack cost: one memory access per heap cell on the source. *)
let pack_seconds (proc : Process.t) =
  let cells = Heap.used_cells proc.Process.heap in
  Arch.seconds proc.Process.arch
    (cells * proc.Process.arch.Arch.cycles Arch.Mem)

(* Simulated delta-encode cost: only the cells that travel are
   re-encoded — one header visit per surviving block (the diff walk)
   plus the shipped data cells. *)
let delta_pack_seconds (proc : Process.t) (st : Migrate.Wire.dstats) =
  let cells =
    (st.Migrate.Wire.ds_blocks * Heap.header_cells)
    + st.Migrate.Wire.ds_shipped_cells
  in
  Arch.seconds proc.Process.arch
    (cells * proc.Process.arch.Arch.cycles Arch.Mem)

(* Byte/outcome accounting for one shipped image (a network hop or a
   storage segment).  The hit-rate gauge only means something while the
   delta machinery is on. *)
let note_shipment t ~as_delta ~bytes =
  if as_delta then Obs.Metrics.incr ~by:bytes t.c_bytes_delta
  else Obs.Metrics.incr ~by:bytes t.c_bytes_full;
  if t.delta then begin
    if as_delta then Obs.Metrics.incr t.c_delta_hits
    else Obs.Metrics.incr t.c_delta_misses;
    let h = Obs.Metrics.count t.c_delta_hits in
    let m = Obs.Metrics.count t.c_delta_misses in
    if h + m > 0 then
      Obs.Metrics.set t.g_delta_hit_rate
        (float_of_int h /. float_of_int (h + m))
  end

(* Every storage/migration image is both itemised (the record list the
   benches read) and aggregated into the metrics registry. *)
let record_migration t mr =
  t.migrations <- mr :: t.migrations;
  (match mr.mr_kind with
  | `Checkpoint -> Obs.Metrics.incr t.c_checkpoints
  | `Migrate | `Suspend ->
    if mr.mr_ok then Obs.Metrics.incr t.c_migrations_ok
    else Obs.Metrics.incr t.c_migrations_failed);
  if mr.mr_cache_hit then Obs.Metrics.incr t.c_migration_cache_hits;
  Obs.Metrics.observe t.h_migrate_bytes (float_of_int mr.mr_bytes);
  Obs.Metrics.observe t.h_pack_s mr.mr_pack_s;
  Obs.Metrics.observe t.h_transfer_s mr.mr_transfer_s;
  Obs.Metrics.observe t.h_compile_s mr.mr_compile_s

(* One migration hop under the fault plan: per-hop timeout, bounded
   retry, exponential backoff ({!Config.default_retry}) — all in
   simulated time.  Every attempt (lost or not) puts the bytes on the
   wire; a lost attempt costs the hop timeout plus the backoff before
   the next transmission.  Either way the result carries what the hop
   cost: the link-level delay from initiation to the image landing (or
   to giving up), the attempts made and the backoff waited. *)
type hop = {
  hx_delay_s : float;
  hx_attempts : int;
  hx_backoff_s : float;
}

let transmit_hop t ~send_at ~src_node ~dst_node ~target_name ~bytes ~pid
    ~rank =
  let retry = Config.default_retry in
  let transfer_s = Simnet.transfer_seconds t.net bytes in
  let rec go attempt elapsed backoff_total =
    let hop delay_s =
      { hx_delay_s = delay_s; hx_attempts = attempt;
        hx_backoff_s = backoff_total }
    in
    Simnet.record_transfer t.net bytes;
    match
      Faults.on_hop t.faults ~now:(send_at +. elapsed) ~src:src_node
        ~dst:dst_node
    with
    | `Deliver -> Ok (hop (elapsed +. transfer_s))
    | (`Lost | `Partitioned) as fate ->
      let reason =
        match fate with `Lost -> "lost" | `Partitioned -> "partitioned"
      in
      if attempt >= retry.Config.max_attempts then
        Error (hop (elapsed +. retry.Config.hop_timeout_s), reason)
      else begin
        let backoff =
          retry.Config.backoff_base_s
          *. (retry.Config.backoff_factor ** float_of_int (attempt - 1))
        in
        Obs.Metrics.incr t.c_migrate_retries;
        Obs.Metrics.observe t.h_backoff_s backoff;
        emit t
          ~time:(send_at +. elapsed +. retry.Config.hop_timeout_s)
          ~node:src_node ~pid ~rank
          (Obs.Trace.Migrate_retry
             { target = target_name; attempt; backoff_s = backoff; reason });
        go (attempt + 1)
          (elapsed +. retry.Config.hop_timeout_s +. backoff)
          (backoff_total +. backoff)
      end
  in
  go 1 0.0 0.0

(* Deliver landed image bytes to a node's daemon idempotently, keyed by
   (image digest, hop id): a retransmitted or duplicated hop returns the
   original outcome instead of double-spawning.  The fault plan may make
   the image arrive twice — deliver it twice on purpose and let the
   dedup table absorb the second copy. *)
let deliver_hop t (target : node) ~bytes ~pid ~rank ~arrive_at =
  t.hop_seq <- t.hop_seq + 1;
  let key =
    Printf.sprintf "%s#%d"
      (Migrate.Server.delivery_key bytes)
      t.hop_seq
  in
  match Migrate.Server.receive ~key target.daemon bytes with
  | Error _ as e -> e
  | Ok (Migrate.Server.Duplicate _) ->
    (* impossible for a fresh hop id; keep the type checker honest *)
    Error "duplicate delivery of a fresh hop"
  | Ok (Migrate.Server.Fresh outcome) ->
    if Faults.dup_hop t.faults then begin
      (match Migrate.Server.receive ~key target.daemon bytes with
      | Ok (Migrate.Server.Duplicate _) -> ()
      | Ok (Migrate.Server.Fresh _) | Error _ ->
        invalid_arg "Cluster: duplicated hop was not deduplicated");
      emit t ~time:arrive_at ~node:target.node_id ~pid ~rank
        (Obs.Trace.Dup_delivery { target = target.node_name })
    end;
    Ok outcome

(* ------------------------------------------------------------------ *)
(* Shipment choice: full image or delta over a negotiated baseline      *)
(* ------------------------------------------------------------------ *)

type shipment = {
  sh_bytes : string;
  sh_delta : bool;
  sh_pack_s : float;
}

let full_shipment (entry : entry) packed =
  {
    sh_bytes = packed.Migrate.Pack.p_bytes;
    sh_delta = false;
    sh_pack_s = pack_seconds entry.proc;
  }

(* Choose the wire encoding for one hop: a delta over the process's
   PREVIOUS image (what its dirty set is tracked against — the baseline
   as it stood before this pack, not the image just packed) when delta
   shipping is on, the receiver still holds that baseline (the
   negotiation step), the architecture and FIR permit one, and it
   actually saves bytes; the full image otherwise. *)
let choose_shipment t ~baseline (entry : entry) (target : node) packed =
  let full = full_shipment entry packed in
  if not t.delta then full
  else
    match baseline with
    | None -> full
    | Some (digest, base_image) ->
      if not (Migrate.Server.has_baseline target.daemon digest) then full
      else (
        match
          Migrate.Pack.delta ~baseline:base_image ~base_digest:digest packed
        with
        | None -> full
        | Some (bytes, stats) ->
          if
            String.length bytes
            >= String.length packed.Migrate.Pack.p_bytes
          then full
          else
            {
              sh_bytes = bytes;
              sh_delta = true;
              sh_pack_s = delta_pack_seconds entry.proc stats;
            })

(* One complete shipment of a packed process to [target]: transmission
   under the fault plan, idempotent delivery, and — when a delta is
   rejected because the receiver no longer holds the baseline it had at
   negotiation time (evicted or restarted in between) — a transparent
   fallback re-transmission of the full image.  The result aggregates
   the cost of everything that travelled, fallback included. *)
type ship_result = {
  sr_outcome : Migrate.Server.request_outcome;
  sr_bytes : int; (* total bytes on the wire *)
  sr_pack_s : float;
  sr_transfer_s : float;
  sr_attempts : int;
  sr_backoff_s : float;
  sr_delta : bool; (* the ACCEPTED shipment was a delta *)
}

type ship_failure = {
  sf_kind : [ `Unreachable | `Rejected ];
  sf_attempts : int;
  sf_pack_s : float; (* pack work performed, fallback included *)
  sf_elapsed_s : float; (* time burned transmitting / timing out *)
  sf_reason : string;
}

let ship_shipment t (entry : entry) (src : node) (target : node) packed sh
    =
  let pid = entry.proc.Process.pid and rank = entry_rank entry in
  (* one leg: a shipment transmitted and, if it landed, delivered *)
  let leg (sh : shipment) ~send_at =
    let bytes = String.length sh.sh_bytes in
    note_shipment t ~as_delta:sh.sh_delta ~bytes;
    match
      transmit_hop t ~send_at ~src_node:src.node_id ~dst_node:target.node_id
        ~target_name:target.node_name ~bytes ~pid ~rank
    with
    | Error (hx, reason) -> sh, hx, Error (`Unreachable, reason)
    | Ok hx -> (
      match
        deliver_hop t target ~bytes:sh.sh_bytes ~pid ~rank
          ~arrive_at:(send_at +. hx.hx_delay_s)
      with
      | Ok outcome -> sh, hx, Ok outcome
      | Error msg -> sh, hx, Error (`Rejected, msg))
  in
  let first = leg sh ~send_at:(src.clock +. sh.sh_pack_s) in
  let legs =
    match first with
    | _, hx, Error (`Rejected, msg)
      when sh.sh_delta && Migrate.Server.is_unknown_baseline msg ->
      (* the negotiated baseline evaporated before delivery: pay for the
         wasted delta hop and re-ship the full image *)
      Obs.Metrics.incr t.c_delta_fallbacks;
      let full = full_shipment entry packed in
      [
        first;
        leg full
          ~send_at:
            (src.clock +. sh.sh_pack_s +. hx.hx_delay_s +. full.sh_pack_s);
      ]
    | _ -> [ first ]
  in
  (* the last leg decides; the costs add up over every leg *)
  let last_sh, _, fate = List.nth legs (List.length legs - 1) in
  let sum f = List.fold_left (fun acc (sh, hx, _) -> acc +. f sh hx) 0.0 legs in
  let pack_s = sum (fun sh _ -> sh.sh_pack_s)
  and delay_s = sum (fun _ hx -> hx.hx_delay_s)
  and attempts =
    List.fold_left (fun acc (_, hx, _) -> acc + hx.hx_attempts) 0 legs
  in
  match fate with
  | Ok outcome ->
    Ok
      {
        sr_outcome = outcome;
        sr_bytes =
          List.fold_left
            (fun acc (sh, _, _) -> acc + String.length sh.sh_bytes)
            0 legs;
        sr_pack_s = pack_s;
        sr_transfer_s = delay_s;
        sr_attempts = attempts;
        sr_backoff_s = sum (fun _ hx -> hx.hx_backoff_s);
        sr_delta = last_sh.sh_delta;
      }
  | Error (kind, reason) ->
    Error
      {
        sf_kind = kind;
        sf_attempts = attempts;
        sf_pack_s = pack_s;
        sf_elapsed_s = delay_s;
        sf_reason = reason;
      }

(* Every pack rebases the process's dirty tracking: record the fresh
   image as the entry's baseline (success or failure downstream) and
   retain it on the node's own daemon, so a later hop ARRIVING here can
   be encoded as a delta over it. *)
let rebase_baseline (n : node) (entry : entry)
    (packed : Migrate.Pack.packed) =
  let digest = packed.Migrate.Pack.p_digest in
  entry.baseline <- Some (digest, packed.Migrate.Pack.p_image);
  ignore
    (Migrate.Server.remember_baseline ~digest n.daemon
       packed.Migrate.Pack.p_image);
  digest

(* Where a migrating process's successor lives in rank space.  An
   ordinary process keeps its rank, mailbox and epoch — rank-addressed
   traffic follows it invisibly, exactly as before.  A REGISTERED
   service vacates its rank: the successor gets a fresh rank (with a
   fresh shared mailbox and that rank's epoch), and [complete_rehome]
   below rebinds the laddr and leaves a forwarder behind.  Fresh ranks
   make the old binding observably stale, which is what exercises the
   forward/notify/rebind protocol. *)
let successor_home t (entry : entry) =
  match entry.rank with
  | Some old_rank when Registry.laddr_of_rank t.registry old_rank <> None ->
    let r = t.next_dyn_rank in
    t.next_dyn_rank <- t.next_dyn_rank + 1;
    Some r, rank_mailbox t r, rank_epoch t r
  | Some _ | None -> entry.rank, entry.mailbox, entry.epoch

(* The distributed-transaction context that travels with a packed
   coordinator (wire v9).  Stable level uids are engine-local, so the
   root is named by its position in the speculation snapshot (oldest
   first); participants travel as (rank, epoch) pins.  Only the oldest
   open transaction ships — the externs drive one protocol round at a
   time. *)
let dspec_ctx_of t (entry : entry) =
  match
    Dspec.open_coordinated_by t.dspec ~pid:entry.proc.Process.pid
  with
  | [] -> None
  | txn :: _ -> (
    let oldest_first =
      List.rev (Spec.Engine.unique_ids entry.proc.Process.spec)
    in
    let rec index i = function
      | [] -> None
      | u :: _ when u = txn.Dspec.x_root_uid -> Some i
      | _ :: tl -> index (i + 1) tl
    in
    match index 0 oldest_first with
    | None -> None
    | Some x_root ->
      Some
        {
          Migrate.Wire.x_txn = txn.Dspec.x_id;
          x_root;
          x_coord_laddr = txn.Dspec.x_coord_laddr;
          x_parts =
            List.rev_map
              (fun p -> p.Dspec.p_rank, p.Dspec.p_epoch)
              txn.Dspec.x_parts;
        })

(* After a re-homed service's successor is registered: rebind the laddr
   (installing the bounded-TTL forwarder on the vacated rank), then
   relay the in-flight traffic already queued there — each message pays
   one extra store-and-forward traversal, and its sender is owed a
   Recipient_moved notice so it rebinds instead of relaying forever. *)
let complete_rehome t (old_entry : entry) (new_entry : entry) =
  match old_entry.rank, new_entry.rank with
  | Some old_rank, Some new_rank when old_rank <> new_rank -> (
    match Registry.laddr_of_rank t.registry old_rank with
    | None -> ()
    | Some laddr ->
      let at = new_entry.start_at in
      Registry.rebind t.registry ~laddr ~new_rank ~now:at
        ~ttl:t.forward_ttl_s;
      Obs.Metrics.incr t.c_svc_moves;
      let emit_new =
        emit t ~time:at ~node:new_entry.node_id
          ~pid:new_entry.proc.Process.pid ~rank:new_rank
      in
      emit_new (Obs.Trace.Service_bind { laddr; new_rank; old_rank });
      let new_mbox = new_entry.mailbox in
      List.iter
        (fun (m : Mpi.message) ->
          let bytes = 8 * Array.length m.Mpi.msg_payload in
          let hop = Simnet.message_seconds t.net bytes in
          (* the relay leaves the old node no earlier than the message
             would have arrived there (or the successor exists) *)
          Mpi.enqueue new_mbox
            { m with
              Mpi.msg_deliver_at = max m.Mpi.msg_deliver_at at +. hop };
          Obs.Metrics.incr t.c_svc_forwarded;
          emit_new
            (Obs.Trace.Msg_forward
               { laddr; from_rank = old_rank; to_rank = new_rank; hops = 1 });
          match entry_of_rank t m.Mpi.msg_src_rank with
          | Some sender when not (Process.is_terminated sender.proc) ->
            sender.notices <- (at +. hop, laddr, new_rank) :: sender.notices
          | Some _ | None -> ())
        (Mpi.take_all (rank_mailbox t old_rank)))
  | _ -> ()

(* The unified move commit: everything that happens after a shipment is
   accepted, shared by every initiator of [move] — successor entry
   creation (an ordinary process keeps rank/mailbox/epoch; a registered
   service is re-homed under a fresh rank), source termination (the
   [terminate] closure is the only initiator-specific step),
   registration, registry rebind + forwarder install + old-mailbox
   drain ([complete_rehome]), identity rekey, busy-time accounting, the
   migration record and the Cache_hit/miss + Migrate_done trace events.
   Because the drain lives here, no initiator can strand stamped
   messages at a vacated rank. *)
let install_successor t (entry : entry) (src : node) (target : node) packed
    ~baseline_digest (sr : ship_result) ~terminate =
  let proc = entry.proc in
  let outcome = sr.sr_outcome in
  let pack_s = sr.sr_pack_s and transfer_s = sr.sr_transfer_s in
  let old_uids = Spec.Engine.unique_ids proc.Process.spec in
  let compile_s =
    Arch.seconds target.node_arch
      outcome.Migrate.Server.o_costs.Migrate.Pack.u_compile_cycles
  in
  (* keep pids cluster-unique *)
  let new_pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  let new_proc =
    { outcome.Migrate.Server.o_process with Process.pid = new_pid }
  in
  let new_rank, new_mailbox, new_epoch = successor_home t entry in
  let new_entry =
    {
      proc = new_proc;
      engine =
        Emu_engine
          (Emulator.create ~compiled:outcome.Migrate.Server.o_compiled
             outcome.Migrate.Server.o_masm new_proc);
      node_id = target.node_id;
      mailbox = new_mailbox;
      rank = new_rank;
      (* migration is the SAME incarnation on a new node (a fresh
         service rank starts at that rank's epoch) *)
      epoch = new_epoch;
      start_at =
        max target.clock (src.clock +. pack_s +. transfer_s) +. compile_s;
      parked_on = None;
      (* the successor's heap was restored from (and its dirty set is
         empty relative to) the image just shipped *)
      baseline = Some (baseline_digest, packed.Migrate.Pack.p_image);
      bindings = entry.bindings;
      notices = entry.notices;
    }
  in
  terminate ();
  register_entry t new_entry;
  complete_rehome t entry new_entry;
  rekey_identity t ~old_pid:proc.Process.pid ~new_pid
    ~uid_map:
      (List.combine old_uids (Spec.Engine.unique_ids new_proc.Process.spec));
  (* a mid-transaction move re-registers the process with the
     transaction table under its successor identity: where it
     coordinates, the root level is translated; where it participates,
     its recorded rank and epoch are refreshed (a deliberate re-home is
     not a zombie — its prepare-ack stays valid) *)
  Dspec.rebind_pid t.dspec ~old_pid:proc.Process.pid ~new_pid
    ~uid_map:
      (List.combine old_uids (Spec.Engine.unique_ids new_proc.Process.spec))
    ~rank:(entry_rank new_entry)
    ~epoch:new_entry.epoch;
  src.busy_seconds <- src.busy_seconds +. pack_s;
  target.busy_seconds <- target.busy_seconds +. compile_s;
  let cache_hit = outcome.Migrate.Server.o_costs.Migrate.Pack.u_cache_hit in
  record_migration t
    {
      mr_kind = `Migrate;
      mr_pid = proc.Process.pid;
      mr_bytes = sr.sr_bytes;
      mr_pack_s = pack_s;
      mr_transfer_s = transfer_s;
      mr_compile_s = compile_s;
      mr_cache_hit = cache_hit;
      mr_delta = sr.sr_delta;
      mr_ok = true;
    };
  let emit_new time =
    emit t ~time ~node:target.node_id ~pid:new_pid ~rank:(entry_rank new_entry)
  in
  emit_new (max target.clock (src.clock +. pack_s +. transfer_s))
    (if cache_hit then Obs.Trace.Cache_hit else Obs.Trace.Cache_miss);
  emit_new new_entry.start_at
    (Obs.Trace.Migrate_done
       { ok = true; cache_hit; bytes = sr.sr_bytes; pack_s; transfer_s;
         compile_s });
  new_entry, cache_hit

(* A hop that never left: the target is down, is the process's own
   node, or does not parse.  The attempt and its failure are traced, and
   the process resumes where it was. *)
let refuse_hop t (entry : entry) ~target =
  emit_entry t entry (Obs.Trace.Migrate_start { target; bytes = 0 });
  emit_entry t entry
    (Obs.Trace.Migrate_done
       { ok = false; cache_hit = false; bytes = 0; pack_s = 0.0;
         transfer_s = 0.0; compile_s = 0.0 });
  Process.migration_failed entry.proc

type packer =
  ?with_binary:bool ->
  ?epoch:int ->
  ?dspec:Migrate.Wire.dspec_ctx ->
  Process.t ->
  Migrate.Pack.packed

(* The one ship-and-install path behind both live-migration initiators
   (the program's [migrate] and a [Move.Running] request): pack, rebase
   the baseline, choose full or delta, ship under the retry policy, then
   either commit through [install_successor] or record the failed hop.
   The initiators differ only in [pack] (at a migration point or
   mid-execution), [terminate] (how the source retires) and [charge]: a
   process that asked to migrate pays for the pack and the timed-out
   attempts before the failure is traced (the charge moves the event's
   timestamp), while a host-initiated move is invisible to its subject. *)
let ship_and_install t (entry : entry) (target : node) ~(pack : packer)
    ~terminate ~charge =
  let src = node t entry.node_id in
  let prev_baseline = entry.baseline in
  let packed =
    pack
      ~with_binary:(t.trusted && Arch.equal src.node_arch target.node_arch)
      ~epoch:entry.epoch ?dspec:(dspec_ctx_of t entry) entry.proc
  in
  let baseline_digest = rebase_baseline src entry packed in
  let sh = choose_shipment t ~baseline:prev_baseline entry target packed in
  let bytes = String.length sh.sh_bytes in
  emit_entry t entry
    (Obs.Trace.Migrate_start { target = target.node_name; bytes });
  match ship_shipment t entry src target packed sh with
  | Ok sr ->
    let new_entry, cache_hit =
      install_successor t entry src target packed ~baseline_digest sr
        ~terminate
    in
    Ok (new_entry, cache_hit, sr)
  | Error sf ->
    if charge then charge_seconds entry.proc (sf.sf_pack_s +. sf.sf_elapsed_s);
    record_migration t
      {
        mr_kind = `Migrate;
        mr_pid = entry.proc.Process.pid;
        mr_bytes = bytes;
        mr_pack_s = sf.sf_pack_s;
        mr_transfer_s = 0.0;
        mr_compile_s = 0.0;
        mr_cache_hit = false;
        mr_delta = false;
        mr_ok = false;
      };
    emit_entry t entry
      (Obs.Trace.Migrate_done
         { ok = false; cache_hit = false; bytes; pack_s = sf.sf_pack_s;
           transfer_s = 0.0; compile_s = 0.0 });
    Error sf

(* The program's [migrate("mcc://host")].  On failure — the target
   stayed unreachable or its daemon rejected the image — the process
   resumes locally instead of wedging. *)
let handle_migrate t (entry : entry) host =
  if is_stale t entry then fence t entry ~what:"migrate"
  else
    match Array.find_opt (fun n -> String.equal n.node_name host) t.nodes with
    | Some target when target.alive && target.node_id <> entry.node_id -> (
      match
        ship_and_install t entry target ~pack:Migrate.Pack.pack_request
          ~charge:true ~terminate:(fun () ->
            Process.migration_completed entry.proc)
      with
      | Ok _ -> ()
      | Error _ -> Process.migration_failed entry.proc)
    | Some _ | None -> refuse_hop t entry ~target:host

(* Host-initiated live migration of a RUNNING process (the [Move.Running]
   subject): validate, then pack mid-execution and ship.  Failure is
   invisible to the subject — it keeps running where it was. *)
let move_running t ~pid ~node_id =
  match entry_of_pid t pid with
  | None -> Error (No_such_process pid)
  | Some entry -> (
    match entry.proc.Process.status with
    | Process.Exited _ | Process.Trapped _ | Process.Migrating _ ->
      Error Not_running
    | Process.Running -> (
      let src = node t entry.node_id in
      let target = node t node_id in
      if is_stale t entry then begin
        (* only a ranked entry can be stale *)
        let rank = entry_rank entry in
        fence t entry ~what:"migrate";
        Error
          (Fenced { rank; stale = entry.epoch; current = rank_epoch t rank })
      end
      else if not target.alive then Error Target_down
      else if target.node_id = src.node_id then Error Already_there
      else
        match
          ship_and_install t entry target ~pack:Migrate.Pack.pack_running
            ~charge:false ~terminate:(fun () ->
              entry.proc.Process.status <- Process.Exited 0)
        with
        | Error sf ->
          Error
            (match sf.sf_kind with
            | `Unreachable ->
              Unreachable { attempts = sf.sf_attempts; reason = sf.sf_reason }
            | `Rejected -> Rejected sf.sf_reason)
        | Ok (new_entry, cache_hit, sr) ->
          Ok
            {
              rep_pid = new_entry.proc.Process.pid;
              rep_attempts = sr.sr_attempts;
              rep_retries = sr.sr_attempts - 1;
              rep_backoff_s = sr.sr_backoff_s;
              rep_elapsed_s = new_entry.start_at -. src.clock;
              rep_bytes = sr.sr_bytes;
              rep_cache_hit = cache_hit;
              rep_delta = sr.sr_delta;
            }))

let handle_to_storage t (entry : entry) path ~kind =
  let proc = entry.proc in
  if is_stale t entry then fence t entry ~what:"checkpoint"
  else begin
  (* images on the cluster's own reliable store carry the binary payload:
     "the checkpoints are formatted as executable files and the
     resurrection of processes is done by executing the saved checkpoint"
     (paper, Section 2) *)
  let packed =
    Migrate.Pack.pack_request ~with_binary:true ~epoch:entry.epoch
      ?dspec:(dspec_ctx_of t entry) proc
  in
  let prev_baseline = entry.baseline in
  let new_digest =
    rebase_baseline (node t entry.node_id) entry packed
  in
  (* A CHECKPOINT may extend the path's existing chain with a delta
     segment, but only when the chain's last image is exactly what this
     process's dirty set was tracked against (its previous pack) — the
     chain is rewritten in full otherwise, and after [max_chain_len]
     segments (resurrection replays every segment).  SUSPEND images stay
     full: they are the directly-executable single files of Section 2. *)
  let segment =
    if kind <> `Checkpoint || not t.delta then None
    else
      match Hashtbl.find_opt t.ckpt_chains path, prev_baseline with
      | Some cc, Some (d, img)
        when String.equal cc.cc_digest d && cc.cc_len < max_chain_len -> (
        match
          Migrate.Pack.delta ~baseline:img ~base_digest:d packed
        with
        | Some (seg_bytes, stats)
          when String.length seg_bytes
               < String.length packed.Migrate.Pack.p_bytes ->
          Some (cc, seg_bytes, stats)
        | Some _ | None -> None)
      | (Some _ | None), _ -> None
  in
  let stored_path, bytes, pack_s, write_s, as_delta =
    match segment with
    | Some (cc, seg_bytes, stats) ->
      cc.cc_len <- cc.cc_len + 1;
      cc.cc_digest <- new_digest;
      cc.cc_image <- packed.Migrate.Pack.p_image;
      let seg_path = Printf.sprintf "%s.d%d" path cc.cc_len in
      let write_s = Storage.write t.storage seg_path seg_bytes in
      ( seg_path,
        String.length seg_bytes,
        delta_pack_seconds proc stats,
        write_s,
        true )
    | None ->
      (* full (re)write: replace the base image and drop any now-stale
         delta segments so a resurrection can never replay them *)
      (match Hashtbl.find_opt t.ckpt_chains path with
      | Some cc ->
        for k = 1 to cc.cc_len do
          Storage.remove t.storage (Printf.sprintf "%s.d%d" path k)
        done
      | None -> ());
      Hashtbl.replace t.ckpt_chains path
        {
          cc_digest = new_digest;
          cc_image = packed.Migrate.Pack.p_image;
          cc_len = 0;
        };
      let write_s =
        Storage.write t.storage path packed.Migrate.Pack.p_bytes
      in
      ( path,
        String.length packed.Migrate.Pack.p_bytes,
        pack_seconds proc,
        write_s,
        false )
  in
  note_shipment t ~as_delta ~bytes;
  record_migration t
    {
      mr_kind = kind;
      mr_pid = proc.Process.pid;
      mr_bytes = bytes;
      mr_pack_s = pack_s;
      mr_transfer_s = write_s;
      mr_compile_s = 0.0;
      mr_cache_hit = false;
      mr_delta = as_delta;
      mr_ok = true;
    };
  (match kind with
  | `Checkpoint ->
    (* the process pays for its checkpoint and keeps running *)
    charge_seconds proc (pack_s +. write_s);
    Process.migration_failed proc (* "failure" = continue locally *)
  | `Suspend | `Migrate ->
    charge_seconds proc pack_s;
    Process.migration_completed proc);
  emit_entry t entry (Obs.Trace.Checkpoint { path = stored_path; bytes })
  end

let handle_migration t (entry : entry) =
  match entry.proc.Process.status with
  | Process.Migrating req -> (
    match Migrate.Protocol.parse req.Process.m_target with
    | Migrate.Protocol.Migrate_to host -> handle_migrate t entry host
    | Migrate.Protocol.Suspend_to path ->
      handle_to_storage t entry path ~kind:`Suspend
    | Migrate.Protocol.Checkpoint_to path ->
      handle_to_storage t entry path ~kind:`Checkpoint
    | exception Migrate.Protocol.Bad_target _ ->
      refuse_hop t entry ~target:req.Process.m_target)
  | Process.Running | Process.Exited _ | Process.Trapped _ -> ()

(* ------------------------------------------------------------------ *)
(* Failure and resurrection                                            *)
(* ------------------------------------------------------------------ *)

(* A dead coordinator can never decide its open transactions: abort them
   (participants are already rolled back by the victim's cascade, whose
   discard count doubles as the compensation figure). *)
let abort_dead_coordinator_txns t (e : entry) ~discarded =
  List.iter
    (fun txn ->
      abort_txn t e txn "coordinator_dead";
      compensate_txn t e txn ~discarded)
    (Dspec.open_coordinated_by t.dspec ~pid:e.proc.Process.pid)

(* Retire one incarnation of a process: [halt] stops it (a node
   failure traps it, a superseded incarnation is fenced), everyone who
   consumed its speculative messages rolls back with it, the
   transactions it coordinated abort, and survivors polling its rank
   observe MSG_ROLL. *)
let retire_incarnation t (e : entry) ~halt =
  let uids = Spec.Engine.unique_ids e.proc.Process.spec in
  halt e;
  let discarded =
    cascade t ~sender_pid:e.proc.Process.pid ~uids ~code:msg_roll
  in
  abort_dead_coordinator_txns t e ~discarded;
  match e.rank with
  | None -> ()
  | Some dead_rank ->
    List.iter
      (fun (other : entry) ->
        if
          other.proc.Process.pid <> e.proc.Process.pid
          && not (Process.is_terminated other.proc)
        then begin
          Mpi.post_roll_notice other.mailbox ~src_rank:dead_rank;
          (* only wake a survivor the notice is relevant to: one parked
             on the dead rank, parked wildcard (src < 0 — a roll notice
             from anyone is its awaited event), or parked without a
             recorded source.  Waking a process parked on an UNRELATED
             rank would violate the parked_on contract — the scheduler
             would spin it on a poll that still returns nothing *)
          match other.parked_on with
          | Some (src, _) when src = dead_rank || src < 0 ->
            other.proc.Process.waiting <- false
          | Some _ -> ()
          | None -> other.proc.Process.waiting <- false
        end)
      t.entries

let fail_node t node_id =
  let n = node t node_id in
  if n.alive then begin
    n.alive <- false;
    Obs.Metrics.incr t.c_node_failures;
    (* node-local checkpoint replicas die with the node *)
    Storage.fail_node t.storage node_id;
    emit t ~time:n.clock ~node:node_id Obs.Trace.Node_fail;
    let victims =
      List.filter
        (fun (e : entry) ->
          e.node_id = node_id && not (Process.is_terminated e.proc))
        t.entries
    in
    List.iter
      (retire_incarnation t ~halt:(fun e ->
           e.proc.Process.status <- Process.Trapped "node failure"))
      victims
  end

(* Logically terminate a (possibly still executing) old incarnation of
   [rank] before its successor is created, on a node that may in fact
   still be alive (a false suspicion).  The epoch bump must already have
   happened, making the old holder stale: it is fenced so it never runs
   another instruction, and survivors that already consumed its traffic
   roll back to their last durable point and re-send to the successor. *)
let kill_incarnation t ~rank =
  match entry_of_rank t rank with
  | Some e when not (Process.is_terminated e.proc) ->
    retire_incarnation t e ~halt:(fun e -> fence t e ~what:"schedule")
  | Some _ | None -> ()

(* Resurrect a checkpointed process from shared storage on a live node
   (the paper's resurrection daemon executing the saved checkpoint).
   Internal: callers go through [move] with an [Image] subject (or the
   [resurrect] convenience wrapper over it). *)
let do_resurrect ?rank ?(seed = 11) t ~node_id ~path =
  let n = node t node_id in
  let failed msg =
    emit t ~time:(now t) ~node:node_id
      (Obs.Trace.Resurrect { path; ok = false });
    Error msg
  in
  if not n.alive then failed "resurrection node is down"
  else
    match Storage.read t.storage path with
    | None -> failed ("no checkpoint " ^ path)
    | Some (bytes, read_s) -> (
      (* replay the checkpoint chain: the base image at [path], then
         every [path.dN] delta segment in order, each digest-verified
         against its reconstruction *)
      let rec replay image total_bytes total_read_s k =
        match
          Storage.read t.storage (Printf.sprintf "%s.d%d" path k)
        with
        | None -> Ok (image, total_bytes, total_read_s)
        | Some (seg_bytes, seg_read_s) -> (
          match Migrate.Wire.decode_packet seg_bytes with
          | Migrate.Wire.Delta d -> (
            match Migrate.Wire.apply_delta ~baseline:image d with
            | image' ->
              replay image'
                (total_bytes + String.length seg_bytes)
                (total_read_s +. seg_read_s) (k + 1)
            | exception Migrate.Wire.Corrupt msg ->
              Error (Printf.sprintf "checkpoint segment %d: %s" k msg))
          | Migrate.Wire.Full _ ->
            Error
              (Printf.sprintf
                 "checkpoint segment %d is not a delta image" k)
          | exception Migrate.Wire.Corrupt msg ->
            Error (Printf.sprintf "checkpoint segment %d: %s" k msg))
      in
      let replayed =
        match Migrate.Wire.decode bytes with
        | image -> replay image (String.length bytes) read_s 1
        | exception Migrate.Wire.Corrupt msg ->
          Error ("corrupt image: " ^ msg)
      in
      match replayed with
      | Error msg -> failed msg
      | Ok (image, total_bytes, read_s) -> (
      let bytes_len = total_bytes in
      (* executing a saved checkpoint from the cluster's own store is
         within the trust domain: same-architecture resurrections take
         the binary fast path (link only); cross-architecture ones
         recompile from the FIR *)
      match
        Migrate.Pack.unpack_image ~seed ~trusted:true ~extern_signatures
          ?cache:(Migrate.Server.cache n.daemon) ~arch:n.node_arch
          ~bytes_len image
      with
      | Error msg -> failed msg
      | Ok (proc0, masm, compiled, costs) ->
        (* bump the rank's incarnation epoch FIRST, so the old holder (a
           zombie under false suspicion) is stale before it could ever be
           scheduled again — resurrection never yields two live copies *)
        let epoch =
          match rank with
          | None -> 0
          | Some r ->
            let e' = rank_epoch t r + 1 in
            Hashtbl.replace t.epochs r e';
            kill_incarnation t ~rank:r;
            e'
        in
        let pid = t.next_pid in
        t.next_pid <- t.next_pid + 1;
        let proc = { proc0 with Process.pid } in
        let compile_s =
          Arch.seconds n.node_arch costs.Migrate.Pack.u_compile_cycles
        in
        let cache_hit = costs.Migrate.Pack.u_cache_hit in
        let entry =
          {
            proc;
            engine = Emu_engine (Emulator.create ~compiled masm proc);
            node_id;
            mailbox = mailbox_for t rank;
            rank;
            epoch;
            start_at = now t +. read_s +. compile_s;
            parked_on = None;
            bindings = Hashtbl.create 4;
            notices = [];
            (* the resumed heap is byte-identical to the replayed image
               (and its dirty set is empty), so that image is a valid
               pack baseline; retain it on the daemon so the first hop
               away can already be a delta *)
            baseline =
              Some
                ( Migrate.Server.remember_baseline n.daemon image,
                  image );
          }
        in
        register_entry t entry;
        (* the image's transaction context (wire v9): if the transaction
           is somehow still open — the coordinator was moved as an image
           without a node failure having aborted it — re-register the
           resumed process as its coordinator, translating the root
           level through the snapshot position the context names *)
        (match image.Migrate.Wire.i_dspec with
        | None -> ()
        | Some ctx -> (
          match Dspec.find t.dspec ctx.Migrate.Wire.x_txn with
          | Some txn when txn.Dspec.x_state = Dspec.Open ->
            Dspec.adopt txn ~coord_pid:pid
              ~root_uid:
                (List.nth_opt
                   (List.rev (Spec.Engine.unique_ids proc.Process.spec))
                   ctx.Migrate.Wire.x_root)
          | Some _ | None -> ()));
        n.busy_seconds <- n.busy_seconds +. compile_s;
        Obs.Metrics.incr t.c_resurrections;
        (* a resurrection is an inbound migration from the store: the
           saved image travels through the same unpack/code-cache path
           as a live migration, so it shows up in the trace as one *)
        let emit_at time =
          emit t ~time ~node:node_id ~pid ~rank:(entry_rank entry)
        in
        emit_at (now t)
          (Obs.Trace.Migrate_start
             { target = n.node_name; bytes = bytes_len });
        emit_at entry.start_at
          (if cache_hit then Obs.Trace.Cache_hit else Obs.Trace.Cache_miss);
        emit_at entry.start_at
          (Obs.Trace.Migrate_done
             {
               ok = true;
               cache_hit;
               bytes = bytes_len;
               pack_s = 0.0;
               transfer_s = read_s;
               compile_s;
             });
        emit_at entry.start_at (Obs.Trace.Resurrect { path; ok = true });
        Ok pid))

(* ------------------------------------------------------------------ *)
(* The unified move API                                                *)
(* ------------------------------------------------------------------ *)

(* One entry point for every migration initiator.  The reason is
   accounting only: protocol behaviour (fencing, forwarder install,
   mailbox drain, baseline negotiation, epoch handling) is identical
   for all reasons and both subjects, which the trace-equivalence suite
   asserts byte-for-byte. *)
let move t (req : Move.request) =
  (match req.Move.mv_reason with
  | Move.Explicit -> Obs.Metrics.incr t.c_move_explicit
  | Move.Policy -> Obs.Metrics.incr t.c_move_policy
  | Move.Resurrect -> Obs.Metrics.incr t.c_move_resurrect
  | Move.Rehome -> Obs.Metrics.incr t.c_move_rehome);
  match req.Move.mv_subject with
  | Move.Running pid -> (
    match move_running t ~pid ~node_id:req.Move.mv_dest with
    | Ok rep -> Ok { Move.mv_pid = rep.rep_pid; mv_report = Some rep }
    | Error e -> Error e)
  | Move.Image { path; rank; seed } -> (
    match do_resurrect ?rank ~seed t ~node_id:req.Move.mv_dest ~path with
    | Ok pid -> Ok { Move.mv_pid = pid; mv_report = None }
    | Error msg -> Error (Resurrect_failed msg))

(* Convenience wrapper over [move] with an [Image] subject, preserving
   the historical (pid, string-error) result shape. *)
let resurrect ?rank ?(seed = 11) t ~node_id ~path =
  match
    move t
      (Move.request ~reason:Move.Resurrect
         (Move.Image { path; rank; seed })
         ~dest:node_id)
  with
  | Ok o -> Ok o.Move.mv_pid
  | Error e -> Error (migration_error_to_string e)

(* ------------------------------------------------------------------ *)
(* The placement policy engine tick                                    *)
(* ------------------------------------------------------------------ *)

(* Sample the per-node load gauges and per-process charged cycles,
   plan, and execute the proposals as Policy moves.  Called at the end
   of every scheduling round; a no-op while the engine is disabled or
   between periods.  Eligible subjects are running, non-stale
   REGISTERED services — their traffic keeps flowing through the
   registry's forwarders while they move.  A pid with no recorded
   cycle baseline (a fresh successor) measures zero load for one
   period, damping repeat moves of just-moved services. *)
let balance_tick t =
  match t.balance with
  | None -> ()
  | Some b ->
    let now_ = now t in
    if now_ >= t.bal_next_at then begin
      let cfg = Balance.config b in
      Obs.Metrics.incr t.c_bal_ticks;
      let elapsed = Float.max (now_ -. t.bal_prev_at) 1e-9 in
      let loads =
        Array.map
          (fun n ->
            let runnable = ref 0 and mailbox = ref 0 in
            List.iter
              (fun (e : entry) ->
                if not (Process.is_terminated e.proc) then begin
                  incr runnable;
                  mailbox := !mailbox + Mpi.pending e.mailbox
                end)
              n.residents;
            {
              Balance.nl_node = n.node_id;
              nl_alive = n.alive;
              nl_runnable = !runnable;
              nl_cycles_per_s =
                (n.busy_seconds -. t.bal_busy0.(n.node_id)) /. elapsed;
              nl_mailbox = !mailbox;
            })
          t.nodes
      in
      let candidates =
        List.filter_map
          (fun (e : entry) ->
            match e.rank, e.proc.Process.status with
            | Some r, Process.Running
              when (not (is_stale t e))
                   && Registry.laddr_of_rank t.registry r <> None
                   && (node t e.node_id).alive ->
              let cycles = e.proc.Process.cycles in
              let c0 =
                match Hashtbl.find_opt t.bal_cycles0 e.proc.Process.pid with
                | Some c -> c
                | None -> cycles
              in
              Some
                {
                  Balance.cd_pid = e.proc.Process.pid;
                  cd_node = e.node_id;
                  cd_load =
                    Balance.candidate_load
                      ~cycles_per_s:
                        (Arch.seconds e.proc.Process.arch (cycles - c0)
                        /. elapsed)
                      ~mailbox:(Mpi.pending e.mailbox);
                }
            | _ -> None)
          t.entries
      in
      let node_of_rank r =
        Option.map (fun (e : entry) -> e.node_id) (entry_of_rank t r)
      in
      let proposals = Balance.plan b ~loads ~candidates ~node_of_rank in
      let spread, _mean = Balance.spread b ~loads in
      Obs.Metrics.set t.g_bal_spread spread;
      Obs.Metrics.incr ~by:(List.length proposals) t.c_bal_proposals;
      let moved = ref 0 in
      List.iter
        (fun (p : Balance.proposal) ->
          match
            move t
              (Move.request ~reason:Move.Policy (Move.Running p.Balance.pr_pid)
                 ~dest:p.Balance.pr_to)
          with
          | Ok _ ->
            incr moved;
            Obs.Metrics.incr t.c_bal_moves;
            t.bal_last_move_s <- now_;
            Obs.Metrics.set t.g_bal_last_move now_
          | Error _ -> ())
        proposals;
      emit t ~time:now_
        (Obs.Trace.Balance_tick
           { spread; proposed = List.length proposals; moved = !moved });
      (* baselines for the next period *)
      Array.iter
        (fun n -> t.bal_busy0.(n.node_id) <- n.busy_seconds)
        t.nodes;
      Hashtbl.reset t.bal_cycles0;
      List.iter
        (fun (e : entry) ->
          if not (Process.is_terminated e.proc) then
            Hashtbl.replace t.bal_cycles0 e.proc.Process.pid
              e.proc.Process.cycles)
        t.entries;
      Balance.decay b;
      t.bal_prev_at <- now_;
      t.bal_next_at <- now_ +. cfg.Balance.Config.period_s
    end

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let runnable t (e : entry) =
  let n = node t e.node_id in
  n.alive
  && (not (Process.is_terminated e.proc))
  && (match e.proc.Process.status with
     | Process.Running -> true
     | Process.Migrating _ -> true
     | Process.Exited _ | Process.Trapped _ -> false)
  && e.start_at <= n.clock

(* Wake one parked process if its awaited event is due on its node's
   local clock. *)
let wake_entry (e : entry) ~clock =
  if e.proc.Process.waiting then
    let ready =
      match e.parked_on with
      | Some (src, tag) when src >= 0 ->
        Mpi.has_roll_notice e.mailbox ~src_rank:src
        || Mpi.has_delivered e.mailbox ~now:clock ~src_rank:src ~tag
      | Some (_, tag) ->
        (* wildcard park (src -1): any delivery with the tag, or any
           roll notice, is the awaited event *)
        Mpi.has_any_roll_notice e.mailbox
        || Mpi.has_delivered_any e.mailbox ~now:clock ~tag
      | None ->
        (match Mpi.next_delivery e.mailbox with
        | Some at -> at <= clock
        | None -> false)
        || Mpi.has_any_roll_notice e.mailbox
    in
    if ready then e.proc.Process.waiting <- false

(* The entries hosted on [n], newest first: the one place the legacy
   scan scheduler and the indexed one part ways.  Indexed mode returns
   the node's resident list; legacy mode scans every entry (the
   pre-index behaviour, kept as the reference for the
   scheduler-equivalence suite and the S1 bench).  Both yield the same
   entries in the same order, terminated ones aside. *)
let node_entries t n =
  if t.scan_sched then
    List.filter (fun (e : entry) -> e.node_id = n.node_id) t.entries
  else n.residents

(* Wake parked processes on [n] whose awaited event is due on the node's
   local clock. *)
let wake_ready t n =
  List.iter (fun e -> wake_entry e ~clock:n.clock) (node_entries t n)

(* The earliest future event relevant to one entry, folded into [acc]:
   a delayed start, or the delivery a parked process is waiting for. *)
let fold_next_event ~clock acc (e : entry) =
  if Process.is_terminated e.proc then acc
  else begin
    let best = ref acc in
    let consider c =
      match !best with
      | None -> best := Some c
      | Some a -> if c < a then best := Some c
    in
    if e.start_at > clock then consider e.start_at;
    if e.proc.Process.waiting then begin
      match e.parked_on with
      | Some (src, tag) when src >= 0 -> (
        match Mpi.next_matching_delivery e.mailbox ~src_rank:src ~tag with
        | Some at -> consider at
        | None -> ())
      | Some (_, tag) -> (
        match Mpi.next_matching_delivery_any e.mailbox ~tag with
        | Some at -> consider at
        | None -> ())
      | None -> (
        match Mpi.next_delivery e.mailbox with
        | Some at -> consider at
        | None -> ())
    end;
    !best
  end

(* The earliest future event relevant to node [n]. *)
let next_event_on t n =
  List.fold_left (fold_next_event ~clock:n.clock) None (node_entries t n)

(* Emit every heartbeat now due on each alive node's local clock and fan
   it out to every other node through the fault layer: a partitioned or
   lossy link silently eats the beat (silence IS the failure signal — no
   retransmission), a healthy one delivers it after the charged transfer
   time plus jitter.  A crashed node emits nothing; a stalled node's
   beats are skipped via {!Detector.skip_to}, so its silence is visible
   to observers even though the node is "alive". *)
let pump_heartbeats t =
  match t.detector with
  | None -> ()
  | Some det ->
    let cfg = Detector.config det in
    let hb_s = Simnet.message_seconds t.net cfg.Detector.hb_bytes in
    Array.iter
      (fun n ->
        if n.alive then
          List.iter
            (fun emit_at ->
              Array.iter
                (fun (m : node) ->
                  if m.node_id <> n.node_id then begin
                    Simnet.record_message t.net cfg.Detector.hb_bytes;
                    match
                      Faults.on_heartbeat t.faults ~now:emit_at
                        ~src:n.node_id ~dst:m.node_id
                    with
                    | `Drop -> ()
                    | `Deliver delay ->
                      Detector.record det ~src:n.node_id ~dst:m.node_id
                        ~at:(emit_at +. hb_s +. delay)
                  end)
                t.nodes)
            (Detector.due det ~node:n.node_id ~now:n.clock))
      t.nodes

(* Run one scheduling round: each alive node runs its runnable,
   non-parked processes for one quantum and advances its LOCAL clock by
   the work done.  Nodes therefore progress independently and in
   parallel; processes sharing a node serialise (and pay context
   switches).  Returns true if any process made progress. *)
let round t =
  Obs.Metrics.incr t.c_rounds;
  let progressed = ref false in
  (* Scripted node faults fire when the CLUSTER has reached their time:
     the floor is the minimum local clock over alive nodes still hosting
     work.  Gating on the floor (not the victim's own clock) keeps the
     failure causal — nodes run ahead of each other, and a crash fired
     on a racing node's local clock would post roll notices that lagging
     nodes observe before the messages sent to them earlier, breaking
     the grid's checkpoint alignment.  A stall jumps the node's clock
     (the node loses the time); a crash is a full [fail_node] with the
     usual cascade. *)
  let hosts_work n =
    List.exists
      (fun (e : entry) -> not (Process.is_terminated e.proc))
      (node_entries t n)
  in
  let floor_clock =
    let f =
      Array.fold_left
        (fun acc n -> if n.alive && hosts_work n then min acc n.clock else acc)
        infinity t.nodes
    in
    if f = infinity then now t else f
  in
  Array.iter
    (fun n ->
      if n.alive then begin
        (match
           Faults.take_stall t.faults ~node:n.node_id ~now:floor_clock
         with
        | Some stall_s ->
          n.clock <- n.clock +. stall_s;
          Simnet.advance_to t.net n.clock;
          (* the stalled node emits no heartbeats for the whole window:
             the beats it "would have sent" are skipped, so observers see
             exactly the silence a real freeze produces *)
          (match t.detector with
          | Some det -> Detector.skip_to det ~node:n.node_id ~at:n.clock
          | None -> ());
          emit t ~time:n.clock ~node:n.node_id
            (Obs.Trace.Node_stall { stall_s });
          progressed := true
        | None -> ());
        if
          n.alive
          && Faults.take_crash t.faults ~node:n.node_id ~now:floor_clock
        then begin
          fail_node t n.node_id;
          progressed := true
        end
      end)
    t.nodes;
  Array.iter
    (fun n ->
      if n.alive then begin
        (* purge terminated entries from the per-node index (terminal
           statuses are permanent; the global list keeps them for
           introspection and cascades) *)
        n.residents <-
          List.filter
            (fun (e : entry) -> not (Process.is_terminated e.proc))
            n.residents;
        wake_ready t n;
        let procs =
          (* spawn order (oldest first) *)
          List.filter
            (fun (e : entry) -> runnable t e && not e.proc.Process.waiting)
            (List.rev (node_entries t n))
        in
        let node_cycles = ref 0 in
        let ran = ref 0 in
        List.iter
          (fun (e : entry) ->
            if is_stale t e then begin
              (* schedule-time fence: a zombie incarnation never executes
                 another instruction once its rank's epoch has moved on *)
              fence t e ~what:"schedule";
              progressed := true
            end
            else begin
            let before = e.proc.Process.cycles in
            (* time base for extern handlers running in this quantum *)
            t.cur_base <- n.clock +. Arch.seconds n.node_arch !node_cycles;
            t.cur_cycles0 <- before;
            t.cur_pid <- e.proc.Process.pid;
            let ext = handler t e in
            let steps = ref quantum in
            while
              !steps > 0
              && (match e.proc.Process.status with
                 | Process.Running -> true
                 | _ -> false)
              && not e.proc.Process.waiting
            do
              (match e.engine with
              | Interp_engine -> Interp.step ~extern:ext e.proc
              | Emu_engine emu -> Emulator.step ~extern:ext emu);
              decr steps
            done;
            (match e.proc.Process.status with
            | Process.Migrating _ -> handle_migration t e
            | _ -> ());
            let delta = e.proc.Process.cycles - before in
            if delta > 0 || !steps < quantum then begin
              progressed := true;
              incr ran;
              Obs.Metrics.incr t.c_quanta
            end;
            node_cycles := !node_cycles + delta
            end)
          procs;
        t.cur_pid <- -1;
        (* context switches between the processes that shared the node *)
        if !ran > 1 then
          node_cycles :=
            !node_cycles
            + (!ran * Emulator.context_switch_cycles n.node_arch);
        let delta_s = Arch.seconds n.node_arch !node_cycles in
        n.busy_seconds <- n.busy_seconds +. delta_s;
        n.clock <- n.clock +. delta_s;
        (* an idle node advances its clock to its next event (a pending
           delivery or a delayed process start): idle waiting is time
           passing, and it must pass even while other nodes stay busy *)
        if !ran = 0 then begin
          match next_event_on t n with
          | Some at when at > n.clock ->
            n.clock <- at;
            wake_ready t n;
            progressed := true
          | Some _ | None -> ()
        end;
        Simnet.advance_to t.net n.clock
      end)
    t.nodes;
  pump_heartbeats t;
  balance_tick t;
  !progressed

(* Idle nodes jump their clocks to the next relevant event (a pending
   delivery or a delayed start).  Returns true if any clock moved. *)
let idle_advance t =
  let advanced = ref false in
  Array.iter
    (fun n ->
      if n.alive then begin
        wake_ready t n;
        let has_work =
          List.exists
            (fun (e : entry) -> runnable t e && not e.proc.Process.waiting)
            (node_entries t n)
        in
        if not has_work then
          match next_event_on t n with
          | Some at when at > n.clock ->
            n.clock <- at;
            Simnet.advance_to t.net n.clock;
            wake_ready t n;
            advanced := true
          | Some _ | None -> ()
      end)
    t.nodes;
  pump_heartbeats t;
  !advanced

(* Advance every alive node's local clock by [dt] even with no runnable
   work: lets a resilience driver pump heartbeat traffic and time out
   suspicions when the system is otherwise quiescent (every survivor
   parked on a rank whose holder's node went silent).

   Clocks advance to (cluster-wide now + dt), not (own clock + dt): an
   idle node's lagging clock is an artifact of the conservative DES (it
   simply had nothing to do), and while it lags it keeps promoting old
   heartbeats as "recent", vetoing unanimous suspicion for as long as
   the lag.  The node has no pending work, so jumping it to the present
   is observationally safe. *)
let advance_clocks t dt =
  if dt > 0.0 then begin
    let target = now t +. dt in
    Array.iter
      (fun n ->
        if n.alive then begin
          n.clock <- Float.max n.clock target;
          Simnet.advance_to t.net n.clock
        end)
      t.nodes;
    pump_heartbeats t;
    Array.iter (fun n -> if n.alive then wake_ready t n) t.nodes
  end

(* Run until nothing can make progress anymore or [max_rounds] is hit.
   [stop] is polled between rounds for driver-controlled termination. *)
let run ?(max_rounds = 1_000_000) ?(stop = fun () -> false) t =
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < max_rounds && not (stop ()) do
    incr rounds;
    let progressed = round t in
    if not progressed then
      if not (idle_advance t) then continue_ := false
  done;
  !rounds

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

(* Every entry ever registered (terminated included), in SPAWN ORDER:
   ascending pid.  [t.entries] is newest-first and pids are allocated
   monotonically, so the single reverse restores registration order —
   the order is documented, stable, and asserted by the test suite. *)
let statuses t =
  List.rev_map
    (fun (e : entry) ->
      ( e.proc.Process.pid,
        e.rank,
        e.node_id,
        e.proc.Process.status ))
    t.entries

let migrations t = List.rev t.migrations
let storage t = t.storage
let net t = t.net
let trace t = t.tracer
let metrics t = t.metrics
let dspec t = t.dspec

(* Aggregate recompilation-cache statistics over every node's daemon. *)
let cache_hit_rate t =
  let hits = ref 0 and misses = ref 0 in
  Array.iter
    (fun n ->
      match Migrate.Server.cache n.daemon with
      | None -> ()
      | Some c ->
        let s = Migrate.Codecache.stats c in
        hits := !hits + s.Migrate.Codecache.hits;
        misses := !misses + s.Migrate.Codecache.misses)
    t.nodes;
  let total = !hits + !misses in
  if total = 0 then 0.0 else float_of_int !hits /. float_of_int total

let cache_reports t =
  Array.to_list t.nodes
  |> List.filter_map (fun n ->
         match Migrate.Server.cache n.daemon with
         | None -> None
         | Some c ->
           Some
             (Printf.sprintf "%s: %s" n.node_name
                (Migrate.Codecache.report c)))

let detection_enabled t = Option.is_some t.detector
let detector_config t = Option.map Detector.config t.detector

(* Nodes the failure detector currently suspects, judged ONLY from
   heartbeat silence on the observers' local clocks — ground-truth
   aliveness picks who gets to observe (dead observers don't vote) and
   labels false positives in the metrics, but never drives detection. *)
let suspected_nodes t =
  match t.detector with
  | None -> []
  | Some det ->
    pump_heartbeats t;
    let clocks = Array.map (fun n -> n.clock) t.nodes in
    let alive = Array.map (fun n -> n.alive) t.nodes in
    Detector.suspects det ~clocks ~alive
      ~on_suspect:(fun ~subject ~false_positive ->
        emit t ~time:(now t) ~node:subject
          (Obs.Trace.Suspect { subject; false_positive }))

let node_count t = Array.length t.nodes

