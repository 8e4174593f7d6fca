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
   migrations charge their full cost to the process that performs them.

   This module is the facade.  The work is done by the parts below, in
   dependency order, each owning its own state:
   - Cluster_core: nodes, process table, rank mailboxes, epochs and
     fencing, clocks, the trace;
   - Spec_graph: dependency edges and the object/file undo logs;
   - Externs: the calls cluster programs make;
   - Shipping: hops, deltas, the move commit, compile-ahead cut-overs;
   - Checkpoint: suspend files and checkpoint chains on the store;
   - Recovery: node failure, resurrection, the unified move;
   - Balance_tick: the placement policy's sampling and moves;
   - Scheduler: rounds, wakes, idle advance, heartbeats. *)

open Vm
include Cluster_types
module Core = Cluster_core

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
  | Cutover_pending { dest; ready_at } ->
    Printf.sprintf "cut-over to node %d pending until %.6f s" dest ready_at

(* Typed cluster configuration: one record instead of the optional-
   argument pile that kept growing on [create].  The fields are
   documented in cluster.mli. *)
module Config = struct
  type t = {
    node_count : int;
    arches : Arch.t array;
    seed : int;
    net : Simnet.t option;
    faults : Faults.plan;
    delta : bool;
    detector : Detector.config option;
    replication : int;
    forward_ttl_s : float;
    balance : bool;
  }

  let default =
    {
      node_count = 4;
      arches = [| Arch.cisc32 |];
      seed = 1;
      net = None;
      faults = Faults.none;
      delta = true;
      detector = None;
      replication = 0;
      forward_ttl_s = 0.25;
      balance = false;
    }
end

(* What deployment derives from one program, each at most once per
   cluster: the code compiled for each arch a process of it was spawned
   on, its FIR payload and its strict typecheck verdict.  Host-only: no
   simulated time is charged, and moves, resurrections and checkpoint
   reads never consult it; they go through the daemons' content-keyed
   Codecache.  Keyed on the program value, not its digest: a
   [Fir.Ast.program] is immutable, so physical equality is sound, and
   it costs no FIR encode per spawned program. *)
type deployed = {
  d_program : Fir.Ast.program;
  mutable d_code : (string * (Masm.image * Compile.image)) list;
      (* by arch name *)
  mutable d_payload : Process.fir_payload option;
  d_verdict : (unit, string) result Lazy.t;  (* strict, cluster externs *)
}

type t = {
  core : Core.t;
  graph : Spec_graph.t;
  ext : Externs.t;
  ship : Shipping.t;
  recovery : Recovery.t;
  sched : Scheduler.t;
  mutable deployed : deployed list;  (* the deploy memo, newest first *)
}

let hop_attempts = Shipping.max_attempts
let msg_moved = Externs.msg_moved
let extern_signatures = Externs.extern_signatures
let extern_names = Externs.extern_names

(* The cluster registry renders in registration order, which the golden
   metrics digests pin.  Registration is idempotent, so registering the
   names here first fixes that order; each part then looks up the
   handles it uses by name.  The fault, storage, detector and dspec
   registries follow. *)
let registry_layout =
  [ `C "sched.rounds"; `C "sched.quanta"; `C "cluster.migrations_ok";
    `C "cluster.migrations_failed"; `C "cluster.migration_cache_hits";
    `C "cluster.checkpoints"; `C "cluster.node_failures";
    `C "cluster.resurrections"; `C "migrate.retries"; `C "fence.rejections";
    `C "migrate.bytes_full"; `C "migrate.bytes_delta";
    `C "migrate.delta_hits"; `C "migrate.delta_misses";
    `G "migrate.delta_hit_rate";
    `C "registry.moves"; `C "registry.forwarded"; `C "registry.rebinds";
    `C "registry.expired"; `H "app.latency_seconds";
    `H "migrate.backoff_seconds"; `H "cluster.migrate_bytes";
    `H "cluster.pack_seconds"; `H "cluster.transfer_seconds";
    `H "cluster.compile_seconds"; `C "move.explicit"; `C "move.policy";
    `C "move.resurrect"; `C "move.rehome"; `C "balance.ticks";
    `C "balance.proposals"; `C "balance.moves"; `G "balance.spread";
    `G "balance.last_move_s" ]

(* A fault directive naming a node this cluster does not have would
   never fire; reject the plan instead, naming the directive. *)
let check_plan_nodes (plan : Faults.plan) nodes =
  let check n directive =
    if n < 0 || n >= nodes then
      invalid_arg
        (Printf.sprintf "fault plan: \"%s\" names node %d, but the cluster \
                         has nodes 0-%d"
           directive n (nodes - 1))
  in
  List.iter
    (fun (w : Faults.partition) ->
      let d =
        Printf.sprintf "partition %d %d from %g until %g" w.pa w.pb w.p_from
          w.p_until
      in
      check w.pa d;
      check w.pb d)
    plan.Faults.f_partitions;
  List.iter
    (fun (s : Faults.stall) ->
      check s.s_node
        (Printf.sprintf "stall %d at %g for %g" s.s_node s.s_at s.s_for))
    plan.Faults.f_stalls;
  List.iter
    (fun (c : Faults.crash) ->
      check c.c_node (Printf.sprintf "crash %d at %g" c.c_node c.c_at))
    plan.Faults.f_crashes

(* Every node's daemon: an untrusted server (hops always recompile from
   the FIR), its own recompilation cache, and room for this many
   retained delta baselines — none when delta shipping is off. *)
let code_cache_entries = 16
let retained_baselines = 4

let create_cfg (cfg : Config.t) =
  check_plan_nodes cfg.Config.faults cfg.Config.node_count;
  let net = match cfg.Config.net with Some n -> n | None -> Simnet.create () in
  let nodes =
    Array.init cfg.Config.node_count (fun i ->
        let arch = cfg.Config.arches.(i mod Array.length cfg.Config.arches) in
        {
          node_id = i;
          node_name = Printf.sprintf "node%d" i;
          node_arch = arch;
          alive = true;
          daemon =
            Migrate.Server.create_cfg
              {
                Migrate.Server.Config.default with
                extern_signatures;
                first_pid = 0;
                cache =
                  Some
                    (Migrate.Codecache.create ~capacity:code_cache_entries ());
                baseline_cache =
                  (if cfg.Config.delta then retained_baselines else 0);
              }
              arch;
          busy_seconds = 0.0;
          clock = 0.0;
          residents = [];
        })
  in
  let metrics = Obs.Metrics.create () in
  List.iter
    (function
      | `C name -> ignore (Obs.Metrics.counter metrics name)
      | `G name -> ignore (Obs.Metrics.gauge metrics name)
      | `H name -> ignore (Obs.Metrics.histogram metrics name))
    registry_layout;
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
  let balance =
    if cfg.Config.balance then Some (Balance.create ()) else None
  in
  let core =
    Core.create ~nodes ~net ~storage ~faults ~detector ~dspec ~balance
      ~tracer ~metrics
  in
  let graph = Spec_graph.create core in
  let ext = Externs.create core graph in
  let ship =
    Shipping.create core graph ~delta:cfg.Config.delta
      ~forward_ttl_s:cfg.Config.forward_ttl_s
  in
  let ckpt = Checkpoint.create core ship ~delta:cfg.Config.delta in
  let recovery = Recovery.create core graph ship ckpt in
  let tick = Balance_tick.create core recovery ship in
  let sched = Scheduler.create core ext ship ckpt recovery tick in
  (* read-repair events belong in the cluster trace: stamp them with the
     cluster-wide clock at the moment of the repairing read *)
  Storage.set_on_repair storage (fun ~path ~replicas ->
      let time =
        Array.fold_left (fun acc n -> Float.max acc n.clock) 0.0 nodes
      in
      Obs.Trace.record tracer ~time
        (Obs.Trace.Storage_repair { path; replicas }));
  { core; graph; ext; ship; recovery; sched; deployed = [] }

let node t id = Core.node t.core id
let node_count t = Array.length t.core.Core.nodes
let entry_of_pid t pid = Core.entry_of_pid t.core pid
let entry_of_rank t rank = Core.entry_of_rank t.core rank

let exit_code t pid =
  match entry_of_pid t pid with
  | Some { proc = { Process.status = Process.Exited n; _ }; _ } -> Some n
  | Some _ | None -> None

let now t = Core.now t.core

(* ------------------------------------------------------------------ *)
(* Object store setup (Figure 1 example)                               *)
(* ------------------------------------------------------------------ *)

let set_object t obj data =
  Hashtbl.replace t.core.Core.obj_store obj (Bytes.of_string data)

let get_object t obj =
  Option.map Bytes.to_string (Hashtbl.find_opt t.core.Core.obj_store obj)

let set_object_failure_probability t p =
  Externs.set_object_failure_probability t.ext p

(* ------------------------------------------------------------------ *)
(* Placement and execution                                             *)
(* ------------------------------------------------------------------ *)

let deployed t program =
  match List.find_opt (fun d -> d.d_program == program) t.deployed with
  | Some d -> d
  | None ->
    let d =
      { d_program = program; d_code = []; d_payload = None;
        d_verdict =
          lazy
            (Fir.Typecheck.check_program ~strict:true
               ~externs:extern_signatures program) }
    in
    t.deployed <- d :: t.deployed;
    d

let code_for d (arch : Arch.t) =
  match List.assoc_opt arch.Arch.name d.d_code with
  | Some code -> code
  | None ->
    let masm = Codegen.compile ~arch d.d_program in
    let code = masm, Compile.compile_masm masm in
    d.d_code <- (arch.Arch.name, code) :: d.d_code;
    code

let spawn ?rank ?engine:(`Masm = `Masm) ?(seed = 7) t ~node_id program =
  let core = t.core in
  let n = Core.node core node_id in
  if not n.alive then invalid_arg "Cluster.spawn: node is down";
  let pid = Core.fresh_pid core in
  let proc = Process.create ~pid ~arch:n.node_arch ~seed program in
  let masm, compiled = code_for (deployed t program) n.node_arch in
  let emu = Emulator.create ~compiled masm proc in
  let entry =
    Core.make_entry ~proc ~emu ~node_id ~mailbox:(Core.mailbox_for core rank)
      ~rank
      ~epoch:(match rank with Some r -> Core.rank_epoch core r | None -> 0)
      ~start_at:n.clock ()
  in
  Spec_graph.register t.graph entry;
  Core.emit core ~time:entry.start_at ~node:node_id ~pid
    ~rank:(Core.entry_rank entry) Obs.Trace.Spawn;
  pid

let run ?max_rounds ?stop t = Scheduler.run ?max_rounds ?stop t.sched
let advance_clocks t dt = Scheduler.advance_clocks t.sched dt
let sched_visits t = Scheduler.visits t.sched
let sched_blocks t = Scheduler.blocks t.sched

(* ------------------------------------------------------------------ *)
(* The process registry                                                *)
(* ------------------------------------------------------------------ *)

(* A service is the process a re-home lands elsewhere, so its node's
   daemon learns its code at registration, keyed by the program's
   content digest: a later hop of any process running the same program
   onto this node hits.  The entry holds what a miss would have
   produced — the daemon's own typecheck verdict (a Verified entry
   always comes from a local typecheck) and the code the process already
   runs, its emulator's.  The verdict and the FIR payload come from the
   deploy memo, computed once per program: services sharing a program
   typecheck and encode it once, and each is seeded with the payload.
   Deployment work: no simulated time is charged. *)
let seed_code_cache t (e : entry) =
  let n = node t e.node_id in
  match Migrate.Server.cache n.daemon with
  | None -> ()
  | Some cache ->
    let program = e.proc.Process.program in
    let d = deployed t program in
    let payload =
      match d.d_payload with
      | Some p ->
        Process.seed_fir_payload e.proc ~fir_bytes:p.Process.fir_bytes
          ~fir_digest:p.Process.fir_digest;
        p
      | None ->
        let p = Process.fir_payload e.proc in
        d.d_payload <- Some p;
        p
    in
    let code =
      Result.map
        (fun () ->
          let masm, compiled = Emulator.code e.emu in
          let compiled =
            match compiled with
            | Some c -> c
            | None -> Compile.compile_masm masm
          in
          { Migrate.Codecache.masm; compiled })
        (Lazy.force d.d_verdict)
    in
    Migrate.Codecache.add cache ~digest:payload.Process.fir_digest
      ~arch:n.node_arch.Arch.name ~trusted:false ~program ~code

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
      let laddr = Registry.register t.core.Core.registry ~rank:r in
      seed_code_cache t e;
      Core.emit_entry t.core e
        (Obs.Trace.Service_bind { laddr; new_rank = r; old_rank = -1 });
      laddr)

let registry t = t.core.Core.registry
let service_rank t ~laddr = Registry.lookup t.core.Core.registry laddr

module Rekey = Spec_graph.Rekey

(* ------------------------------------------------------------------ *)
(* Failure, recovery and the unified move                              *)
(* ------------------------------------------------------------------ *)

let fail_node t node_id = Recovery.fail_node t.recovery node_id
let move t req = Recovery.move t.recovery req
let rank_epoch t rank = Core.rank_epoch t.core rank

(* Convenience wrapper over [move] with an [Image] subject, preserving
   the historical (pid, string-error) result shape. *)
let resurrect ?rank t ~node_id ~path =
  match
    move t
      (Move.request ~reason:Move.Resurrect (Move.Image { path; rank })
         ~dest:node_id)
  with
  | Ok o -> Ok o.Move.mv_pid
  | Error e -> Error (migration_error_to_string e)

let detection_enabled t = Option.is_some t.core.Core.detector
let detector_config t = Option.map Detector.config t.core.Core.detector

(* Nodes the failure detector currently suspects, judged ONLY from
   heartbeat silence on the observers' local clocks — ground-truth
   aliveness picks who gets to observe (dead observers don't vote) and
   labels false positives in the metrics, but never drives detection. *)
let suspected_nodes t =
  let core = t.core in
  match core.Core.detector with
  | None -> []
  | Some det ->
    Scheduler.pump_heartbeats core;
    let clocks = Array.map (fun n -> n.clock) core.Core.nodes in
    let alive = Array.map (fun n -> n.alive) core.Core.nodes in
    Detector.suspects det ~clocks ~alive
      ~on_suspect:(fun ~subject ~false_positive ->
        Core.emit core ~time:(now t) ~node:subject
          (Obs.Trace.Suspect { subject; false_positive }))

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

(* Every entry ever registered (terminated included), in SPAWN ORDER:
   ascending pid.  The entry list is newest-first and pids are allocated
   monotonically, so the single reverse restores registration order —
   the order is documented, stable, and asserted by the test suite. *)
let statuses t =
  List.rev_map
    (fun (e : entry) ->
      ( e.proc.Process.pid,
        e.rank,
        e.node_id,
        e.proc.Process.status ))
    t.core.Core.entries

let storage t = t.core.Core.storage
let net t = t.core.Core.net
let trace t = t.core.Core.tracer
let metrics t = t.core.Core.metrics
let dspec t = t.core.Core.dspec
