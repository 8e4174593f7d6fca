(* Failure, resurrection and the unified move (see recovery.mli). *)

open Vm
open Cluster_types
open Cluster_core

type t = {
  core : Cluster_core.t;
  graph : Spec_graph.t;
  ship : Shipping.t;
  ckpt : Checkpoint.t;
  c_node_failures : Obs.Metrics.counter;
  c_resurrections : Obs.Metrics.counter;
  (* per-reason accounting for the unified move API *)
  c_move_explicit : Obs.Metrics.counter;
  c_move_policy : Obs.Metrics.counter;
  c_move_resurrect : Obs.Metrics.counter;
  c_move_rehome : Obs.Metrics.counter;
}

let create core graph ship ckpt =
  let counter = Obs.Metrics.counter core.metrics in
  { core; graph; ship; ckpt;
    c_node_failures = counter "cluster.node_failures";
    c_resurrections = counter "cluster.resurrections";
    c_move_explicit = counter "move.explicit";
    c_move_policy = counter "move.policy";
    c_move_resurrect = counter "move.resurrect";
    c_move_rehome = counter "move.rehome" }

(* Retire one incarnation of a process: [halt] stops it (a node
   failure traps it, a superseded incarnation is fenced), everyone who
   consumed its speculative messages rolls back with it, the
   transactions it coordinated abort — a dead coordinator can never
   decide them, and the cascade's discard count doubles as their
   compensation figure — and survivors polling its rank observe
   MSG_ROLL. *)
let retire_incarnation r (e : entry) ~halt =
  let core = r.core in
  let uids = Spec.Engine.unique_ids e.proc.Process.spec in
  halt e;
  let discarded =
    Spec_graph.cascade r.graph ~sender_pid:e.proc.Process.pid ~uids
      ~code:Mpi.msg_roll
  in
  List.iter
    (fun txn ->
      abort_txn core e txn "coordinator_dead";
      compensate_txn core e txn ~discarded)
    (Dspec.open_coordinated_by core.dspec ~pid:e.proc.Process.pid);
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
             on the dead rank or parked wildcard (a roll notice from
             anyone is its awaited event).  Waking a process parked on
             an UNRELATED rank would violate the parked_on contract —
             the scheduler would spin it on a poll that still returns
             nothing *)
          match other.parked_on with
          | Some (Mpi.Rank src, _) when src <> dead_rank -> ()
          | Some _ | None -> other.parked_on <- None
        end)
      core.entries

let fail_node r node_id =
  let core = r.core in
  let n = node core node_id in
  if n.alive then begin
    n.alive <- false;
    Obs.Metrics.incr r.c_node_failures;
    (* node-local checkpoint replicas die with the node *)
    Storage.fail_node core.storage node_id;
    emit core ~time:n.clock ~node:node_id Obs.Trace.Node_fail;
    let victims =
      List.filter
        (fun (e : entry) ->
          e.node_id = node_id && not (Process.is_terminated e.proc))
        core.entries
    in
    List.iter
      (retire_incarnation r ~halt:(fun e ->
           e.proc.Process.status <- Process.Trapped "node failure"))
      victims
  end

(* Logically terminate a (possibly still executing) old incarnation of
   [rank] before its successor is created, on a node that may in fact
   still be alive (a false suspicion).  The epoch bump must already have
   happened, making the old holder stale: it is fenced so it never runs
   another instruction, and survivors that already consumed its traffic
   roll back to their last durable point and re-send to the successor. *)
let kill_incarnation r ~rank =
  match entry_of_rank r.core rank with
  | Some e when not (Process.is_terminated e.proc) ->
    retire_incarnation r e ~halt:(fun e -> fence r.core e ~what:"schedule")
  | Some _ | None -> ()

(* The seed of every resurrected process's random-number state. *)
let resurrection_seed = 11

(* Resurrect a checkpointed process from shared storage on a live node
   (the paper's resurrection daemon executing the saved checkpoint).
   Reached through [move] with an [Image] subject. *)
let resurrect ?rank r ~node_id ~path =
  let core = r.core in
  let n = node core node_id in
  let failed msg =
    emit core ~time:(now core) ~node:node_id
      (Obs.Trace.Resurrect { path; ok = false });
    Error msg
  in
  if not n.alive then failed "resurrection node is down"
  else
    match Checkpoint.read r.ckpt path with
    | Error msg -> failed msg
    | Ok (image, bytes_len, read_s) -> (
      (* executing a saved checkpoint from the cluster's own store is
         within the trust domain: same-architecture resurrections take
         the binary fast path (link only); cross-architecture ones
         recompile from the FIR *)
      match
        Migrate.Pack.unpack_image ~seed:resurrection_seed ~trusted:true
          ~extern_signatures:Externs.extern_signatures
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
          | Some rk ->
            let e' = bump_epoch core rk in
            kill_incarnation r ~rank:rk;
            e'
        in
        let pid = fresh_pid core in
        let proc = { proc0 with Process.pid } in
        let compile_s =
          Arch.seconds n.node_arch costs.Migrate.Pack.u_compile_cycles
        in
        let cache_hit = costs.Migrate.Pack.u_cache_hit in
        (* the resumed heap is byte-identical to the replayed image (and
           its dirty set is empty), so that image is a valid pack
           baseline.  This daemon does not retain it: a delta over it
           would have to arrive here, and the process only leaves by
           packing a newer baseline *)
        let entry =
          make_entry ~proc
            ~emu:(Emulator.create ~compiled masm proc)
            ~node_id ~mailbox:(mailbox_for core rank) ~rank ~epoch
            ~start_at:(now core +. read_s +. compile_s)
            ~baseline:(Migrate.Wire.image_digest image, image)
            ()
        in
        Spec_graph.register r.graph entry;
        (* the image's transaction context (wire v9): if the transaction
           is somehow still open — the coordinator was moved as an image
           without a node failure having aborted it — re-register the
           resumed process as its coordinator, translating the root
           level through the snapshot position the context names *)
        (match image.Migrate.Wire.i_dspec with
        | None -> ()
        | Some ctx -> (
          match Dspec.find core.dspec ctx.Migrate.Wire.x_txn with
          | Some txn when txn.Dspec.x_state = Dspec.Open ->
            Dspec.adopt txn ~coord_pid:pid
              ~root_uid:
                (List.nth_opt
                   (List.rev (Spec.Engine.unique_ids proc.Process.spec))
                   ctx.Migrate.Wire.x_root)
          | Some _ | None -> ()));
        n.busy_seconds <- n.busy_seconds +. compile_s;
        Obs.Metrics.incr r.c_resurrections;
        (* a resurrection is an inbound migration from the store: the
           saved image travels through the same unpack/code-cache path
           as a live migration, so it shows up in the trace as one *)
        let emit_at time =
          emit core ~time ~node:node_id ~pid ~rank:(entry_rank entry)
        in
        emit_at (now core)
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
        Ok pid)

(* One entry point for every migration initiator.  The reason is
   accounting only: protocol behaviour (fencing, forwarder install,
   mailbox drain, baseline negotiation, epoch handling) is identical
   for all reasons and both subjects, which the trace-equivalence suite
   asserts byte-for-byte. *)
let move r (req : Move.request) =
  Obs.Metrics.incr
    (match req.Move.mv_reason with
    | Move.Explicit -> r.c_move_explicit
    | Move.Policy -> r.c_move_policy
    | Move.Resurrect -> r.c_move_resurrect
    | Move.Rehome -> r.c_move_rehome);
  match req.Move.mv_subject with
  | Move.Running pid ->
    Shipping.move_running r.ship ~pid ~node_id:req.Move.mv_dest
  | Move.Image { path; rank } -> (
    match resurrect ?rank r ~node_id:req.Move.mv_dest ~path with
    | Ok pid -> Ok { Move.mv_pid = pid; mv_report = None; mv_cutover = None }
    | Error msg -> Error (Resurrect_failed msg))
