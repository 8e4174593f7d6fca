(* The cross-process speculation graph (see spec_graph.mli). *)

open Vm
open Cluster_types
open Cluster_core

type t = {
  core : Cluster_core.t;
  (* (sender pid, sender level uid) -> dependent (receiver pid, receiver uid) *)
  deps : (int * int, (int * int) list ref) Hashtbl.t;
  (* speculative object writes: (writer pid, level uid) -> saved old
     contents, newest first.  The object store participates in the
     writer's speculation: rollback restores these, commit folds them
     into the parent level (exactly the heap's checkpoint-record
     discipline, applied to external state). *)
  obj_undo : (int * int, (int * Bytes.t option) list ref) Hashtbl.t;
  (* MojaveFS-lite: per-speculation-level undo log for shared-store files
     (path -> previous contents), mirroring the object store's *)
  fs_undo : (int * int, (string * string option) list ref) Hashtbl.t;
}

let create core =
  { core; deps = Hashtbl.create 32; obj_undo = Hashtbl.create 8;
    fs_undo = Hashtbl.create 8 }

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

let note_object_write g proc obj =
  note_undo g.obj_undo proc obj ~old:(fun () ->
      Option.map Bytes.copy (Hashtbl.find_opt g.core.obj_store obj))

let note_file_write g proc path =
  note_undo g.fs_undo proc path ~old:(fun () ->
      Option.map fst (Storage.read g.core.storage path))

(* Record that [receiver] consumed a message sent from inside [sender]'s
   speculation: the receiver joins that speculation. *)
let add_dependency g ~sender ~receiver =
  let deps = log_for g.deps sender in
  if not (List.mem receiver !deps) then deps := receiver :: !deps;
  (* if the joined level is an open distributed transaction's root
     region, the receiver is now a participant: record it at its
     CURRENT incarnation epoch — the prepare round revalidates that
     epoch, so a later resurrection voids this ack *)
  match
    Dspec.open_with_root g.core.dspec ~coord_pid:(fst sender)
      ~root_uid:(snd sender)
  with
  | None -> ()
  | Some txn when fst receiver <> fst sender -> (
    match entry_of_pid g.core (fst receiver) with
    | None -> ()
    | Some e ->
      Dspec.register txn ~pid:(fst receiver)
        ~rank:(entry_rank e)
        ~epoch:e.epoch)
  | Some _ -> ()

let pending g ~pid ~uid =
  Hashtbl.fold
    (fun _ dependents acc ->
      acc
      || List.exists (fun (rpid, ruid) -> rpid = pid && ruid = uid) !dependents)
    g.deps false

(* Roll a process back because a speculation it depends on failed.  If the
   joined level is gone (committed or already rolled back) fall back to the
   process's oldest open level; a receiver with no speculation to undo is
   unrecoverable and traps (it consumed state that never happened). *)
let rec force_rollback g ~pid ~uid ~code =
  match entry_of_pid g.core pid with
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
        emit_entry g.core entry (Obs.Trace.Forced_rollback { level = -1 });
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
        entry.parked_on <- None;
        emit_entry g.core entry (Obs.Trace.Forced_rollback { level })))

(* Undo everything that depended on the given (now rolled back or dead)
   speculation levels of [sender_pid]: discard their unconsumed messages,
   then roll back their consumers.  Returns how many queued messages the
   discard un-delivered — the mailbox-compensation count a distributed
   abort reports. *)
and cascade g ~sender_pid ~uids ~code =
  let core = g.core in
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
      undo g.obj_undo
        (fun obj -> function
          | Some bytes -> Hashtbl.replace core.obj_store obj bytes
          | None -> Hashtbl.remove core.obj_store obj)
        uid;
      undo g.fs_undo
        (fun path -> function
          | Some data -> ignore (Storage.write core.storage path data)
          | None -> Storage.remove core.storage path)
        uid)
    uids;
  let discarded =
    List.fold_left
      (fun acc (e : entry) ->
        acc + Mpi.discard_speculative e.mailbox ~uids ~sender_pid)
      0 core.entries
  in
  List.iter
    (fun uid ->
      match Hashtbl.find_opt g.deps (sender_pid, uid) with
      | None -> ()
      | Some dependents ->
        let ds = !dependents in
        Hashtbl.remove g.deps (sender_pid, uid);
        List.iter
          (fun (rpid, ruid) ->
            if rpid <> sender_pid then
              force_rollback g ~pid:rpid ~uid:ruid ~code)
          ds)
    uids;
  discarded

(* When a level commits into its parent, its dependents become dependents
   of the parent; committing into level 0 makes the values durable and the
   dependencies dissolve. *)
let rekey_dependencies g ~pid ~uid ~parent =
  (match Hashtbl.find_opt g.deps (pid, uid) with
  | None -> ()
  | Some dependents -> (
    Hashtbl.remove g.deps (pid, uid);
    match parent with
    | None -> ()
    | Some parent_uid ->
      List.iter
        (fun d -> add_dependency g ~sender:(pid, parent_uid) ~receiver:d)
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
  fold_undo g.obj_undo;
  fold_undo g.fs_undo

let register g (entry : entry) =
  let core = g.core in
  Cluster_core.register core entry;
  let pid = entry.proc.Process.pid in
  Spec.Engine.set_hooks entry.proc.Process.spec
    ~on_enter:(fun ~uid ~depth ->
      emit_entry core entry (Obs.Trace.Spec_enter { uid; depth }))
    ~on_rollback:(fun uids ->
      emit_entry core entry (Obs.Trace.Spec_rollback { uids });
      (* a rolled level that roots a still-open distributed transaction
         takes the transaction down with it (the coordinator abandoned
         the region without running the protocol) *)
      List.iter
        (fun uid ->
          match
            Dspec.open_with_root core.dspec ~coord_pid:pid ~root_uid:uid
          with
          | None -> ()
          | Some txn -> abort_txn core entry txn "coordinator_rolled_back")
        uids;
      let discarded = cascade g ~sender_pid:pid ~uids ~code:Mpi.msg_roll in
      (* mailbox compensation for a distributed abort is accounted once,
         against the transaction the rolled root belonged to *)
      List.iter
        (fun uid ->
          match
            Dspec.aborted_with_root core.dspec ~coord_pid:pid ~root_uid:uid
          with
          | None -> ()
          | Some txn -> compensate_txn core entry txn ~discarded)
        uids)
    ~on_commit:(fun ~uid ~parent ->
      emit_entry core entry
        (Obs.Trace.Spec_commit { uid; durable = parent = None });
      rekey_dependencies g ~pid ~uid ~parent)

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

(* Every key and dependent entry naming the old identity must move to
   the successor, or dependents could escape a later cascade. *)
let rekey_identity g ~old_pid ~new_pid ~uid_map =
  let map_uid uid =
    match List.assoc_opt uid uid_map with Some u -> u | None -> uid
  in
  let map_key (pid, uid) =
    if pid = old_pid then new_pid, map_uid uid else pid, uid
  in
  (* dependency edges: keys (senders) and list entries (receivers) *)
  let entries =
    Hashtbl.fold (fun k v acc -> (k, List.map map_key !v) :: acc) g.deps []
  in
  Hashtbl.reset g.deps;
  List.iter
    (fun (k', vs) -> Hashtbl.add g.deps k' (ref vs))
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
  rekey_undo g.obj_undo;
  rekey_undo g.fs_undo;
  (* the policy engine tracks affinity by pid: carry the row across the
     identity change so a service's attraction survives its moves *)
  match g.core.balance with
  | Some b -> Balance.rekey b ~old_pid ~new_pid
  | None -> ()
