(* The speculation engine (paper, Section 4.3).

   A process may be inside N nested speculation levels, numbered 1 (oldest)
   to N (newest); level 0 means "not speculating".  Each level keeps a
   checkpoint record: the set of heap blocks modified since the level was
   entered, saved by copy-on-write.  The first write to a block inside a
   level clones the block — the pointer table is retargeted to the clone
   and the ORIGINAL address is recorded, so the pre-speculation data is
   preserved in place (Section 4.1's "special blocks whose pointer table
   entry refers to a different block").

   - [enter] pushes a new level and snapshots the continuation (the entry
     function and its arguments; the FIR is CPS, so that is the complete
     live state apart from the heap).
   - [commit l] folds level l's record into its parent: an original is
     discarded if the parent already saved that block (the parent's older
     copy wins), otherwise it moves into the parent's record.  Committing
     level 1 discards the records for good.  Commits may happen out of
     order (any l in 1..N).
   - [rollback l] walks the records newest-to-oldest down to level l,
     retargeting each saved index back to its original, which restores the
     exact heap state at entry to level l; levels l..N are discarded and
     level l is immediately re-entered with the same continuation (the
     paper's retry semantics) and a caller-chosen rollback code c.

   Entry is O(1) — the paper measures it independent of heap mutation —
   while commit and rollback are O(number of blocks modified), which is
   what produces the mutation-percentile curves of Section 5. *)

open Runtime

exception Invalid_level of string

type cont = { entry : string; args : Value.t list }

(* An int-keyed set: copy-on-write and commit merging probe it,
   nothing iterates it. *)
module Index_set = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash idx = idx
end)

type level = {
  unique_id : int;
  cont : cont;
  mutable saved : (int * int) list; (* (pointer-table index, original addr) *)
  mutable n_saved : int; (* the length of [saved] *)
  mutable saved_set : unit Index_set.t option;
      (* the indices of [saved], built once the level saves more than
         [small_level] blocks; until then [saved] itself answers *)
}

(* Most levels save a handful of blocks: a walk of [saved] answers
   their membership probes, so entering one allocates no table. *)
let small_level = 8

let holds lvl idx =
  match lvl.saved_set with
  | Some set -> Index_set.mem set idx
  | None ->
    let rec mem = function
      | [] -> false
      | (i, _) :: rest -> i = idx || mem rest
    in
    mem lvl.saved

(* Record [idx]'s original in [lvl], which does not hold [idx] yet. *)
let add_saved lvl idx original =
  lvl.saved <- (idx, original) :: lvl.saved;
  lvl.n_saved <- lvl.n_saved + 1;
  match lvl.saved_set with
  | Some set -> Index_set.add set idx ()
  | None ->
    if lvl.n_saved > small_level then begin
      let set = Index_set.create (4 * small_level) in
      List.iter (fun (i, _) -> Index_set.add set i ()) lvl.saved;
      lvl.saved_set <- Some set
    end

type t = {
  heap : Heap.t;
  mutable levels : level list; (* newest first *)
  mutable next_id : int;
  mutable stamp : int array;
      (* index -> unique id of the newest level known to hold a saved
         original for it; 0 (no level) when never stamped *)
  (* counters live in a metrics registry *)
  metrics : Obs.Metrics.t;
  c_entered : Obs.Metrics.counter;
  c_committed : Obs.Metrics.counter;
  c_rolled_back : Obs.Metrics.counter;
  c_blocks_saved : Obs.Metrics.counter;
  c_blocks_discarded : Obs.Metrics.counter;
  (* Distributed-speculation hooks (paper, Section 1: dependent processes
     "join that process's speculation and roll back together").  A host
     environment — the simulated cluster — installs these to observe level
     resolution: [on_enter] fires when a level is pushed; [on_rollback]
     receives the unique ids of every level that was just undone;
     [on_commit] receives the committed level's unique id and its parent's
     (None when folding into level 0, i.e. the changes became durable). *)
  mutable on_enter : (uid:int -> depth:int -> unit) option;
  mutable on_rollback : (int list -> unit) option;
  mutable on_commit : (uid:int -> parent:int option -> unit) option;
}

let create heap =
  let metrics = Obs.Metrics.create () in
  (* register outside the record literal: field expressions evaluate in
     unspecified order, and the registry renders in registration order *)
  let c_entered = Obs.Metrics.counter metrics "spec.entered" in
  let c_committed = Obs.Metrics.counter metrics "spec.committed" in
  let c_rolled_back = Obs.Metrics.counter metrics "spec.rolled_back" in
  let c_blocks_saved = Obs.Metrics.counter metrics "spec.blocks_saved" in
  let c_blocks_discarded =
    Obs.Metrics.counter metrics "spec.blocks_discarded"
  in
  let t =
    {
      heap;
      levels = [];
      next_id = 1;
      stamp = [||];
      metrics;
      c_entered;
      c_committed;
      c_rolled_back;
      c_blocks_saved;
      c_blocks_discarded;
      on_enter = None;
      on_rollback = None;
      on_commit = None;
    }
  in
  (* Copy-on-write: the first write to a block inside the newest level
     clones it.  The stamp answers "has the top level saved this index?"
     without a lookup when it names the top level.  Otherwise the level's
     set decides, and the stamp is set.  A stamp is only ever set to the
     top level's id after that level holds the index, levels never give
     up saved indices while open, and unique ids are never reused — so
     rollback, commit (of any level) and [restore] merely leave stamps
     stale, and a stale stamp only costs one membership probe. *)
  let save_original top idx =
    if not (holds top idx) then begin
      add_saved top idx (Heap.clone_for_cow heap idx);
      Obs.Metrics.incr t.c_blocks_saved
    end;
    let n = Array.length t.stamp in
    if idx >= n then begin
      let stamp = Array.make (max (2 * n) (idx + 1)) 0 in
      Array.blit t.stamp 0 stamp 0 n;
      t.stamp <- stamp
    end;
    t.stamp.(idx) <- top.unique_id
  in
  let hook idx =
    match t.levels with
    | [] -> ()
    | top :: _ ->
      if idx >= Array.length t.stamp || t.stamp.(idx) <> top.unique_id then
        save_original top idx
  in
  Heap.set_before_write heap (Some hook);
  t

let metrics t = t.metrics
let depth t = List.length t.levels

(* Unique level identities, newest first.  Level numbers (1..N) shift when
   levels commit; unique ids are stable, which is what a DISTRIBUTED
   speculation needs: a message sent from inside a speculation is tagged
   with the sending level's unique id, and a later cascade can ask "is
   that level still uncommitted, and what is its current number?". *)
let unique_ids t = List.map (fun lvl -> lvl.unique_id) t.levels

let current_unique t =
  match t.levels with [] -> None | top :: _ -> Some top.unique_id

(* Current 1..N level number of a unique id, if the level is still open. *)
let level_of_unique t uid =
  let n = depth t in
  let rec find k = function
    | [] -> None
    | lvl :: rest ->
      if lvl.unique_id = uid then Some (n - k) else find (k + 1) rest
  in
  find 0 t.levels

(* Number of blocks saved at a given level (1..N); for tests and benches. *)
let level_saved_count t l =
  let n = depth t in
  if l < 1 || l > n then raise (Invalid_level (Printf.sprintf "level %d" l));
  (List.nth t.levels (n - l)).n_saved

(* ------------------------------------------------------------------ *)
(* speculate                                                           *)
(* ------------------------------------------------------------------ *)

let enter t ~cont =
  let lvl =
    { unique_id = t.next_id; cont; saved = []; n_saved = 0; saved_set = None }
  in
  t.next_id <- t.next_id + 1;
  t.levels <- lvl :: t.levels;
  Obs.Metrics.incr t.c_entered;
  let d = depth t in
  (match t.on_enter with
  | Some hook -> hook ~uid:lvl.unique_id ~depth:d
  | None -> ());
  d

(* ------------------------------------------------------------------ *)
(* commit                                                              *)
(* ------------------------------------------------------------------ *)

let check_level t l =
  let n = depth t in
  if l < 1 || l > n then
    raise
      (Invalid_level
         (Printf.sprintf "level %d out of range [1,%d]" l n))

(* Fold level [l] into its parent.  The list is newest-first, so level l
   sits at position (N - l); its parent (level l-1) at position (N - l + 1).
   Folding into level 0 (committing the oldest level) simply discards the
   record: the originals become garbage for the next collection. *)
let commit t l =
  check_level t l;
  let n = depth t in
  let pos = n - l in
  let rec split k = function
    | [] -> raise (Invalid_level "commit: internal position error")
    | x :: rest ->
      if k = 0 then [], x, rest else
        let before, lvl, after = split (k - 1) rest in
        x :: before, lvl, after
  in
  let newer, lvl, older = split pos t.levels in
  (match older with
  | parent :: _ ->
    List.iter
      (fun (idx, original) ->
        if holds parent idx then Obs.Metrics.incr t.c_blocks_discarded
        else add_saved parent idx original)
      lvl.saved
  | [] ->
    (* committing to level 0: all originals become unreachable *)
    Obs.Metrics.incr ~by:lvl.n_saved t.c_blocks_discarded);
  t.levels <- newer @ older;
  Obs.Metrics.incr t.c_committed;
  match t.on_commit with
  | Some hook ->
    let parent =
      match older with parent :: _ -> Some parent.unique_id | [] -> None
    in
    hook ~uid:lvl.unique_id ~parent
  | None -> ()

(* ------------------------------------------------------------------ *)
(* rollback                                                            *)
(* ------------------------------------------------------------------ *)

(* Restore all records from the newest level down to (and including) level
   [l], then re-enter level [l] with its saved continuation.  Restoring in
   newest-to-oldest order means the final pointer-table state for every
   index is the OLDEST saved original at level >= l, i.e. exactly the heap
   state when level l was entered.  Returns the continuation to resume;
   the caller prepends the new rollback code to its arguments. *)
let rollback t l =
  check_level t l;
  let n = depth t in
  let to_undo_count = n - l + 1 in
  let rec take k = function
    | rest when k = 0 -> [], rest
    | [] -> raise (Invalid_level "rollback: internal position error")
    | x :: rest ->
      let taken, kept = take (k - 1) rest in
      x :: taken, kept
  in
  let undone, kept = take to_undo_count t.levels in
  List.iter
    (fun lvl ->
      List.iter
        (fun (idx, original) -> Heap.retarget t.heap idx original)
        lvl.saved)
    undone;
  let entered_level =
    match List.rev undone with
    | oldest :: _ -> oldest
    | [] -> raise (Invalid_level "rollback: empty undo set")
  in
  t.levels <- kept;
  Obs.Metrics.incr t.c_rolled_back;
  (* retry semantics: level l is immediately re-entered with the same
     continuation *)
  let (_ : int) = enter t ~cont:entered_level.cont in
  (match t.on_rollback with
  | Some hook -> hook (List.map (fun lvl -> lvl.unique_id) undone)
  | None -> ());
  entered_level.cont

let set_hooks ?on_enter t ~on_rollback ~on_commit =
  t.on_enter <- on_enter;
  t.on_rollback <- Some on_rollback;
  t.on_commit <- Some on_commit

(* ------------------------------------------------------------------ *)
(* GC integration                                                      *)
(* ------------------------------------------------------------------ *)

(* All (index, original address) pairs across all levels; the collector
   pins these. *)
let records t =
  List.concat_map (fun lvl -> lvl.saved) t.levels

let fold_cont_args f acc t =
  List.fold_right (fun lvl acc -> f acc lvl.cont.args) t.levels acc

(* After a collection, rewrite recorded original addresses through the
   forwarding map (nothing to do when it moved no block). *)
let rewrite_after_gc t result =
  if Gc.moved result > 0 then
    List.iter
      (fun lvl ->
        lvl.saved <-
          List.map (fun (idx, addr) -> idx, Gc.forward_addr result addr)
            lvl.saved)
      t.levels

(* ------------------------------------------------------------------ *)
(* Wire-format support                                                 *)
(* ------------------------------------------------------------------ *)

(* A migrating process carries its speculation state (a checkpoint written
   mid-speculation must restore it).  The snapshot is by index/address,
   like the records themselves. *)
type snapshot_level = {
  s_entry : string;
  s_args : Value.t list;
  s_saved : (int * int) list;
}

let snapshot t =
  List.rev_map
    (fun lvl ->
      {
        s_entry = lvl.cont.entry;
        s_args = lvl.cont.args;
        s_saved = List.rev lvl.saved;
      })
    t.levels
(* oldest first in the snapshot *)

let restore t snap =
  if t.levels <> [] then
    raise (Invalid_level "restore into a speculating engine");
  List.iter
    (fun s ->
      let (_ : int) =
        enter t ~cont:{ entry = s.s_entry; args = s.s_args }
      in
      match t.levels with
      | top :: _ ->
        List.iter (fun (idx, original) -> add_saved top idx original) s.s_saved
      | [] -> assert false)
    snap
