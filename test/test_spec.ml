(* Tests for the speculation engine: copy-on-write, nesting, commit
   folding (including out of order), rollback retry semantics, GC
   integration, and a model-based property test. *)

open Runtime

open Kit

let cont0 = { Spec.Engine.entry = "body"; args = [] }

let make () =
  let h = Heap.create () in
  let e = Spec.Engine.create h in
  h, e

let test_rollback_restores () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:2 ~init:(Value.Vint 1) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 2);
  Heap.write h idx 1 (Value.Vint 3);
  check "speculative value visible" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 2));
  let cont = Spec.Engine.rollback e 1 in
  Alcotest.(check string) "continuation returned" "body"
    cont.Spec.Engine.entry;
  check "cell 0 restored" true (Value.equal (Heap.read h idx 0) (Value.Vint 1));
  check "cell 1 restored" true (Value.equal (Heap.read h idx 1) (Value.Vint 1));
  (* retry semantics: the level was re-entered *)
  check_int "level re-entered" 1 (Spec.Engine.depth e)

let test_commit_keeps () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:(Value.Vint 1) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 2);
  Spec.Engine.commit e 1;
  check_int "no levels left" 0 (Spec.Engine.depth e);
  check "committed value kept" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 2))

let test_one_clone_per_level () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:4 ~init:(Value.Vint 0) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  let used = Heap.used_cells h in
  Heap.write h idx 0 (Value.Vint 1);
  Heap.write h idx 1 (Value.Vint 2);
  Heap.write h idx 2 (Value.Vint 3);
  check_int "one clone for three writes" (used + Heap.header_cells + 4)
    (Heap.used_cells h);
  check_int "one record entry" 1 (Spec.Engine.level_saved_count e 1)

let test_no_clone_outside_speculation () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:(Value.Vint 0) in
  let used = Heap.used_cells h and addr = Heap.addr_of h idx in
  Heap.write h idx 0 (Value.Vint 1);
  check "no clones at level 0" true
    (Heap.used_cells h = used && Heap.addr_of h idx = addr);
  ignore e

let test_nested_rollback_outer () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:(Value.Vint 10) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 20);
  let _ = Spec.Engine.enter e ~cont:{ cont0 with entry = "inner" } in
  Heap.write h idx 0 (Value.Vint 30);
  check_int "two levels" 2 (Spec.Engine.depth e);
  (* rolling back to level 1 undoes BOTH levels' changes *)
  let cont = Spec.Engine.rollback e 1 in
  Alcotest.(check string) "outer continuation" "body" cont.Spec.Engine.entry;
  check "restored to pre-level-1 state" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 10));
  check_int "only re-entered level 1" 1 (Spec.Engine.depth e)

let test_nested_rollback_inner () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:(Value.Vint 10) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 20);
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 30);
  let _cont = Spec.Engine.rollback e 2 in
  check "inner rollback keeps outer changes" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 20));
  check_int "back at depth 2 (re-entered)" 2 (Spec.Engine.depth e)

let test_commit_inner_then_rollback_outer () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:(Value.Vint 1) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 2);
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 3);
  (* commit the inner level: its changes fold into level 1 *)
  Spec.Engine.commit e 2;
  check_int "one level left" 1 (Spec.Engine.depth e);
  check "inner value survives its commit" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 3));
  (* rollback of level 1 must now undo the folded changes too *)
  let _ = Spec.Engine.rollback e 1 in
  check "rollback undoes folded changes" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 1))

let test_fold_keeps_parent_original () =
  (* parent saved the block first: the child's (newer) original must be
     discarded on fold, keeping the parent's older copy *)
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:(Value.Vint 1) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 2);
  (* parent's original holds 1 *)
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 3);
  (* child's original holds 2 *)
  Spec.Engine.commit e 2;
  check_int "parent record still has one entry" 1
    (Spec.Engine.level_saved_count e 1);
  let _ = Spec.Engine.rollback e 1 in
  check "rollback restores the OLDEST original" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 1))

let test_out_of_order_commit () =
  (* commit level 1 while level 2 is still open (paper: "commits for
     speculations can occur out of order") *)
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:(Value.Vint 1) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 2);
  let _ = Spec.Engine.enter e ~cont:{ cont0 with entry = "lvl2" } in
  Heap.write h idx 0 (Value.Vint 3);
  Spec.Engine.commit e 1;
  check_int "one level left after committing the oldest" 1
    (Spec.Engine.depth e);
  (* the remaining level renumbers to 1; rolling it back restores the
     state at ITS entry (value 2), not the committed level's *)
  let cont = Spec.Engine.rollback e 1 in
  Alcotest.(check string) "renumbered level continuation" "lvl2"
    cont.Spec.Engine.entry;
  check "restored to level-2 entry state" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 2))

let test_out_of_order_commit_then_rollback_past () =
  (* the nested-level edge the .mli promises: commit a MIDDLE level out
     of order, then roll back PAST it — the rollback must undo the
     surviving outer level's own write, the write folded in by the
     committed middle level, and the (renumbered) newest level's write *)
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:3 ~init:(Value.Vint 0) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 1);
  let _ = Spec.Engine.enter e ~cont:{ cont0 with entry = "mid" } in
  Heap.write h idx 1 (Value.Vint 2);
  let _ = Spec.Engine.enter e ~cont:{ cont0 with entry = "top" } in
  Heap.write h idx 2 (Value.Vint 3);
  check_int "three levels open" 3 (Spec.Engine.depth e);
  Spec.Engine.commit e 2;
  check_int "middle commit leaves two levels" 2 (Spec.Engine.depth e);
  check "folded value survives its commit" true
    (Value.equal (Heap.read h idx 1) (Value.Vint 2));
  (* level 3 renumbered to 2; its uid must still resolve *)
  check_int "two stable uids remain" 2
    (List.length (Spec.Engine.unique_ids e));
  let cont = Spec.Engine.rollback e 1 in
  Alcotest.(check string) "level 1's continuation" "body"
    cont.Spec.Engine.entry;
  check "level 1's own write undone" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 0));
  check "committed middle level's write undone" true
    (Value.equal (Heap.read h idx 1) (Value.Vint 0));
  check "renumbered top level's write undone" true
    (Value.equal (Heap.read h idx 2) (Value.Vint 0));
  check_int "re-entered level 1 only" 1 (Spec.Engine.depth e)

let test_invalid_levels () =
  let h, e = make () in
  ignore h;
  (match Spec.Engine.commit e 1 with
  | exception Spec.Engine.Invalid_level _ -> ()
  | _ -> Alcotest.fail "commit with no levels accepted");
  let _ = Spec.Engine.enter e ~cont:cont0 in
  (match Spec.Engine.commit e 2 with
  | exception Spec.Engine.Invalid_level _ -> ()
  | _ -> Alcotest.fail "commit beyond depth accepted");
  match Spec.Engine.rollback e 0 with
  | exception Spec.Engine.Invalid_level _ -> ()
  | _ -> Alcotest.fail "rollback of level 0 accepted"

let test_new_blocks_in_speculation () =
  (* blocks allocated inside a speculation need no COW; after rollback they
     are garbage *)
  let h, e = make () in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:2 ~init:(Value.Vint 5) in
  Heap.write h idx 0 (Value.Vint 6);
  check_int "writes to fresh blocks are recorded" 1
    (Spec.Engine.level_saved_count e 1);
  let _ = Spec.Engine.rollback e 1 in
  (* the block still exists (its index was never freed) but its pointer
     entry now targets the pre-write copy *)
  check "fresh block rolled back to its pre-write state" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 5))

let test_gc_during_speculation () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:2 ~init:(Value.Vint 1) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 2);
  (* create garbage, then collect with the engine's records pinned *)
  for _ = 1 to 30 do
    ignore (Heap.alloc h ~tag:Heap.Array ~size:8 ~init:Value.Vunit)
  done;
  let res =
    Gc.collect h ~kind:Gc.Major
      ~roots:[ Value.Vptr (idx, 0) ]
      ~pinned:(Spec.Engine.records e)
  in
  Spec.Engine.rewrite_after_gc e res;
  check "speculative value survives GC" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 2));
  let _ = Spec.Engine.rollback e 1 in
  check "rollback works after compaction" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 1))

let test_snapshot_restore () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:(Value.Vint 1) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 2);
  let _ = Spec.Engine.enter e ~cont:{ cont0 with entry = "lvl2" } in
  Heap.write h idx 0 (Value.Vint 3);
  let snap = Spec.Engine.snapshot e in
  check_int "snapshot has both levels" 2 (List.length snap);
  (* rebuild a second engine over the same heap *)
  Heap.set_before_write h None;
  let e' = Spec.Engine.create h in
  Spec.Engine.restore e' snap;
  check_int "depth restored" 2 (Spec.Engine.depth e');
  let _ = Spec.Engine.rollback e' 1 in
  check "restored engine rolls back correctly" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 1))

let test_stats () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:(Value.Vint 0) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 1);
  Spec.Engine.commit e 1;
  let _ = Spec.Engine.enter e ~cont:cont0 in
  let _ = Spec.Engine.rollback e 1 in
  let m = Spec.Engine.metrics e in
  let count name = Obs.Metrics.counter_value m name in
  check_int "entered (incl. retry re-entry)" 3 (count "spec.entered");
  check_int "committed" 1 (count "spec.committed");
  check_int "rolled back" 1 (count "spec.rolled_back");
  check_int "blocks saved" 1 (count "spec.blocks_saved")

let test_trapping_write_does_not_clone () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:4 ~init:(Value.Vint 0) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  let used = Heap.used_cells h and addr = Heap.addr_of h idx in
  (match Heap.write h idx 99 (Value.Vint 1) with
  | exception Heap.Runtime_error _ -> ()
  | () -> Alcotest.fail "out-of-bounds write accepted");
  check_int "no clone" used (Heap.used_cells h);
  check_int "the index still targets the block" addr (Heap.addr_of h idx);
  check_int "nothing saved" 0 (Spec.Engine.level_saved_count e 1);
  check_int "blocks_saved unchanged" 0
    (Obs.Metrics.counter_value (Spec.Engine.metrics e) "spec.blocks_saved")

(* One clone per block per level, across level changes: a write clones
   exactly when the newest open level has not yet saved the block.  Each
   case pins the saved/discarded counters and the heap's growth (one
   clone of a 4-cell block = header + 4 cells). *)

let clone_cells = Heap.header_cells + 4

let spec_count e name = Obs.Metrics.counter_value (Spec.Engine.metrics e) name

let test_clone_again_in_nested_level () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:4 ~init:(Value.Vint 0) in
  let used = Heap.used_cells h in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 1);
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 1 (Value.Vint 2);
  check_int "the inner level clones again" (used + (2 * clone_cells))
    (Heap.used_cells h);
  check_int "two saved" 2 (spec_count e "spec.blocks_saved");
  (* the inner level folds into the outer, which already saved the block *)
  Spec.Engine.commit e 2;
  Heap.write h idx 2 (Value.Vint 3);
  check_int "no clone after the commit" (used + (2 * clone_cells))
    (Heap.used_cells h);
  check_int "still two saved" 2 (spec_count e "spec.blocks_saved");
  check_int "the inner original discarded" 1
    (spec_count e "spec.blocks_discarded");
  check_int "the outer record holds the block" 1
    (Spec.Engine.level_saved_count e 1)

let test_middle_commit_then_top_write () =
  let h, e = make () in
  let a = Heap.alloc h ~tag:Heap.Array ~size:4 ~init:(Value.Vint 0) in
  let b = Heap.alloc h ~tag:Heap.Array ~size:4 ~init:(Value.Vint 0) in
  let used = Heap.used_cells h in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h a 0 (Value.Vint 1);
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h b 0 (Value.Vint 1);
  check_int "one clone each" (used + (2 * clone_cells)) (Heap.used_cells h);
  (* commit the middle level while the newest one stays open *)
  Spec.Engine.commit e 2;
  Heap.write h b 1 (Value.Vint 2);
  check_int "the top level already holds b" (used + (2 * clone_cells))
    (Heap.used_cells h);
  Heap.write h a 1 (Value.Vint 2);
  check_int "a was saved below the top: clone" (used + (3 * clone_cells))
    (Heap.used_cells h);
  Heap.write h a 2 (Value.Vint 3);
  check_int "and only once" (used + (3 * clone_cells)) (Heap.used_cells h);
  check_int "three saved" 3 (spec_count e "spec.blocks_saved");
  check_int "nothing discarded (the outer level saved nothing)" 0
    (spec_count e "spec.blocks_discarded");
  check_int "top record" 2 (Spec.Engine.level_saved_count e 2);
  check_int "outer record" 1 (Spec.Engine.level_saved_count e 1)

let test_rollback_then_fresh_level_clones () =
  let h, e = make () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:4 ~init:(Value.Vint 0) in
  let used = Heap.used_cells h in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 1);
  let _ = Spec.Engine.rollback e 1 in
  Heap.write h idx 0 (Value.Vint 2);
  check_int "the re-entered level clones" (used + (2 * clone_cells))
    (Heap.used_cells h);
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 3);
  check_int "a fresh level clones" (used + (3 * clone_cells))
    (Heap.used_cells h);
  Spec.Engine.commit e 2;
  Spec.Engine.commit e 1;
  check_int "both originals discarded" 2
    (spec_count e "spec.blocks_discarded");
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h idx 0 (Value.Vint 4);
  check_int "a level entered after the commit clones" (used + (4 * clone_cells))
    (Heap.used_cells h);
  check_int "four saved" 4 (spec_count e "spec.blocks_saved")

let test_restore_then_write_saved () =
  let h, e = make () in
  let a = Heap.alloc h ~tag:Heap.Array ~size:4 ~init:(Value.Vint 0) in
  let b = Heap.alloc h ~tag:Heap.Array ~size:4 ~init:(Value.Vint 0) in
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h a 0 (Value.Vint 1);
  let _ = Spec.Engine.enter e ~cont:cont0 in
  Heap.write h b 0 (Value.Vint 1);
  let snap = Spec.Engine.snapshot e in
  Heap.set_before_write h None;
  let e' = Spec.Engine.create h in
  Spec.Engine.restore e' snap;
  let used = Heap.used_cells h in
  Heap.write h b 1 (Value.Vint 2);
  check_int "b is saved in the restored top level" used (Heap.used_cells h);
  Heap.write h a 1 (Value.Vint 2);
  check_int "a is saved only below it: clone" (used + clone_cells)
    (Heap.used_cells h);
  check_int "one saved by the restored engine" 1
    (spec_count e' "spec.blocks_saved");
  check_int "restored top record" 2 (Spec.Engine.level_saved_count e' 2)

(* ------------------------------------------------------------------ *)
(* Model-based property                                                *)
(* ------------------------------------------------------------------ *)

(* The model: heap contents as an int array per block; speculation as a
   stack of (model copies).  We apply random writes / enters / commits /
   rollbacks to both the real engine and the model and compare. *)

type op = Write of int * int * int | Enter | Commit of int | Rollback of int

let op_gen nblocks =
  let open QCheck.Gen in
  frequency
    [
      ( 6,
        map3
          (fun b o v -> Write (b mod nblocks, o, v))
          small_nat (int_range 0 3) small_int );
      2, return Enter;
      1, map (fun l -> Commit l) (int_range 1 4);
      1, map (fun l -> Rollback l) (int_range 1 4);
    ]

let prop_spec_matches_model =
  QCheck.Test.make ~count:120 ~name:"speculation matches a snapshot model"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 60) (op_gen 4))
       ~print:(fun ops ->
         String.concat ";"
           (List.map
              (function
                | Write (b, o, v) -> Printf.sprintf "w%d[%d]=%d" b o v
                | Enter -> "enter"
                | Commit l -> Printf.sprintf "commit%d" l
                | Rollback l -> Printf.sprintf "rollback%d" l)
              ops)))
    (fun ops ->
      let nblocks = 4 and bsize = 4 in
      let h = Heap.create () in
      let e = Spec.Engine.create h in
      let idxs =
        Array.init nblocks (fun _ ->
            Heap.alloc h ~tag:Heap.Array ~size:bsize ~init:(Value.Vint 0))
      in
      (* model: a mutable current state plus one snapshot (deep copy taken
         at entry) per open level, newest first *)
      let current = Array.make_matrix nblocks bsize 0 in
      let stack = ref [] in
      let deep_copy m = Array.map Array.copy m in
      let agree () =
        try
          for b = 0 to nblocks - 1 do
            for o = 0 to bsize - 1 do
              if not (Value.equal (Heap.read h idxs.(b) o)
                        (Value.Vint current.(b).(o)))
              then raise Exit
            done
          done;
          true
        with Exit -> false
      in
      let rec drop_nth k = function
        | [] -> []
        | x :: rest -> if k = 0 then rest else x :: drop_nth (k - 1) rest
      in
      let rec drop k l = if k = 0 then l else
          match l with [] -> [] | _ :: rest -> drop (k - 1) rest
      in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Write (b, o, v) ->
            Heap.write h idxs.(b) o (Value.Vint v);
            current.(b).(o) <- v
          | Enter ->
            let _ = Spec.Engine.enter e ~cont:cont0 in
            stack := deep_copy current :: !stack
          | Commit l ->
            let n = Spec.Engine.depth e in
            if l <= n then begin
              Spec.Engine.commit e l;
              (* folding level l into l-1: the model forgets the snapshot
                 taken at entry to level l; the current state is unchanged *)
              stack := drop_nth (n - l) !stack
            end
          | Rollback l ->
            let n = Spec.Engine.depth e in
            if l <= n then begin
              let _ = Spec.Engine.rollback e l in
              (* restore level l's entry snapshot, drop levels l..N, then
                 re-enter (retry semantics) *)
              match drop (n - l) !stack with
              | entry_snapshot :: rest ->
                Array.iteri
                  (fun b row -> Array.blit entry_snapshot.(b) 0 row 0 bsize)
                  current;
                stack := deep_copy current :: rest
              | [] -> ()
            end);
          if not (agree ()) then ok := false)
        ops;
      Heap.validate h;
      !ok && agree ())

let suites =
  [
    ( "spec.engine",
      [
        Alcotest.test_case "rollback restores heap" `Quick
          test_rollback_restores;
        Alcotest.test_case "commit keeps changes" `Quick test_commit_keeps;
        Alcotest.test_case "one clone per block per level" `Quick
          test_one_clone_per_level;
        Alcotest.test_case "no COW outside speculation" `Quick
          test_no_clone_outside_speculation;
        Alcotest.test_case "nested rollback to outer" `Quick
          test_nested_rollback_outer;
        Alcotest.test_case "nested rollback of inner" `Quick
          test_nested_rollback_inner;
        Alcotest.test_case "commit inner then rollback outer" `Quick
          test_commit_inner_then_rollback_outer;
        Alcotest.test_case "fold keeps parent original" `Quick
          test_fold_keeps_parent_original;
        Alcotest.test_case "out-of-order commit" `Quick test_out_of_order_commit;
        Alcotest.test_case "out-of-order commit then rollback past it"
          `Quick test_out_of_order_commit_then_rollback_past;
        Alcotest.test_case "invalid levels rejected" `Quick test_invalid_levels;
        Alcotest.test_case "fresh blocks inside speculation" `Quick
          test_new_blocks_in_speculation;
        Alcotest.test_case "GC during speculation" `Quick
          test_gc_during_speculation;
        Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
        Alcotest.test_case "statistics" `Quick test_stats;
        Alcotest.test_case "a trapping write does not clone" `Quick
          test_trapping_write_does_not_clone;
        Alcotest.test_case "nested level clones again, fold does not" `Quick
          test_clone_again_in_nested_level;
        Alcotest.test_case "middle commit, then write from the top" `Quick
          test_middle_commit_then_top_write;
        Alcotest.test_case "rollback or fresh level clones again" `Quick
          test_rollback_then_fresh_level_clones;
        Alcotest.test_case "restore, then write a saved index" `Quick
          test_restore_then_write_saved;
        QCheck_alcotest.to_alcotest prop_spec_matches_model;
      ] );
  ]
