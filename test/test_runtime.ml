(* Tests for the runtime: pointer table, function table, heap, GC. *)

open Runtime

open Kit

(* ------------------------------------------------------------------ *)
(* Pointer table                                                       *)
(* ------------------------------------------------------------------ *)

let test_ptable_basic () =
  let t = Pointer_table.create () in
  let i1 = Pointer_table.alloc t 100 in
  let i2 = Pointer_table.alloc t 200 in
  check "distinct indices" true (i1 <> i2);
  check_int "get i1" 100 (Pointer_table.get t i1);
  check_int "get i2" 200 (Pointer_table.get t i2);
  Pointer_table.set t i1 150;
  check_int "set retargets" 150 (Pointer_table.get t i1);
  check_int "live count" 2 (Pointer_table.live_count t)

let test_ptable_validation () =
  let t = Pointer_table.create () in
  let i = Pointer_table.alloc t 10 in
  (* out of bounds: index beyond the high-water mark *)
  (match Pointer_table.get t (i + 1) with
  | exception Pointer_table.Invalid_pointer _ -> ()
  | _ -> Alcotest.fail "out-of-bounds index accepted");
  (match Pointer_table.get t (-1) with
  | exception Pointer_table.Invalid_pointer _ -> ()
  | _ -> Alcotest.fail "negative index accepted");
  Pointer_table.free t i;
  match Pointer_table.get t i with
  | exception Pointer_table.Invalid_pointer _ -> ()
  | _ -> Alcotest.fail "free entry accepted"

let test_ptable_reuse () =
  let t = Pointer_table.create () in
  let i1 = Pointer_table.alloc t 10 in
  let _i2 = Pointer_table.alloc t 20 in
  Pointer_table.free t i1;
  let i3 = Pointer_table.alloc t 30 in
  check "freed index reused" true (i1 = i3);
  check_int "table did not grow" 2 (Pointer_table.size t)

let test_ptable_growth () =
  let t = Pointer_table.create ~initial_capacity:2 () in
  let idxs = List.init 100 (fun k -> Pointer_table.alloc t (k * 10)) in
  List.iteri
    (fun k idx -> check_int "value survives growth" (k * 10)
        (Pointer_table.get t idx))
    idxs

let test_ptable_snapshot () =
  let t = Pointer_table.create () in
  let i1 = Pointer_table.alloc t 11 in
  let i2 = Pointer_table.alloc t 22 in
  Pointer_table.free t i1;
  let snap = Pointer_table.snapshot t in
  let t' = Pointer_table.restore snap in
  check_int "size preserved" (Pointer_table.size t) (Pointer_table.size t');
  check_int "live preserved" 1 (Pointer_table.live_count t');
  check_int "entry preserved" 22 (Pointer_table.get t' i2);
  check "freed entry still free" false (Pointer_table.is_valid t' i1);
  (* a fresh alloc in the restored table reuses the free slot *)
  let i3 = Pointer_table.alloc t' 33 in
  check "restored free list works" true (i3 = i1)

(* ------------------------------------------------------------------ *)
(* Function table                                                      *)
(* ------------------------------------------------------------------ *)

let test_ftable () =
  let t = Function_table.of_program_names [ "zebra"; "alpha"; "main" ] in
  check_int "count" 3 (Function_table.count t);
  (* deterministic: sorted by name *)
  check_int "alpha first" 0 (Function_table.index t "alpha");
  check_int "zebra last" 2 (Function_table.index t "zebra");
  Alcotest.(check string) "name roundtrip" "main"
    (Function_table.name t (Function_table.index t "main"));
  (match Function_table.name t 99 with
  | exception Function_table.Invalid_function _ -> ()
  | _ -> Alcotest.fail "bad function index accepted");
  match Function_table.of_names [ "f"; "f" ] with
  | exception Function_table.Invalid_function _ -> ()
  | _ -> Alcotest.fail "duplicate function accepted"

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_alloc_rw () =
  let h = Heap.create () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:5 ~init:(Value.Vint 0) in
  check_int "size" 5 (Heap.block_size h idx);
  Heap.write h idx 2 (Value.Vint 42);
  check "read back" true (Value.equal (Heap.read h idx 2) (Value.Vint 42));
  check "untouched cell" true (Value.equal (Heap.read h idx 0) (Value.Vint 0))

let test_heap_bounds () =
  let h = Heap.create () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:3 ~init:Value.Vunit in
  (match Heap.read h idx 3 with
  | exception Heap.Runtime_error _ -> ()
  | _ -> Alcotest.fail "out-of-bounds read accepted");
  (match Heap.write h idx (-1) Value.Vunit with
  | exception Heap.Runtime_error _ -> ()
  | _ -> Alcotest.fail "negative offset accepted");
  match Heap.read h (idx + 100) 0 with
  | exception Pointer_table.Invalid_pointer _ -> ()
  | _ -> Alcotest.fail "invalid index accepted"

let test_heap_tuple_raw () =
  let h = Heap.create () in
  let t = Heap.alloc_tuple h [ Value.Vint 1; Value.Vbool true ] in
  check "tuple tag" true (Heap.block_tag h t = Heap.Tuple);
  check "tuple field" true (Value.equal (Heap.read h t 1) (Value.Vbool true));
  let r = Heap.alloc_raw h "hello" in
  Alcotest.(check string) "raw roundtrip" "hello" (Heap.raw_to_string h r);
  check_int "raw size" 5 (Heap.block_size h r);
  match Heap.raw_to_string h t with
  | exception Heap.Runtime_error _ -> ()
  | _ -> Alcotest.fail "raw_to_string on tuple accepted"

let test_heap_cow_clone () =
  let h = Heap.create () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:2 ~init:(Value.Vint 7) in
  let used = Heap.used_cells h in
  let original = Heap.clone_for_cow h idx in
  check "the index targets the clone" true (Heap.addr_of h idx <> original);
  check_int "one block cloned" (used + Heap.header_cells + 2)
    (Heap.used_cells h);
  (* the clone is now the target; mutating it leaves the original alone *)
  Heap.write h idx 0 (Value.Vint 99);
  check "clone mutated" true (Value.equal (Heap.read h idx 0) (Value.Vint 99));
  Heap.retarget h idx original;
  check "original preserved" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 7))

let test_heap_growth () =
  let h = Heap.create ~initial_cells:64 () in
  let idxs =
    List.init 50 (fun k ->
        let idx = Heap.alloc h ~tag:Heap.Array ~size:10 ~init:(Value.Vint k) in
        idx, k)
  in
  List.iter
    (fun (idx, k) ->
      check "data survives growth" true
        (Value.equal (Heap.read h idx 9) (Value.Vint k)))
    idxs

(* ------------------------------------------------------------------ *)
(* GC                                                                  *)
(* ------------------------------------------------------------------ *)

let test_gc_collects_garbage () =
  let h = Heap.create () in
  let live = Heap.alloc h ~tag:Heap.Array ~size:4 ~init:(Value.Vint 1) in
  let _dead = Heap.alloc h ~tag:Heap.Array ~size:100 ~init:(Value.Vint 2) in
  let before = Heap.used_cells h in
  let res =
    Gc.collect h ~kind:Gc.Major ~roots:[ Value.Vptr (live, 0) ] ~pinned:[]
  in
  check_int "one block collected" 1 res.Gc.collected_blocks;
  check "heap shrank" true (Heap.used_cells h < before);
  check "live data intact" true
    (Value.equal (Heap.read h live 3) (Value.Vint 1))

let test_gc_transitive () =
  let h = Heap.create () in
  let inner = Heap.alloc h ~tag:Heap.Array ~size:2 ~init:(Value.Vint 5) in
  let outer = Heap.alloc_tuple h [ Value.Vptr (inner, 0) ] in
  let _garbage = Heap.alloc h ~tag:Heap.Array ~size:50 ~init:Value.Vunit in
  let _res =
    Gc.collect h ~kind:Gc.Major ~roots:[ Value.Vptr (outer, 0) ] ~pinned:[]
  in
  check "inner reachable through outer" true
    (Value.equal (Heap.read h inner 0) (Value.Vint 5));
  (* the dead block's pointer-table entry was freed for reuse *)
  let fresh = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:Value.Vunit in
  check "dead index reused" true (fresh <> inner && fresh <> outer)

let test_gc_compaction_moves () =
  let h = Heap.create () in
  let _dead = Heap.alloc h ~tag:Heap.Array ~size:64 ~init:Value.Vunit in
  let live = Heap.alloc h ~tag:Heap.Array ~size:4 ~init:(Value.Vint 9) in
  let addr_before = Pointer_table.get (Heap.pointer_table h) live in
  let res =
    Gc.collect h ~kind:Gc.Major ~roots:[ Value.Vptr (live, 0) ] ~pinned:[]
  in
  let addr_after = Pointer_table.get (Heap.pointer_table h) live in
  check "block slid down" true (addr_after < addr_before);
  check "forward map recorded the move" true
    (Gc.forward_addr res addr_before = addr_after);
  check "contents preserved across move" true
    (Value.equal (Heap.read h live 0) (Value.Vint 9))

let test_gc_minor_remembered_set () =
  let h = Heap.create () in
  (* make an old block *)
  let old_blk = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:Value.Vunit in
  let _ = Gc.collect h ~kind:Gc.Major ~roots:[ Value.Vptr (old_blk, 0) ]
      ~pinned:[] in
  (* young block referenced ONLY from the old block *)
  let young = Heap.alloc h ~tag:Heap.Array ~size:2 ~init:(Value.Vint 3) in
  Heap.write h old_blk 0 (Value.Vptr (young, 0));
  check "barrier remembered the old block" true
    (List.mem old_blk (Heap.remembered_indices h));
  let _ =
    Gc.collect h ~kind:Gc.Minor ~roots:[ Value.Vptr (old_blk, 0) ] ~pinned:[]
  in
  check "young block survived via remembered set" true
    (Value.equal (Heap.read h young 0) (Value.Vint 3))

let test_gc_minor_ignores_old () =
  let h = Heap.create () in
  let old_blk = Heap.alloc h ~tag:Heap.Array ~size:8 ~init:(Value.Vint 1) in
  let _ = Gc.collect h ~kind:Gc.Major ~roots:[ Value.Vptr (old_blk, 0) ]
      ~pinned:[] in
  let _young_garbage =
    Heap.alloc h ~tag:Heap.Array ~size:16 ~init:Value.Vunit
  in
  (* old block is NOT in the root set of the minor collection, but minor
     collections never free old blocks *)
  let res = Gc.collect h ~kind:Gc.Minor ~roots:[] ~pinned:[] in
  check_int "only the young garbage went" 1 res.Gc.collected_blocks;
  check "old block untouched" true
    (Value.equal (Heap.read h old_blk 0) (Value.Vint 1))

let test_gc_pinned_records () =
  let h = Heap.create () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:3 ~init:(Value.Vint 7) in
  let original = Heap.clone_for_cow h idx in
  Heap.write h idx 0 (Value.Vint 8);
  (* the original is not pointer-table reachable; without pinning it would
     be collected *)
  let res =
    Gc.collect h ~kind:Gc.Major
      ~roots:[ Value.Vptr (idx, 0) ]
      ~pinned:[ idx, original ]
  in
  let original' = Gc.forward_addr res original in
  Heap.retarget h idx original';
  check "original restorable after GC" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 7))

let test_gc_pinned_inner_refs () =
  (* a block referenced only from a pinned original must survive *)
  let h = Heap.create () in
  let inner = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:(Value.Vint 11) in
  let idx = Heap.alloc_tuple h [ Value.Vptr (inner, 0) ] in
  let original = Heap.clone_for_cow h idx in
  (* overwrite the reference in the clone: inner now referenced only from
     the original *)
  Heap.write h idx 0 Value.Vunit;
  let res =
    Gc.collect h ~kind:Gc.Major
      ~roots:[ Value.Vptr (idx, 0) ]
      ~pinned:[ idx, original ]
  in
  check "inner survived through pinned original" true
    (Value.equal (Heap.read h inner 0) (Value.Vint 11));
  let original' = Gc.forward_addr res original in
  Heap.retarget h idx original';
  match Heap.read h idx 0 with
  | Value.Vptr (j, 0) ->
    check "restored original still references inner" true (j = inner)
  | v -> Alcotest.failf "unexpected restored cell %s" (Value.to_string v)

let test_gc_empty_roots () =
  let h = Heap.create () in
  let _a = Heap.alloc h ~tag:Heap.Array ~size:10 ~init:Value.Vunit in
  let _b = Heap.alloc h ~tag:Heap.Raw ~size:10 ~init:(Value.Vint 0) in
  let res = Gc.collect h ~kind:Gc.Major ~roots:[] ~pinned:[] in
  check_int "everything collected" 2 res.Gc.collected_blocks;
  check_int "heap empty" 0 (Heap.used_cells h);
  check_int "no live entries" 0 (Pointer_table.live_count (Heap.pointer_table h))

(* Model-based property: random object graphs survive GC intact. *)
let prop_gc_preserves_reachable =
  QCheck.Test.make ~count:60 ~name:"GC preserves reachable object graphs"
    QCheck.(pair (int_range 1 40) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let h = Heap.create () in
      (* build n blocks, each holding ints and random back-references *)
      let idxs = Array.make n 0 in
      for k = 0 to n - 1 do
        let size = 1 + Random.State.int rng 6 in
        let idx = Heap.alloc h ~tag:Heap.Array ~size ~init:(Value.Vint k) in
        idxs.(k) <- idx;
        if k > 0 && Random.State.bool rng then
          Heap.write h idx 0
            (Value.Vptr (idxs.(Random.State.int rng k), 0))
      done;
      (* garbage *)
      for _ = 1 to 20 do
        ignore (Heap.alloc h ~tag:Heap.Array ~size:3 ~init:Value.Vunit)
      done;
      (* record the full reachable contents from a random subset of roots *)
      let roots =
        Array.to_list idxs
        |> List.filter (fun _ -> Random.State.bool rng)
        |> List.map (fun idx -> Value.Vptr (idx, 0))
      in
      let reachable_contents () =
        let seen = Hashtbl.create 16 in
        let rec go v =
          match v with
          | Value.Vptr (j, _) when not (Hashtbl.mem seen j) ->
            Hashtbl.add seen j ();
            let size = Heap.block_size h j in
            List.init size (fun o -> Heap.read h j o) |> List.iter go
          | _ -> ()
        in
        List.iter go roots;
        Hashtbl.fold
          (fun j () acc ->
            let size = Heap.block_size h j in
            (j, List.init size (fun o -> Heap.read h j o)) :: acc)
          seen []
        |> List.sort compare
      in
      let before = reachable_contents () in
      Heap.validate h;
      let _ = Gc.collect h ~kind:Gc.Major ~roots ~pinned:[] in
      Heap.validate h;
      let after = reachable_contents () in
      List.length before = List.length after
      && List.for_all2
           (fun (j1, c1) (j2, c2) ->
             j1 = j2 && List.for_all2 Value.equal c1 c2)
           before after)

let suites =
  [
    ( "runtime.pointer_table",
      [
        Alcotest.test_case "alloc/get/set" `Quick test_ptable_basic;
        Alcotest.test_case "validation" `Quick test_ptable_validation;
        Alcotest.test_case "free-list reuse" `Quick test_ptable_reuse;
        Alcotest.test_case "growth" `Quick test_ptable_growth;
        Alcotest.test_case "snapshot/restore" `Quick test_ptable_snapshot;
      ] );
    ( "runtime.function_table",
      [ Alcotest.test_case "deterministic numbering" `Quick test_ftable ] );
    ( "runtime.heap",
      [
        Alcotest.test_case "alloc/read/write" `Quick test_heap_alloc_rw;
        Alcotest.test_case "bounds checking" `Quick test_heap_bounds;
        Alcotest.test_case "tuples and raw blocks" `Quick test_heap_tuple_raw;
        Alcotest.test_case "copy-on-write clone" `Quick test_heap_cow_clone;
        Alcotest.test_case "store growth" `Quick test_heap_growth;
      ] );
    ( "runtime.gc",
      [
        Alcotest.test_case "collects garbage" `Quick test_gc_collects_garbage;
        Alcotest.test_case "transitive marking" `Quick test_gc_transitive;
        Alcotest.test_case "compaction relocates" `Quick
          test_gc_compaction_moves;
        Alcotest.test_case "minor uses remembered set" `Quick
          test_gc_minor_remembered_set;
        Alcotest.test_case "minor leaves old gen alone" `Quick
          test_gc_minor_ignores_old;
        Alcotest.test_case "pinned originals survive" `Quick
          test_gc_pinned_records;
        Alcotest.test_case "refs inside pinned originals survive" `Quick
          test_gc_pinned_inner_refs;
        Alcotest.test_case "no roots collects all" `Quick test_gc_empty_roots;
        QCheck_alcotest.to_alcotest prop_gc_preserves_reachable;
      ] );
  ]
