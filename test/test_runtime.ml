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

(* Every trap of [read] and [write] keeps the exception and the message
   of the composed path ([Pointer_table.get], then the size check), and
   a trapping write calls no hook, marks no page and stores nothing. *)
let test_heap_trap_table () =
  let h = Heap.create () in
  let live = Heap.alloc h ~tag:Heap.Array ~size:3 ~init:(Value.Vint 5) in
  let freed = Heap.alloc h ~tag:Heap.Array ~size:3 ~init:(Value.Vint 6) in
  Pointer_table.free (Heap.pointer_table h) freed;
  let high = Pointer_table.size (Heap.pointer_table h) in
  let ptr msg = Pointer_table.Invalid_pointer msg in
  let heap msg = Heap.Runtime_error msg in
  let cases =
    [
      "negative index", -1, 0,
      ptr (Printf.sprintf "index -1 out of table bounds [0,%d)" high);
      "index at the table size", high, 0,
      ptr (Printf.sprintf "index %d out of table bounds [0,%d)" high high);
      "freed index", freed, 0,
      ptr (Printf.sprintf "index %d refers to a free entry" freed);
      "negative offset", live, -1,
      heap "offset -1 out of bounds for block of size 3";
      "offset at the size", live, 3,
      heap "offset 3 out of bounds for block of size 3";
    ]
  in
  let hooked = ref 0 in
  Heap.set_before_write h (Some (fun _ -> incr hooked));
  Heap.clear_dirty h;
  let cells = Heap.cells h in
  let raised name f expected =
    match f () with
    | exception e ->
      check_str name (Printexc.to_string expected) (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: no trap" name
  in
  List.iter
    (fun (name, idx, off, expected) ->
      raised ("read, " ^ name)
        (fun () -> ignore (Heap.read h idx off))
        expected;
      raised ("write, " ^ name)
        (fun () -> Heap.write h idx off (Value.Vint 99))
        expected)
    cases;
  check_int "no hook ran" 0 !hooked;
  let snap = Heap.dirty_snapshot h in
  List.iter
    (fun idx -> check "no page marked" false (Heap.page_dirty snap idx 0))
    [ live; freed ];
  check "nothing stored" true (Array.for_all2 Value.equal cells (Heap.cells h))

(* A write under an open speculation level clones the block first: the
   original keeps the old value, the index targets the clone, which
   holds the new one, and the clone's page is dirty. *)
let test_heap_write_under_speculation () =
  let h = Heap.create () in
  let idx = Heap.alloc h ~tag:Heap.Array ~size:2 ~init:(Value.Vint 7) in
  let spec = Spec.Engine.create h in
  let before = Heap.addr_of h idx in
  ignore (Spec.Engine.enter spec ~cont:{ Spec.Engine.entry = "k"; args = [] });
  Heap.clear_dirty h;
  Heap.write h idx 1 (Value.Vint 8);
  check "the index targets a clone" true (Heap.addr_of h idx <> before);
  check "the level saved the original" true
    (Spec.Engine.records spec = [ idx, before ]);
  check "the original keeps the old value" true
    (Value.equal h.Heap.store.(before + Heap.header_cells + 1) (Value.Vint 7));
  check "the clone holds the new value" true
    (Value.equal (Heap.read h idx 1) (Value.Vint 8));
  check "the clone's page is dirty" true
    (Heap.page_dirty (Heap.dirty_snapshot h) idx 0);
  (* a second write in the same level writes the clone in place *)
  let clone = Heap.addr_of h idx in
  Heap.write h idx 0 (Value.Vint 9);
  check_int "no second clone" clone (Heap.addr_of h idx)

(* The barrier: a young pointer stored into an old block is remembered
   by the old block's index; a non-pointer or an old pointer is not. *)
let test_heap_barrier_remembers () =
  let h = Heap.create () in
  let old = Heap.alloc h ~tag:Heap.Array ~size:2 ~init:Value.Vunit in
  let old2 = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:Value.Vunit in
  h.Heap.young_start <- Heap.used_cells h;
  let young = Heap.alloc h ~tag:Heap.Array ~size:1 ~init:Value.Vunit in
  Heap.write h old 0 (Value.Vint 1);
  Heap.write h old 1 (Value.Vptr (old2, 0));
  Heap.write h young 0 (Value.Vptr (young, 0));
  check "nothing remembered yet" true (Heap.remembered_indices h = []);
  Heap.write h old 1 (Value.Vptr (young, 0));
  check "the old block is remembered" true
    (Heap.remembered_indices h = [ old ])

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

(* Capacity is the GC-pacing number, kept apart from the store.  Its
   rule is the one the store's length followed when the two were one: a
   fresh heap holds [max 64 initial_cells], a restored one [max 64] of
   its image, and a shortfall doubles it until the need fits. *)
let doubled_until cap needed =
  let cap = ref cap in
  while !cap < needed do
    cap := 2 * !cap
  done;
  !cap

(* A restorable heap of exactly [n] cells (one block). *)
let image_of n =
  let h = Heap.create () in
  ignore (Heap.alloc h ~tag:Heap.Array ~size:(n - Heap.header_cells)
            ~init:(Value.Vint 7));
  Heap.cells h, Pointer_table.snapshot (Heap.pointer_table h)

let restored n =
  let cells, ptable_snapshot = image_of n in
  Heap.restore ~cells ~ptable_snapshot

let alloc_n h ~blocks ~size =
  for _ = 1 to blocks do
    ignore (Heap.alloc h ~tag:Heap.Array ~size ~init:Value.Vunit)
  done

let test_heap_capacity_table () =
  List.iter
    (fun (what, build, expected) ->
      check_int what expected (Heap.capacity (build ())))
    [
      "create, default", (fun () -> Heap.create ()), 4096;
      "create 10", (fun () -> Heap.create ~initial_cells:10 ()), 64;
      "create 100", (fun () -> Heap.create ~initial_cells:100 ()), 100;
      ( "restore empty",
        (fun () -> Heap.restore ~cells:[||] ~ptable_snapshot:[||]),
        64 );
      "restore 1000", (fun () -> restored 1000), 1000;
      ( "restore 1000, reserve 4000",
        (fun () ->
          let h = restored 1000 in
          Heap.reserve h 4000;
          h),
        4000 );
      ( "restore 1000, reserve 3000",
        (fun () ->
          let h = restored 1000 in
          Heap.reserve h 3000;
          h),
        4000 );
      ( "restore 1000, reserve 500",
        (fun () ->
          let h = restored 1000 in
          Heap.reserve h 500;
          h),
        1000 );
      ( "restore 1000, alloc 100",
        (fun () ->
          let h = restored 1000 in
          alloc_n h ~blocks:1 ~size:96;
          h),
        2000 );
      ( "create 64, alloc 100",
        (fun () ->
          let h = Heap.create ~initial_cells:64 () in
          alloc_n h ~blocks:1 ~size:100;
          h),
        doubled_until 64 104 );
      ( "create 100, twenty 14-cell blocks",
        (fun () ->
          let h = Heap.create ~initial_cells:100 () in
          alloc_n h ~blocks:20 ~size:10;
          h),
        400 );
    ]

(* [needs_major] fires above three quarters of the capacity, at the
   same allocation pointer as when the capacity was the store length. *)
let test_heap_needs_major_flip () =
  let h = Heap.create ~initial_cells:256 () in
  let cap = ref 256 in
  let first = ref None in
  for _ = 1 to 400 do
    alloc_n h ~blocks:1 ~size:1;
    cap := doubled_until !cap (Heap.used_cells h);
    check_int "capacity follows the doubling rule" !cap (Heap.capacity h);
    let expected = Heap.used_cells h > 3 * !cap / 4 in
    check
      (Printf.sprintf "needs_major at %d cells" (Heap.used_cells h))
      expected (Heap.needs_major h);
    if expected && !first = None then first := Some (Heap.used_cells h)
  done;
  check "first flip just past 3/4 of 256" true (!first = Some 195)

(* Raising the capacity allocates nothing: a restored heap's store stays
   at the image plus the restore slack until allocation reaches it, and
   then grows no further than the capacity. *)
let test_heap_store_on_demand () =
  let h = restored 1000 in
  let used = Heap.used_cells h in
  Heap.reserve h (4 * used);
  check_int "capacity raised" 4000 (Heap.capacity h);
  check "store still the image plus slack" true
    (Array.length h.Heap.store <= used + Heap.restore_slack);
  let small = Heap.alloc h ~tag:Heap.Tuple ~size:10 ~init:(Value.Vint 1) in
  check "a small allocation fits the slack" true
    (Array.length h.Heap.store <= used + Heap.restore_slack);
  alloc_n h ~blocks:10 ~size:100;
  check "store grew" true (Array.length h.Heap.store >= Heap.used_cells h);
  check "store within the capacity" true
    (Array.length h.Heap.store <= Heap.capacity h);
  check_int "capacity unmoved by growth below it" 4000 (Heap.capacity h);
  check "image survives growth" true
    (Value.equal (Heap.read h 0 0) (Value.Vint 7));
  check "new block survives growth" true
    (Value.equal (Heap.read h small 9) (Value.Vint 1));
  Heap.validate h

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

(* ------------------------------------------------------------------ *)
(* Dirty-page tracking                                                 *)
(* ------------------------------------------------------------------ *)

(* Model-based property: under random allocation, writes, speculation
   (copy-on-write clones and rollback retargets), minor and major
   collections and clears, the heap's dirty snapshot equals a reference
   set kept here, and it covers every page whose cells differ from the
   baseline taken at the last clear.  Every sequence starts by freeing an
   index and reusing it for a smaller block. *)

type dirty_op =
  | D_alloc of int (* data cells *)
  | D_write of int * int * int (* root choice, offset choice, value *)
  | D_drop of int (* root choice: the block becomes garbage *)
  | D_enter
  | D_commit of int
  | D_rollback of int
  | D_collect of Gc.kind
  | D_clear

let dirty_op_to_string = function
  | D_alloc n -> Printf.sprintf "alloc%d" n
  | D_write (r, o, v) -> Printf.sprintf "w%d[%d]=%d" r o v
  | D_drop r -> Printf.sprintf "drop%d" r
  | D_enter -> "enter"
  | D_commit l -> Printf.sprintf "commit%d" l
  | D_rollback l -> Printf.sprintf "rollback%d" l
  | D_collect Gc.Minor -> "minor"
  | D_collect Gc.Major -> "major"
  | D_clear -> "clear"

let dirty_op_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 3,
        map
          (fun n -> D_alloc n)
          (frequency [ 4, int_range 0 8; 1, int_range 60 200 ]) );
      ( 8,
        map3 (fun r o v -> D_write (r, o, v)) small_nat (int_bound 255)
          small_int );
      1, map (fun r -> D_drop r) small_nat;
      2, return D_enter;
      1, map (fun l -> D_commit l) (int_range 1 3);
      1, map (fun l -> D_rollback l) (int_range 1 3);
      1, return (D_collect Gc.Minor);
      1, return (D_collect Gc.Major);
      1, return D_clear;
    ]

let dirty_reuse_prelude =
  [
    D_alloc 70;
    D_clear;
    D_drop 0;
    D_collect Gc.Major;
    D_alloc 3;
    D_clear;
    D_write (0, 1, 5);
  ]

let prop_dirty_matches_model =
  QCheck.Test.make ~count:150 ~name:"dirty set matches a reference model"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 80) dirty_op_gen)
       ~print:(fun ops -> String.concat ";" (List.map dirty_op_to_string ops)))
    (fun ops ->
      let cont = { Spec.Engine.entry = "body"; args = [] } in
      let h = Heap.create () in
      let e = Spec.Engine.create h in
      let pages size =
        max 1 ((size + Heap.dirty_page_cells - 1) / Heap.dirty_page_cells)
      in
      let max_pages = pages 200 + 1 in
      (* the test's view of the heap: rooted indices (newest first), the
         size of every index it expects to be live, the reference dirty
         set, one saved-index set per open level (newest first), and the
         content of every block at the last clear *)
      let roots = ref [] in
      let sizes = Hashtbl.create 16 in
      let model = Hashtbl.create 16 in
      let levels = ref [] in
      let baseline = Hashtbl.create 16 in
      let allocated = ref [] in
      let mark_all idx =
        for p = 0 to pages (Hashtbl.find sizes idx) - 1 do
          Hashtbl.replace model (idx, p) ()
        done
      in
      let pinned idx = List.exists (fun lvl -> Hashtbl.mem lvl idx) !levels in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let apply = function
        | D_alloc size ->
          let idx = Heap.alloc h ~tag:Heap.Array ~size ~init:(Value.Vint 0) in
          allocated := idx :: !allocated;
          Hashtbl.replace sizes idx size;
          roots := idx :: !roots;
          mark_all idx
        | D_write (r, o, v) -> (
          match !roots with
          | [] -> ()
          | rs ->
            let idx = List.nth rs (r mod List.length rs) in
            let size = Hashtbl.find sizes idx in
            if size > 0 then begin
              let off = o mod size in
              (match !levels with
              | top :: _ when not (Hashtbl.mem top idx) ->
                (* first write inside the level: the block is cloned *)
                Hashtbl.replace top idx ();
                mark_all idx
              | _ -> ());
              Heap.write h idx off (Value.Vint v);
              Hashtbl.replace model (idx, off / Heap.dirty_page_cells) ()
            end)
        | D_drop r -> (
          match !roots with
          | [] -> ()
          | rs ->
            let victim = List.nth rs (r mod List.length rs) in
            roots := List.filter (fun idx -> idx <> victim) rs)
        | D_enter ->
          let _ = Spec.Engine.enter e ~cont in
          levels := Hashtbl.create 8 :: !levels
        | D_commit l ->
          let n = Spec.Engine.depth e in
          if l <= n then begin
            Spec.Engine.commit e l;
            let rec fold k = function
              | lvl :: parent :: rest when k = 0 ->
                Hashtbl.iter (fun idx () -> Hashtbl.replace parent idx ()) lvl;
                parent :: rest
              | [ _ ] when k = 0 -> []
              | x :: rest -> x :: fold (k - 1) rest
              | [] -> []
            in
            levels := fold (n - l) !levels
          end
        | D_rollback l ->
          let n = Spec.Engine.depth e in
          if l <= n then begin
            let _ = Spec.Engine.rollback e l in
            (* every saved index is retargeted to its original *)
            let rec undo k lvls =
              if k = 0 then lvls
              else
                match lvls with
                | lvl :: rest ->
                  Hashtbl.iter (fun idx () -> mark_all idx) lvl;
                  undo (k - 1) rest
                | [] -> []
            in
            levels := Hashtbl.create 8 :: undo (n - l + 1) !levels
          end
        | D_collect kind ->
          (* an index dies when nothing roots or pins it and its current
             block lies in the collected region *)
          let dying =
            Hashtbl.fold
              (fun idx _ acc ->
                if List.mem idx !roots || pinned idx then acc
                else
                  match kind with
                  | Gc.Major -> idx :: acc
                  | Gc.Minor ->
                    if Heap.addr_of h idx >= h.Heap.young_start then idx :: acc
                    else acc)
              sizes []
          in
          let res =
            Gc.collect h ~kind
              ~roots:(List.map (fun idx -> Value.Vptr (idx, 0)) !roots)
              ~pinned:(Spec.Engine.records e)
          in
          Spec.Engine.rewrite_after_gc e res;
          List.iter
            (fun idx ->
              for p = 0 to pages (Hashtbl.find sizes idx) - 1 do
                Hashtbl.remove model (idx, p)
              done;
              Hashtbl.remove sizes idx)
            dying;
          let ptable = Heap.pointer_table h in
          List.iter
            (fun idx -> expect (not (Pointer_table.is_valid ptable idx)))
            dying;
          Hashtbl.iter
            (fun idx _ -> expect (Pointer_table.is_valid ptable idx))
            sizes
        | D_clear ->
          Heap.clear_dirty h;
          Hashtbl.reset model;
          Hashtbl.reset baseline;
          Hashtbl.iter
            (fun idx size ->
              Hashtbl.replace baseline idx
                (Array.init size (fun k -> Heap.read h idx k)))
            sizes
      in
      let agree () =
        let snap = Heap.dirty_snapshot h in
        (* exact: the snapshot holds the reference set and nothing else *)
        for idx = 0 to Pointer_table.size (Heap.pointer_table h) - 1 do
          for p = 0 to max_pages - 1 do
            expect (Heap.page_dirty snap idx p = Hashtbl.mem model (idx, p))
          done
        done;
        (* conservative: a page that differs from the baseline is dirty *)
        Hashtbl.iter
          (fun idx size ->
            match Hashtbl.find_opt baseline idx with
            | Some base when Array.length base = size ->
              Array.iteri
                (fun k v ->
                  if not (Value.equal v (Heap.read h idx k)) then
                    expect (Heap.page_dirty snap idx (k / Heap.dirty_page_cells)))
                base
            | Some _ | None ->
              for p = 0 to pages size - 1 do
                expect (Heap.page_dirty snap idx p)
              done)
          sizes
      in
      List.iter
        (fun op ->
          apply op;
          agree ())
        (dirty_reuse_prelude @ ops);
      (* the prelude's second block reused the first one's freed index *)
      (match List.rev !allocated with
      | first :: second :: _ -> expect (first = second)
      | _ -> expect false);
      Heap.validate h;
      !ok)

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
        Alcotest.test_case "traps keep their exception and message" `Quick
          test_heap_trap_table;
        Alcotest.test_case "a write under speculation clones first" `Quick
          test_heap_write_under_speculation;
        Alcotest.test_case "young into old is remembered" `Quick
          test_heap_barrier_remembers;
        Alcotest.test_case "tuples and raw blocks" `Quick test_heap_tuple_raw;
        Alcotest.test_case "copy-on-write clone" `Quick test_heap_cow_clone;
        Alcotest.test_case "store growth" `Quick test_heap_growth;
        Alcotest.test_case "capacity follows the doubling rule" `Quick
          test_heap_capacity_table;
        Alcotest.test_case "needs_major flips where it did" `Quick
          test_heap_needs_major_flip;
        Alcotest.test_case "store grows on demand up to capacity" `Quick
          test_heap_store_on_demand;
        QCheck_alcotest.to_alcotest prop_dirty_matches_model;
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
