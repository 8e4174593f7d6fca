(* Tests for the warm-hop paths of a migration.

   The sender's capture ([Wire.capture], which [Pack.pack] runs) copies,
   encodes and hashes a heap in one walk; it must agree with the
   reference encoder and digest byte for byte and value for value.  The
   receiver lands a packet straight in the store its new heap adopts
   ([Wire.decode_arrival], [Wire.land_delta], [Heap.adopt]); the result
   must equal the copying path's cell for cell.  Only a receiver that
   keeps nothing may adopt: the ownership guards check that a retained
   image never shares an array with a running heap.  Last, a count gate
   bounds the major-heap words a warm hop allocates on each side. *)

open Runtime
open Kit

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Every cell kind, from small pools so that neighbours are often
   equal: float zeros of both signs, NaNs of two payloads, extreme
   integers and pointers. *)
let cell_gen =
  let open QCheck.Gen in
  oneof
    [ return Value.Vunit;
      map (fun n -> Value.Vint n) (oneofl [ 0; 1; -1; 127; 128; -300 ]);
      map (fun n -> Value.Vint n) (oneofl [ max_int; min_int ]);
      map
        (fun f -> Value.Vfloat f)
        (oneofl
           [ 0.0; -0.0; 1.5; Float.infinity; Float.nan;
             Int64.float_of_bits 0x7ff80000deadbeefL ]);
      map (fun b -> Value.Vbool b) bool;
      map2 (fun c v -> Value.Venum (c, v)) (oneofl [ 1; 3 ]) (int_bound 2);
      map2
        (fun i o -> Value.Vptr (i, o))
        (oneofl [ -1; 0; 3; max_int ])
        (oneofl [ 0; 2; min_int ]);
      map (fun f -> Value.Vfun f) (int_bound 5) ]

(* Runs of one cell, up to 150 long, so they cross the 64-cell dirty
   pages; between none and a few hundred cells in all. *)
let cells_gen =
  let open QCheck.Gen in
  map
    (fun runs ->
      Array.concat (List.map (fun (v, n) -> Array.make n v) runs))
    (list_size (int_bound 6)
       (pair cell_gen (frequency [ 3, int_range 1 3; 1, int_range 60 150 ])))

let spec_gen =
  let open QCheck.Gen in
  list_size (int_bound 2)
    (map3
       (fun k args saved ->
         { Spec.Engine.s_entry = Printf.sprintf "level%d" k;
           s_args = Array.to_list args;
           s_saved = saved })
       (int_bound 9) cells_gen
       (list_size (int_bound 3) (pair (int_bound 9) (int_bound 500))))

let dspec_gen =
  let open QCheck.Gen in
  opt
    (map2
       (fun txn laddr ->
         { Migrate.Wire.x_txn = txn; x_root = 0; x_coord_laddr = laddr;
           x_parts = [ 0, 1; 2, txn ] })
       (int_bound 100) (oneofl [ -1; 4 ]))

(* An image with arbitrary (unverifiable) cells, and junk cells that a
   store holds after them. *)
let image_gen =
  let open QCheck.Gen in
  let fir = "FIR payload" in
  map
    (fun ((cells, junk), (spec, dspec), (masm, ptable), (label, epoch)) ->
      ( { Migrate.Wire.i_arch = "cisc32";
          i_digest = Fir.Digest.of_encoded fir;
          i_fir = fir;
          i_masm = masm;
          i_ftable = [ "f"; "main" ];
          i_ptable = ptable;
          i_cells = cells;
          i_spec = spec;
          i_menv = 0;
          i_entry = "main";
          i_label = label;
          i_epoch = epoch;
          i_dspec = dspec },
        junk ))
    (quad (pair cells_gen cells_gen) (pair spec_gen dspec_gen)
       (pair (opt (return "MASM")) (array_size (int_bound 4) (int_range (-1) 9)))
       (pair (int_range (-500) 500) (int_bound 1000)))

let print_image (im, _) =
  Printf.sprintf "%d cells: %s" (Array.length im.Migrate.Wire.i_cells)
    (String.concat " "
       (Array.to_list (Array.map Value.to_string im.Migrate.Wire.i_cells)))

let cells_equal a b =
  Array.length a = Array.length b && Array.for_all2 Migrate.Wire.cell_equal a b

(* ------------------------------------------------------------------ *)
(* The sender: capture against the reference codec                     *)
(* ------------------------------------------------------------------ *)

let prop_capture_is_reference =
  QCheck.Test.make ~count:300 ~name:"capture == encode and image_digest"
    (QCheck.make image_gen ~print:print_image) (fun (im, junk) ->
      let n = Array.length im.Migrate.Wire.i_cells in
      let store = Array.append im.Migrate.Wire.i_cells junk in
      let before = Array.copy store in
      let captured, bytes, digest =
        Migrate.Wire.capture
          { im with Migrate.Wire.i_cells = [||] }
          ~store ~ncells:n
      in
      String.equal bytes (Migrate.Wire.encode im)
      && String.equal digest (Migrate.Wire.image_digest im)
      && cells_equal captured.Migrate.Wire.i_cells im.Migrate.Wire.i_cells
      && (n = 0 || captured.Migrate.Wire.i_cells != store)
      && cells_equal store before)

(* A heap built from generated blocks, with speculation levels entered
   between rounds of writes (so copy-on-write clones and checkpoint
   records exist), packed with and without a dspec context. *)
let tiny_program = lazy (compile_c "int main() { return 0; }")

let heap_case_gen =
  let open QCheck.Gen in
  triple
    (list_size (int_bound 4) (pair (int_bound 2) cells_gen))
    (list_size (int_bound 2) (list_size (int_bound 4) (pair nat cell_gen)))
    (pair dspec_gen (int_range (-5) 5))

let prop_pack_is_reference =
  QCheck.Test.make ~count:150 ~name:"pack's bytes and digest are the reference's"
    (QCheck.make heap_case_gen) (fun (blocks, levels, (dspec, label)) ->
      let proc = Vm.Process.create (Lazy.force tiny_program) in
      let heap = proc.Vm.Process.heap in
      let idxs =
        List.map
          (fun (tag, cells) ->
            let tag = Heap.tag_of_code tag in
            let idx =
              Heap.alloc heap ~tag ~size:(Array.length cells)
                ~init:Value.Vunit
            in
            Array.iteri (fun k v -> Heap.write heap idx k v) cells;
            idx)
          blocks
      in
      let roots = List.map (fun idx -> Value.Vptr (idx, 0)) idxs in
      List.iter
        (fun writes ->
          ignore
            (Spec.Engine.enter proc.Vm.Process.spec
               ~cont:{ Spec.Engine.entry = "main"; args = roots });
          List.iter
            (fun (k, v) ->
              match idxs with
              | [] -> ()
              | _ ->
                let idx = List.nth idxs (k mod List.length idxs) in
                let size = Heap.block_size heap idx in
                if size > 0 then Heap.write heap idx (k mod size) v)
            writes)
        levels;
      let packed =
        Migrate.Pack.pack ?dspec proc ~entry:"main" ~args:roots ~label
      in
      let im = packed.Migrate.Pack.p_image in
      String.equal packed.Migrate.Pack.p_bytes (Migrate.Wire.encode im)
      && String.equal packed.Migrate.Pack.p_digest
           (Migrate.Wire.image_digest im)
      && cells_equal im.Migrate.Wire.i_cells (Heap.cells heap)
      && List.length im.Migrate.Wire.i_spec = List.length levels)

(* ------------------------------------------------------------------ *)
(* The receiver: landing against the copying path                      *)
(* ------------------------------------------------------------------ *)

let outcome f = match f () with () -> Ok () | exception e -> Error e

let prop_landing_is_decoding =
  QCheck.Test.make ~count:300 ~name:"a landed packet is the decoded image"
    (QCheck.make image_gen ~print:print_image) (fun (im, _) ->
      let bytes = Migrate.Wire.encode im in
      let decoded = Migrate.Wire.decode bytes in
      match Migrate.Wire.decode_arrival bytes with
      | Migrate.Wire.Patch _ -> false
      | Migrate.Wire.Landed l ->
        let n = Array.length im.Migrate.Wire.i_cells in
        let store = l.Migrate.Wire.l_store in
        l.Migrate.Wire.l_cells = n
        && Array.length store = n + Heap.restore_slack
        && cells_equal (Array.sub store 0 n) decoded.Migrate.Wire.i_cells
        && Array.for_all (Value.equal Value.Vunit)
             (Array.sub store n Heap.restore_slack)
        && String.equal bytes
             (Migrate.Wire.encode
                { l.Migrate.Wire.l_image with
                  Migrate.Wire.i_cells = Array.sub store 0 n })
        && outcome (fun () -> Migrate.Wire.verify_landed l)
           = outcome (fun () -> Migrate.Wire.verify decoded))

(* Two heaps are the same heap: store length, capacity, allocation
   pointer, every store cell (the slack included) and the pointer
   table. *)
let check_same_heap what (a : Heap.t) (b : Heap.t) =
  check_int (what ^ ": store length") (Array.length a.Heap.store)
    (Array.length b.Heap.store);
  check_int (what ^ ": capacity") (Heap.capacity a) (Heap.capacity b);
  check_int (what ^ ": used cells") (Heap.used_cells a) (Heap.used_cells b);
  check (what ^ ": store cells") true (cells_equal a.Heap.store b.Heap.store);
  check (what ^ ": pointer table") true
    (Pointer_table.snapshot (Heap.pointer_table a)
    = Pointer_table.snapshot (Heap.pointer_table b));
  Heap.validate a

let test_adopt_rejects_a_short_store () =
  check "a store without the slack is refused" true
    (match
       Heap.adopt ~store:(Array.make 10 Value.Vunit) ~used:10
         ~ptable_snapshot:[||]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A process walks a few migration points; at each, the full packet
   lands and the delta over the previous image is rebuilt into a
   store, and each heap is compared with [Heap.restore] of the
   reference image.  A server's reconstruction is the same heap. *)
let test_landed_heaps_are_restored_heaps () =
  let fir = Test_delta.mutating_worker ~seed:3 ~cells:1500 ~rounds:4 ~writes:40 in
  let proc = Vm.Process.create fir in
  Test_delta.run_to_migration proc;
  let server =
    Migrate.Server.create_cfg Migrate.Server.Config.default Vm.Arch.cisc32
  in
  let previous = ref None in
  for hop = 1 to 4 do
    let packed = Migrate.Pack.pack_request ~with_binary:false proc in
    let im = packed.Migrate.Pack.p_image in
    let restored () =
      Heap.restore ~cells:im.Migrate.Wire.i_cells
        ~ptable_snapshot:im.Migrate.Wire.i_ptable
    in
    let adopt (l : Migrate.Wire.landed) =
      Heap.adopt ~store:l.Migrate.Wire.l_store ~used:l.Migrate.Wire.l_cells
        ~ptable_snapshot:l.Migrate.Wire.l_image.Migrate.Wire.i_ptable
    in
    (match Migrate.Wire.decode_arrival packed.Migrate.Pack.p_bytes with
    | Migrate.Wire.Landed l ->
      check_same_heap (Printf.sprintf "hop %d full" hop) (adopt l)
        (restored ())
    | Migrate.Wire.Patch _ -> Alcotest.fail "full packet landed as a delta");
    (match !previous with
    | None -> ()
    | Some (base : Migrate.Pack.packed) -> (
      match
        Migrate.Pack.delta ~baseline:base.Migrate.Pack.p_image
          ~base_digest:base.Migrate.Pack.p_digest packed
      with
      | None -> Alcotest.fail "delta impossible"
      | Some (dbytes, _) -> (
        match Migrate.Wire.decode_packet dbytes with
        | Migrate.Wire.Full _ -> Alcotest.fail "delta decoded as full"
        | Migrate.Wire.Delta d ->
          let l = Migrate.Wire.land_delta ~baseline:base.Migrate.Pack.p_image d in
          let image =
            Migrate.Wire.apply_delta ~baseline:base.Migrate.Pack.p_image d
          in
          check
            (Printf.sprintf "hop %d: landed delta == applied delta" hop)
            true
            (String.equal
               (Migrate.Wire.encode
                  { l.Migrate.Wire.l_image with
                    Migrate.Wire.i_cells =
                      Array.sub l.Migrate.Wire.l_store 0
                        l.Migrate.Wire.l_cells })
               (Migrate.Wire.encode image));
          check_same_heap (Printf.sprintf "hop %d delta" hop) (adopt l)
            (restored ());
          ignore
            (Migrate.Server.remember_baseline
               ~digest:base.Migrate.Pack.p_digest server
               base.Migrate.Pack.p_image);
          match Migrate.Server.handle server dbytes with
          | Error m -> Alcotest.failf "hop %d: server: %s" hop m
          | Ok o ->
            check_same_heap
              (Printf.sprintf "hop %d server" hop)
              o.Migrate.Server.o_process.Vm.Process.heap (restored ()))));
    previous := Some packed;
    if hop < 4 then begin
      Vm.Process.migration_failed proc;
      Test_delta.run_to_migration proc
    end
  done

(* ------------------------------------------------------------------ *)
(* Ownership guards                                                    *)
(* ------------------------------------------------------------------ *)

(* A resurrection keeps the replayed checkpoint as its baseline, so its
   heap must be a copy: the resurrected worker rewrites every cell of
   its array, and the retained image must not see one write. *)
let rewriting_worker =
  {|
int main() {
  int n = 500;
  int *data = alloc_int(n);
  int i;
  for (i = 0; i < n; i = i + 1) data[i] = i;
  migrate("checkpoint://own");
  for (i = 0; i < n; i = i + 1) data[i] = data[i] * 3 + 1;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) acc = (acc + data[i]) % 1000003;
  return acc;
}
|}

let test_resurrection_keeps_its_baseline () =
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with node_count = 2; seed = 5 }
  in
  let pid = Net.Cluster.spawn cluster ~node_id:0 (compile_c rewriting_worker) in
  ignore (Net.Cluster.run cluster);
  let code =
    match status_of cluster pid with
    | Vm.Process.Exited n -> n
    | _ -> Alcotest.fail "worker did not finish"
  in
  match Net.Cluster.resurrect cluster ~node_id:1 ~path:"own" with
  | Error m -> Alcotest.failf "resurrect: %s" m
  | Ok pid2 ->
    let digest, image =
      match Net.Cluster.entry_of_pid cluster pid2 with
      | Some { Net.Cluster.baseline = Some b; _ } -> b
      | Some _ -> Alcotest.fail "the resurrection kept no baseline"
      | None -> Alcotest.fail "resurrected pid lost"
    in
    let cells = Array.copy image.Migrate.Wire.i_cells in
    ignore (Net.Cluster.run cluster);
    check "the resurrected worker finished as the original did" true
      (status_of cluster pid2 = Vm.Process.Exited code);
    check "the retained baseline's cells are unchanged" true
      (cells_equal cells image.Migrate.Wire.i_cells);
    check_str "the retained baseline still has its digest" digest
      (Migrate.Wire.image_digest image)

(* A retried hop: the same delta lands twice against one retained
   baseline.  The first process runs to its end, writing its heap,
   before the second lands; both must rebuild and finish as the process
   that never moved, and the baseline must not change. *)
let test_retried_delta_rebuilds_twice () =
  let fir = Test_delta.mutating_worker ~seed:9 ~cells:1200 ~rounds:3 ~writes:30 in
  let proc = Vm.Process.create fir in
  Test_delta.run_to_migration proc;
  let p1 = Migrate.Pack.pack_request ~with_binary:false proc in
  Vm.Process.migration_failed proc;
  Test_delta.run_to_migration proc;
  let p2 = Migrate.Pack.pack_request ~with_binary:false proc in
  let base = p1.Migrate.Pack.p_image in
  let base_cells = Array.copy base.Migrate.Wire.i_cells in
  let server =
    Migrate.Server.create_cfg Migrate.Server.Config.default Vm.Arch.cisc32
  in
  ignore
    (Migrate.Server.remember_baseline ~digest:p1.Migrate.Pack.p_digest server
       base);
  let dbytes =
    match
      Migrate.Pack.delta ~baseline:base ~base_digest:p1.Migrate.Pack.p_digest
        p2
    with
    | Some (b, _) -> b
    | None -> Alcotest.fail "delta impossible"
  in
  let rebuild () =
    match Migrate.Server.handle server dbytes with
    | Ok o -> o.Migrate.Server.o_process
    | Error m -> Alcotest.failf "retried delta: %s" m
  in
  let first = rebuild () in
  let first_code = Test_delta.finish_locally first in
  check "the baseline is unchanged after the first landing" true
    (cells_equal base_cells base.Migrate.Wire.i_cells);
  check_str "the baseline keeps its digest" p1.Migrate.Pack.p_digest
    (Migrate.Wire.image_digest base);
  let second = rebuild () in
  check "the two landings own different stores" true
    (first.Vm.Process.heap.Heap.store != second.Vm.Process.heap.Heap.store);
  let local = Test_delta.finish_locally proc in
  check_int "the first landing finishes as the unmoved process" local
    first_code;
  check_int "the second landing finishes as the unmoved process" local
    (Test_delta.finish_locally second);
  check "the baseline is unchanged after both" true
    (cells_equal base_cells base.Migrate.Wire.i_cells)

(* The largest block of an image and its data cells' first address. *)
let largest_block (im : Migrate.Wire.image) =
  let size_at addr =
    match im.Migrate.Wire.i_cells.(addr + Heap.h_size) with
    | Value.Vint n -> n
    | _ -> Alcotest.fail "non-integer size header"
  in
  let best = ref (-1, -1) in
  Array.iteri
    (fun idx addr ->
      if addr >= 0 && (fst !best < 0 || size_at addr > snd !best) then
        best := idx, size_at addr)
    im.Migrate.Wire.i_ptable;
  fst !best

(* A sender whose dirty tracking misses one written page sends a delta
   that rebuilds the wrong heap: the re-hash catches it and the server
   refuses it as an unknown baseline, as before adoption. *)
let test_delta_missing_a_page_is_refused () =
  let fir = Test_delta.mutating_worker ~seed:4 ~cells:2000 ~rounds:2 ~writes:60 in
  let proc = Vm.Process.create fir in
  Test_delta.run_to_migration proc;
  let p1 = Migrate.Pack.pack_request ~with_binary:false proc in
  Vm.Process.migration_failed proc;
  Test_delta.run_to_migration proc;
  let p2 = Migrate.Pack.pack_request ~with_binary:false proc in
  let im = p2.Migrate.Pack.p_image in
  let data = largest_block im in
  let dirty = p2.Migrate.Pack.p_dirty in
  let skipped =
    match
      List.find_opt
        (fun page -> Heap.page_dirty dirty data page)
        (List.init 40 Fun.id)
    with
    | Some page -> page
    | None -> Alcotest.fail "the worker dirtied no page of its array"
  in
  let changed idx page =
    Heap.page_dirty dirty idx page && not (idx = data && page = skipped)
  in
  let d_blocks, _ =
    Migrate.Wire.diff ~baseline:p1.Migrate.Pack.p_image ~image:im ~changed
  in
  let delta =
    { Migrate.Wire.d_arch = im.Migrate.Wire.i_arch;
      d_base = p1.Migrate.Pack.p_digest;
      d_fir_digest = im.Migrate.Wire.i_digest;
      d_new_digest = p2.Migrate.Pack.p_digest;
      d_ptable = im.Migrate.Wire.i_ptable;
      d_blocks;
      d_spec = im.Migrate.Wire.i_spec;
      d_menv = im.Migrate.Wire.i_menv;
      d_entry = im.Migrate.Wire.i_entry;
      d_label = im.Migrate.Wire.i_label;
      d_epoch = im.Migrate.Wire.i_epoch;
      d_dspec = im.Migrate.Wire.i_dspec }
  in
  let server =
    Migrate.Server.create_cfg Migrate.Server.Config.default Vm.Arch.cisc32
  in
  ignore
    (Migrate.Server.remember_baseline ~digest:p1.Migrate.Pack.p_digest server
       p1.Migrate.Pack.p_image);
  match Migrate.Server.handle server (Migrate.Wire.encode_delta delta) with
  | Ok _ -> Alcotest.fail "a delta missing a dirty page was accepted"
  | Error m ->
    check_str "refused as an unknown baseline"
      ("unknown baseline " ^ p1.Migrate.Pack.p_digest)
      m

(* ------------------------------------------------------------------ *)
(* Count gate: major-heap words per warm hop                           *)
(* ------------------------------------------------------------------ *)

(* Words allocated straight into the major heap by [f] — large arrays
   and strings, the copies of a heap — as [Gc.quick_stat] counts them:
   major words less those promoted from the minor heap.  The least of
   three runs, since a collection cycle finishing inside [f] can inflate
   the count on OCaml 5. *)
let direct_words f =
  let once () =
    Stdlib.Gc.minor ();
    let s0 = Stdlib.Gc.quick_stat () in
    let r = f () in
    let s1 = Stdlib.Gc.quick_stat () in
    ( r,
      s1.Stdlib.Gc.major_words -. s0.Stdlib.Gc.major_words
      -. (s1.Stdlib.Gc.promoted_words -. s0.Stdlib.Gc.promoted_words) )
  in
  let r, w = once () in
  let _, w2 = once () in
  let _, w3 = once () in
  r, Float.min w (Float.min w2 w3)

(* The perfbench migrate shape: a 131k-cell float array, a small window
   rewritten between migration points. *)
let big_heap_worker =
  {|
int main() {
  int n = 131072;
  float *data = alloc_float(n);
  int i;
  for (i = 0; i < n; i = i + 1) data[i] = (float)((i * 7) % 97) / 97.0;
  int hop;
  for (hop = 0; hop < 4; hop = hop + 1) {
    migrate("mcc://next");
    for (i = 0; i < 2048; i = i + 1) {
      data[(hop * 4099 + i) % n] = data[(hop * 4099 + i) % n] + 1.0;
    }
  }
  return (int)data[5];
}
|}

let test_warm_hop_allocation () =
  let arch = Vm.Arch.cisc32 in
  let fir = compile_c big_heap_worker in
  let proc = Vm.Process.create ~arch fir in
  ignore (Vm.Emulator.run (Vm.Emulator.create (Vm.Codegen.compile ~arch fir) proc));
  let server () =
    Migrate.Server.create_cfg
      { Migrate.Server.Config.default with
        cache = Some (Migrate.Codecache.create ~capacity:4 ()) }
      arch
  in
  let a = server () and b = server () in
  let resume (o : Migrate.Server.request_outcome) =
    ignore
      (Vm.Emulator.run
         (Vm.Emulator.create ~compiled:o.Migrate.Server.o_compiled
            o.Migrate.Server.o_masm o.Migrate.Server.o_process));
    o.Migrate.Server.o_process
  in
  let handle s bytes =
    match Migrate.Server.handle s bytes with
    | Ok o -> o
    | Error m -> Alcotest.failf "hop: %s" m
  in
  (* cold hops warm both code caches; the process lands on b *)
  let p1 = Migrate.Pack.pack_request ~with_binary:false proc in
  ignore (handle a p1.Migrate.Pack.p_bytes);
  let on_b = resume (handle b p1.Migrate.Pack.p_bytes) in
  ignore
    (Migrate.Server.remember_baseline ~digest:p1.Migrate.Pack.p_digest a
       p1.Migrate.Pack.p_image);
  (* the warm hop b -> a: the sender packs (the delta is apart) *)
  let p2, sender =
    direct_words (fun () ->
        Migrate.Pack.pack_request ~with_binary:false on_b)
  in
  let dbytes =
    match
      Migrate.Pack.delta ~baseline:p1.Migrate.Pack.p_image
        ~base_digest:p1.Migrate.Pack.p_digest p2
    with
    | Some (b, _) -> b
    | None -> Alcotest.fail "delta impossible"
  in
  let _, receiver = direct_words (fun () -> handle a dbytes) in
  let word = float_of_int (Sys.word_size / 8) in
  let cells =
    float_of_int (Array.length p2.Migrate.Pack.p_image.Migrate.Wire.i_cells)
  in
  let image = float_of_int (String.length p2.Migrate.Pack.p_bytes) /. word in
  check "the heap is the perfbench size" true (cells > 131_072.);
  let sender_bound = 1.1 *. (cells +. image) in
  let receiver_bound = 1.1 *. (cells +. float_of_int Heap.restore_slack) in
  check
    (Printf.sprintf "sender allocates %.0f words, bound %.0f" sender
       sender_bound)
    true (sender <= sender_bound);
  check
    (Printf.sprintf "receiver allocates %.0f words, bound %.0f" receiver
       receiver_bound)
    true (receiver <= receiver_bound)

let suites =
  [ ( "warmhop.capture",
      List.map QCheck_alcotest.to_alcotest
        [ prop_capture_is_reference; prop_pack_is_reference ] );
    ( "warmhop.landing",
      List.map QCheck_alcotest.to_alcotest [ prop_landing_is_decoding ]
      @ [ Alcotest.test_case "adopt refuses a store without the slack"
            `Quick test_adopt_rejects_a_short_store;
          Alcotest.test_case "landed heaps equal restored heaps" `Quick
            test_landed_heaps_are_restored_heaps ] );
    ( "warmhop.ownership",
      [ Alcotest.test_case "a resurrection keeps its baseline intact" `Quick
          test_resurrection_keeps_its_baseline;
        Alcotest.test_case "a retried delta rebuilds twice" `Quick
          test_retried_delta_rebuilds_twice;
        Alcotest.test_case "a delta missing a dirty page is refused" `Quick
          test_delta_missing_a_page_is_refused ] );
    ( "warmhop.alloc",
      [ Alcotest.test_case "a warm hop's major-heap words" `Quick
          test_warm_hop_allocation ] ) ]
