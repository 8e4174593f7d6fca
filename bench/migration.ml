(* The migration family: E1 (whole-process migration cost), E1c (the
   recompilation cache), E1d (delta migration) and the A1 ablation
   (COW speculation vs checkpoint-file rollback).  Absolute times differ
   from the paper's by construction (their testbed is a 2007 cluster of
   700 MHz machines; ours a simulator on modern hardware), so the
   verdicts check the SHAPES its conclusions rest on. *)

open Runtime
open Bench
open Kit

let arch = Vm.Arch.cisc32

(* simulated seconds of [cycles] on [arch] *)
let seconds cycles =
  float_of_int cycles /. (float_of_int arch.Vm.Arch.clock_mhz *. 1e6)

(* simulated seconds to copy [cells] heap cells (pack or restore) *)
let mem_s cells = seconds (cells * arch.Vm.Arch.cycles Vm.Arch.Mem)

let compile_s = function
  | Ok o -> seconds o.Migrate.Server.o_costs.Migrate.Pack.u_compile_cycles
  | Error m -> failwith ("bench: delivery failed: " ^ m)

(* Effective application-level throughput, calibrated from the paper:
   its 1 MB-heap FIR migration spends ~10 % of 4 s (~0.4 s) in network
   transfer for a ~1.2 MB image, i.e. ~24 Mbps end-to-end over their
   100 Mbps Ethernet (connection setup + streaming overheads included).
   The raw wire rate stays 100 Mbps elsewhere in the repository. *)
let net = Net.Simnet.create ~bandwidth_mbps:24.0 ()

(* The migrating workload: an application-sized program whose live state
   is a float array of the requested size.  Stencil-kernel families pad
   the code to the footprint of a real application (a few thousand FIR
   nodes — the scale the paper's recompilation time implies); each
   variant is invoked once before the migration so dead-code elimination
   keeps it. *)
let variant_source v =
  Printf.sprintf
    {|
float cell_update%d(float *u, int i, int j, int c) {
  float s = u[(i - 1) * c + j] + u[(i + 1) * c + j];
  s = s + u[i * c + j - 1] * %d.0;
  s = s + u[i * c + j + 1];
  return s * 0.25;
}
void relax%d(float *u, float *un, int rows, int c) {
  int i; int j;
  for (i = 1; i < rows - 1; i = i + 1) {
    for (j = 1; j < c - 1; j = j + 1) {
      un[i * c + j] = cell_update%d(u, i, j, c);
    }
  }
  for (i = 1; i < rows - 1; i = i + 1) {
    for (j = 1; j < c - 1; j = j + 1) {
      u[i * c + j] = un[i * c + j] + (float)%d * 0.0;
    }
  }
}
float row_sum%d(float *u, int row, int c) {
  float s = %d.0 * 0.0;
  int j;
  for (j = 0; j < c; j = j + 1) s = s + u[row * c + j];
  return s;
}
|}
    v v v v v v v

(* [delta = (hops, window)] makes the program hop [hops] times,
   overwriting a [window]-cell slice of its array before each, so a
   later pack's dirty set is a small fraction of the heap and the delta
   encoding can ship just that. *)
let source_of_families ~variants ?delta ~cells () =
  let body = Buffer.create 8192 in
  for v = 0 to variants - 1 do
    Buffer.add_string body (variant_source v)
  done;
  let calls = Buffer.create 512 in
  for v = 0 to variants - 1 do
    Printf.ksprintf (Buffer.add_string calls)
      "  relax%d(warm, warm2, 4, 8);
  acc = acc + row_sum%d(warm, 1, 8);
"
      v v
  done;
  let migration =
    match delta with
    | None -> {|  migrate("mcc://destination");|}
    | Some (hops, window) ->
      Printf.sprintf
        {|  int hop;
  for (hop = 0; hop < %d; hop = hop + 1) {
    for (i = 0; i < %d; i = i + 1) {
      data[(hop * %d + i) %% n] = data[(hop * %d + i) %% n] + 1.0;
    }
    migrate("mcc://destination");
  }|}
        hops window window window
  in
  Buffer.contents body
  ^ Printf.sprintf
      {|
int checksum(float *data, int n) {
  float s = 0.0;
  int i;
  for (i = 0; i < n; i = i + 1) s = s + data[i];
  return (int)(s * 16.0);
}
int main() {
  float *warm = alloc_float(32);
  float *warm2 = alloc_float(32);
  float acc = 0.0;
%s
  int n = %d;
  float *data = alloc_float(n);
  int i;
  for (i = 0; i < n; i = i + 1) {
    data[i] = (float)(i %% 97) / 97.0;
  }
%s
  return checksum(data, n) + (int)acc;
}
|}
      (Buffer.contents calls) cells migration

(* The FIR footprint E1 is calibrated at (the paper's 4 s FIR migration
   of a 1 MB heap, ~10 % of it transfer): the program's size, not its
   family count, is the calibrated quantity, since [Vm.Codegen] prices
   recompilation per FIR node. *)
let footprint_nodes = 2_691

(* The fewest families whose compiled program reaches [footprint_nodes],
   so a front end that emits less FIR per family keeps E1's shape. *)
let footprint_families =
  lazy
    (let rec grow v =
       let fir =
         Minic.Driver.compile_exn (source_of_families ~variants:v ~cells:1 ())
       in
       if Fir.Ast.program_size fir >= footprint_nodes then v else grow (v + 1)
     in
     grow 1)

(* [variants] overrides the footprint with an explicit family count. *)
let migrator_source ?variants ?delta ~cells () =
  let variants =
    match variants with
    | Some v -> v
    | None -> Lazy.force footprint_families
  in
  source_of_families ~variants ?delta ~cells ()

let run_to_migration fir =
  let proc = Vm.Process.create fir in
  match Vm.Interp.run proc with
  | Vm.Process.Migrating _ -> proc
  | _ -> failwith "bench: migrator did not reach its migration point"

(* ================================================================== *)
(* E1: whole-process migration time (paper: 4 s for a 1 MB heap with   *)
(* FIR recompilation, ~10 % network transfer; binary migration < 1 s,  *)
(* ~30 % transfer)                                                     *)
(* ================================================================== *)

let e1 () =
  section "E1: whole-process migration (paper Section 5, paragraph 1)";
  Printf.printf
    "paper: 1 MB heap, untrusted (FIR+recompile): 4 s total, ~10%% \
     transfer\n";
  Printf.printf
    "paper: 1 MB heap, trusted same-arch (binary): <1 s total, ~30%% \
     transfer\n\n";
  (* every delivery goes through the instrumented migration server, so
     the table below is read back out of its metrics registry rather
     than hand-tallied *)
  let server_fir = Migrate.Server.(create_cfg Config.default arch) in
  let server_bin =
    Migrate.Server.(create_cfg { Config.default with trusted = true } arch)
  in
  Printf.printf "  %-10s %-6s %-10s %-10s %-10s %-10s %-8s %s\n" "heap"
    "path" "image" "pack(s)" "xfer(s)" "compile(s)" "total" "xfer%";
  let results = ref [] in
  List.iter
    (fun kb ->
      let fir =
        Minic.Driver.compile_exn (migrator_source ~cells:(kb * 1024 / 8) ())
      in
      List.iter
        (fun binary ->
          let proc = run_to_migration fir in
          let packed = Migrate.Pack.pack_request ~with_binary:binary proc in
          let bytes = String.length packed.Migrate.Pack.p_bytes in
          (* pack and restore each copy the heap once *)
          let heap_s = mem_s (Heap.used_cells proc.Vm.Process.heap) in
          let xfer_s = Net.Simnet.transfer_seconds net bytes in
          let server = if binary then server_bin else server_fir in
          let compile_s =
            compile_s (Migrate.Server.handle server packed.Migrate.Pack.p_bytes)
          in
          let total = heap_s +. xfer_s +. compile_s +. heap_s in
          let frac = 100.0 *. xfer_s /. total in
          Printf.printf
            "  %-10s %-6s %-10d %-10.4f %-10.4f %-10.4f %-8.3f %.0f%%\n"
            (Printf.sprintf "%d KB" kb)
            (if binary then "binary" else "FIR")
            bytes heap_s xfer_s compile_s total frac;
          results := ((kb, binary), (total, frac)) :: !results)
        [ false; true ])
    [ 64; 256; 1024; 4096 ];
  let fir_total, fir_frac = List.assoc (1024, false) !results in
  let bin_total, bin_frac = List.assoc (1024, true) !results in
  print_newline ();
  (* totals straight out of the server metrics registries *)
  let totals label srv =
    let c = Obs.Metrics.counter_value (Migrate.Server.metrics srv) in
    Printf.printf
      "  %-6s path (server registry): %d accepted, %d rejected, %d \
       recompilations, %d bytes received\n"
      label (c "server.accepted") (c "server.rejected")
      (c "server.recompilations") (c "server.bytes_received")
  in
  totals "FIR" server_fir;
  totals "binary" server_bin;
  print_newline ();
  verdict "recompilation dominates FIR migration (xfer <= 15%)"
    (fir_frac <= 15.0);
  verdict "binary path >= 4x faster than FIR path"
    (bin_total *. 4.0 <= fir_total);
  verdict "transfer fraction rises on the binary path"
    (bin_frac > fir_frac);
  (* wall-clock micro-benchmarks of the real pack/unpack code *)
  let proc =
    run_to_migration
      (Minic.Driver.compile_exn (migrator_source ~cells:(1024 * 128) ()))
  in
  let pack_ns =
    bechamel_ns "pack(1MB)" (fun () ->
        ignore (Migrate.Pack.pack_request ~with_binary:false proc))
  in
  let packed = Migrate.Pack.pack_request ~with_binary:false proc in
  let unpack_ns =
    bechamel_ns "unpack(1MB)" (fun () ->
        ignore
          (Migrate.Pack.unpack ~arch ~trusted:false
             packed.Migrate.Pack.p_bytes))
  in
  Printf.printf
    "\n  host wall-clock (bechamel): pack(1MB) = %.2f ms, \
     verify+unpack+recompile(1MB) = %.2f ms\n"
    (pack_ns /. 1e6) (unpack_ns /. 1e6)

(* ================================================================== *)
(* E1c: repeated migration with the recompilation cache                *)
(* ================================================================== *)

(* The same 1 MB grid process bounces A -> B -> A -> B ... ten times.
   Without the cache every hop pays the full verify + typecheck + codegen
   bill (the ~90 % of E1's FIR migration).  With per-node caches only the
   first delivery to each node compiles; every later hop is a digest hit
   that charges transfer + stub link.  Structural heap verification still
   runs on every hop — it is per-image state and never cached. *)
let e1c () =
  section "E1c: repeated migration, recompilation cache off vs on";
  let proc =
    run_to_migration
      (Minic.Driver.compile_exn (migrator_source ~cells:(1024 * 128) ()))
  in
  let packed = Migrate.Pack.pack_request ~with_binary:false proc in
  let heap_s = mem_s (Heap.used_cells proc.Vm.Process.heap) in
  let xfer_s =
    Net.Simnet.transfer_seconds net (String.length packed.Migrate.Pack.p_bytes)
  in
  let hops = 10 in
  (* one unpack on the destination of hop [i]; returns the simulated
     migration total for that hop *)
  let deliver ?cache () =
    match
      Migrate.Pack.unpack ~trusted:false ?cache ~arch
        packed.Migrate.Pack.p_bytes
    with
    | Ok (_, _, _, costs) ->
      (* pack + transfer + (compile | link) + heap restore *)
      ( heap_s +. xfer_s +. seconds costs.Migrate.Pack.u_compile_cycles
        +. heap_s,
        costs.Migrate.Pack.u_cache_hit )
    | Error m -> failwith ("bench: unpack failed: " ^ m)
  in
  let bounce ~cached =
    let cache_a, cache_b =
      if cached then
        ( Some (Migrate.Codecache.create ~capacity:16 ()),
          Some (Migrate.Codecache.create ~capacity:16 ()) )
      else None, None
    in
    ( List.init hops (fun i ->
          deliver ?cache:(if i mod 2 = 0 then cache_b else cache_a) ()),
      List.filter_map (fun c -> c) [ cache_a; cache_b ] )
  in
  let off, _ = bounce ~cached:false in
  let on, caches = bounce ~cached:true in
  Printf.printf "  %-5s %-14s %-14s %s\n" "hop" "no-cache(s)" "cached(s)"
    "path";
  List.iteri
    (fun i ((t_off, _), (t_on, hit)) ->
      Printf.printf "  %-5d %-14.4f %-14.4f %s\n" (i + 1) t_off t_on
        (if hit then "cache hit (link only)" else "compile"))
    (List.combine off on);
  let cold = fst (List.hd on) in
  let warm = fst (List.nth on (hops - 1)) in
  let total_off = List.fold_left (fun a (t, _) -> a +. t) 0.0 off in
  let total_on = List.fold_left (fun a (t, _) -> a +. t) 0.0 on in
  (* hit/lookup totals come from the per-node cache registries, not from
     re-tallying the hop list *)
  let registry_sum name =
    List.fold_left
      (fun acc c ->
        acc
        + Obs.Metrics.counter_value (Migrate.Codecache.metrics c) name)
      0 caches
  in
  let hits = registry_sum "codecache.hits" in
  let lookups = registry_sum "codecache.lookups" in
  Printf.printf
    "\n  cold %.3f s, warm %.3f s (%.0f%% of cold); 10-hop total %.2f s \
     -> %.2f s; %d/%d hits (registry: %d lookups)\n"
    cold warm
    (100.0 *. warm /. cold)
    total_off total_on hits lookups lookups;
  verdict "first migration pays the full E1 cost (no hit)"
    (not (snd (List.hd on)) && cold = fst (List.hd off));
  verdict "warm migration < 25% of cold" (warm < 0.25 *. cold);
  verdict "all hops after the two node warm-ups hit" (hits = hops - 2)

(* ================================================================== *)
(* E1d: delta migration — warm hops ship only the dirty window         *)
(* ================================================================== *)

let e1d () =
  section "E1d: delta migration (dirty-window deltas over a baseline)";
  Printf.printf
    "1 MB heap bounces; between hops the program rewrites a %d-cell \
     window\n(~1.6%% of the array).  Warm hops ship a v7 delta over the \
     receiver's\nretained baseline.\n\n"
    2048;
  let proc =
    run_to_migration
      (Minic.Driver.compile_exn
         (migrator_source ~cells:(1024 * 128) ~delta:(2, 2048) ()))
  in
  (* instrumented receivers with recompilation caches (the E1c warm
     path) *)
  let mk_server () =
    Migrate.Server.(
      create_cfg
        { Config.default with
          cache = Some (Migrate.Codecache.create ~capacity:16 ()) }
        arch)
  in
  let recv = mk_server () in
  let full_s () = mem_s (Heap.used_cells proc.Vm.Process.heap) in
  (* hop 1: cold — the full image travels and becomes the baseline *)
  let packed1 = Migrate.Pack.pack_request ~with_binary:false proc in
  let digest1 = Migrate.Wire.image_digest packed1.Migrate.Pack.p_image in
  let full1 = String.length packed1.Migrate.Pack.p_bytes in
  let pack1_s = full_s () in
  let restore_s = full_s () in
  let xfer1_s = Net.Simnet.transfer_seconds net full1 in
  let compile1_s =
    compile_s (Migrate.Server.handle recv packed1.Migrate.Pack.p_bytes)
  in
  (* the receiver holds hop 1's image as its baseline: in a cluster
     that is the node which packed it, and hop 2 bounces back there *)
  ignore
    (Migrate.Server.remember_baseline ~digest:digest1 recv
       packed1.Migrate.Pack.p_image);
  let total1 = pack1_s +. xfer1_s +. compile1_s +. restore_s in
  (* the source keeps running (failed-migration semantics), mutates its
     window, and reaches the next migration point *)
  Vm.Process.migration_failed proc;
  (match Vm.Interp.run proc with
  | Vm.Process.Migrating _ -> ()
  | _ -> failwith "bench: migrator did not reach its second hop");
  let packed2 = Migrate.Pack.pack_request ~with_binary:false proc in
  (* hop 2, warm: the receiver still holds the hop-1 baseline *)
  if not (Migrate.Server.has_baseline recv digest1) then
    failwith "bench: receiver lost the baseline";
  let delta_bytes, stats =
    match
      Migrate.Pack.delta ~baseline:packed1.Migrate.Pack.p_image
        ~base_digest:digest1 packed2
    with
    | Some r -> r
    | None -> failwith "bench: delta encoding impossible"
  in
  let dbytes = String.length delta_bytes in
  let pack2_s =
    mem_s
      ((stats.Migrate.Wire.ds_blocks * Heap.header_cells)
      + stats.Migrate.Wire.ds_shipped_cells)
  in
  let xfer2_s = Net.Simnet.transfer_seconds net dbytes in
  let warm = Migrate.Server.handle recv delta_bytes in
  let compile2_s = compile_s warm in
  let total2 = pack2_s +. xfer2_s +. compile2_s +. restore_s in
  (* the same delta handed to a receiver that holds no baseline *)
  let recv_cold = mk_server () in
  let refused =
    match Migrate.Server.handle recv_cold delta_bytes with
    | Ok _ -> failwith "bench: baseline-less receiver accepted a delta"
    | Error m -> m
  in
  (* hop 2 of a mixed-arch bounce: hop 1's image resumes on a risc64
     node, which packs hop 2 against the cisc32 hop-1 baseline; a third
     cisc32 receiver holding that baseline rebuilds and resumes it *)
  let recv_mixed = mk_server () in
  ignore (Migrate.Server.handle recv_mixed packed1.Migrate.Pack.p_bytes);
  ignore
    (Migrate.Server.remember_baseline ~digest:digest1 recv_mixed
       packed1.Migrate.Pack.p_image);
  let proc_risc =
    match
      Migrate.Pack.unpack ~arch:Vm.Arch.risc64 packed1.Migrate.Pack.p_bytes
    with
    | Ok (p, _, _, _) -> p
    | Error m -> failwith ("bench: risc64 resume failed: " ^ m)
  in
  (match Vm.Interp.run proc_risc with
  | Vm.Process.Migrating _ -> ()
  | _ -> failwith "bench: risc64 migrator did not reach its second hop");
  let packed2m = Migrate.Pack.pack_request ~with_binary:false proc_risc in
  let mixed_bytes, mixed_stats =
    match
      Migrate.Pack.delta ~baseline:packed1.Migrate.Pack.p_image
        ~base_digest:digest1 packed2m
    with
    | Some r -> r
    | None -> failwith "bench: cross-architecture delta refused"
  in
  let packm_s =
    Vm.Arch.seconds Vm.Arch.risc64
      (((mixed_stats.Migrate.Wire.ds_blocks * Heap.header_cells)
       + mixed_stats.Migrate.Wire.ds_shipped_cells)
      * Vm.Arch.risc64.Vm.Arch.cycles Vm.Arch.Mem)
  in
  let xferm_s =
    Net.Simnet.transfer_seconds net (String.length mixed_bytes)
  in
  let mixed = Migrate.Server.handle recv_mixed mixed_bytes in
  let totalm = packm_s +. xferm_s +. compile_s mixed +. restore_s in
  (* both warm hops run to completion on their receivers *)
  let exit_code = function
    | Ok o -> (
      match Vm.Interp.run o.Migrate.Server.o_process with
      | Vm.Process.Exited n -> Some n
      | _ -> None)
    | Error _ -> None
  in
  let warm_exit = exit_code warm and mixed_exit = exit_code mixed in
  (* byte columns read back out of the receivers' metrics registries *)
  let c srv name =
    Obs.Metrics.counter_value (Migrate.Server.metrics srv) name
  in
  let warm_bytes = c recv "migrate.bytes_delta" in
  Printf.printf "  %-22s %-10s %-10s %-10s %s\n" "hop" "bytes" "pack(s)"
    "xfer(s)" "total(s)";
  Printf.printf "  %-22s %-10d %-10.4f %-10.4f %.4f\n" "cold (full)"
    (c recv "migrate.bytes_full")
    pack1_s xfer1_s total1;
  Printf.printf "  %-22s %-10d %-10.4f %-10.4f %.4f\n" "warm (delta)"
    warm_bytes pack2_s xfer2_s total2;
  Printf.printf "  %-22s %-10d %-10.4f %-10.4f %.4f\n"
    "mixed-arch (delta)"
    (c recv_mixed "migrate.bytes_delta")
    packm_s xferm_s totalm;
  Printf.printf
    "\n  delta: %d blocks walked, %d copied, %d patched, %d literal; \
     %d/%d cells shipped\n"
    stats.Migrate.Wire.ds_blocks stats.Migrate.Wire.ds_copy
    stats.Migrate.Wire.ds_patch stats.Migrate.Wire.ds_lit
    stats.Migrate.Wire.ds_shipped_cells stats.Migrate.Wire.ds_total_cells;
  (* the reconstruction the receiver resumed is byte-identical to what a
     full hop would have delivered *)
  let reconstructed =
    match Migrate.Wire.decode_packet delta_bytes with
    | Migrate.Wire.Delta d ->
      Migrate.Wire.apply_delta ~baseline:packed1.Migrate.Pack.p_image d
    | Migrate.Wire.Full _ -> failwith "bench: delta encoded as full"
  in
  print_newline ();
  verdict "warm delta image <= 25% of the full image"
    (dbytes * 4 <= String.length packed2.Migrate.Pack.p_bytes);
  verdict "reconstruction re-encodes byte-identically"
    (String.equal
       (Migrate.Wire.encode reconstructed)
       packed2.Migrate.Pack.p_bytes);
  (* cold and warm hop accepted, the warm one as the delta *)
  let accepted_both srv delta_len =
    c srv "server.accepted" = 2
    && c srv "server.rejected" = 0
    && c srv "migrate.bytes_delta" = delta_len
  in
  verdict "receiver: 2 accepted, 0 rejected, delta bytes match"
    (accepted_both recv dbytes);
  verdict "no baseline: delta rejected as unknown baseline"
    (String.equal refused ("unknown baseline " ^ digest1)
    && c recv_cold "server.rejected" = 1);
  verdict "warm delta hop total < cold hop total" (total2 < total1);
  verdict "risc64 hop over a cisc32 baseline: delta, same exit"
    (accepted_both recv_mixed (String.length mixed_bytes)
    && mixed_exit <> None && mixed_exit = warm_exit)

(* ================================================================== *)
(* A1 (ablation): copy-on-write speculation vs migration-based         *)
(* rollback (paper Section 4.3: expressing rollback with checkpoint    *)
(* files "can be very expensive ... even parts of the state that have  *)
(* not changed ... speculation uses a copy-on-write mechanism ... and  *)
(* does not need to recompile the code")                               *)
(* ================================================================== *)

let a1 () =
  section "A1 (ablation): COW speculation vs checkpoint-file rollback";
  (* a process with a 200 KB live heap stopped at a safe point *)
  let proc =
    run_to_migration
      (Minic.Driver.compile_exn (migrator_source ~variants:2 ~cells:25_600 ()))
  in
  (* put it back in the Running state at a safe point *)
  Vm.Process.migration_failed proc;
  let heap = proc.Vm.Process.heap in
  let engine = proc.Vm.Process.spec in
  let idxs =
    (* the blocks we will mutate: allocate a fresh working set *)
    Array.init 400 (fun i ->
        Heap.alloc heap ~tag:Heap.Array ~size:16 ~init:(Value.Vint i))
  in
  let mutate_some () =
    for i = 0 to (Array.length idxs / 10) - 1 do
      Heap.write heap idxs.(i) 0 (Value.Vint (-i))
    done
  in
  (* --- COW speculation: enter, mutate 10 %, abort *)
  let cow_s =
    time_op ~iters:200 (fun () ->
        let t0 = now_s () in
        let _ = Spec.Engine.enter engine ~cont:Speculation.cont0 in
        mutate_some ();
        let _ = Spec.Engine.rollback engine 1 in
        Spec.Engine.commit engine (Spec.Engine.depth engine);
        now_s () -. t0)
  in
  (* --- migration-based rollback: checkpoint the WHOLE process on entry,
     restore it (verify + recompile) on abort *)
  let packed = ref None in
  let ckpt_wall =
    time_op ~iters:20 (fun () ->
        let t0 = now_s () in
        packed := Some (Migrate.Pack.pack_running ~with_binary:false proc);
        now_s () -. t0)
  in
  let p = Option.get !packed in
  let bytes = String.length p.Migrate.Pack.p_bytes in
  let unpack () =
    match Migrate.Pack.unpack ~arch p.Migrate.Pack.p_bytes with
    | Ok (_, _, _, c) -> c.Migrate.Pack.u_compile_cycles
    | Error m -> failwith m
  in
  let restore_wall =
    time_op ~iters:20 (fun () ->
        let t0 = now_s () in
        ignore (unpack ());
        now_s () -. t0)
  in
  let mig_sim =
    (2.0 *. Net.Simnet.transfer_seconds (Net.Simnet.create ()) bytes)
    (* write + read back *)
    +. seconds (unpack ())
  in
  Printf.printf "  COW speculation (enter + 10%% mutate + abort):\n";
  Printf.printf "    host wall:        %10.1f us\n" (cow_s *. 1e6);
  Printf.printf
    "  migration-based rollback (checkpoint file on entry, restore on \
     abort):\n";
  Printf.printf "    image size:       %10d bytes (the WHOLE state)\n" bytes;
  Printf.printf "    host wall:        %10.1f us (pack %0.1f + restore %0.1f)\n"
    ((ckpt_wall +. restore_wall) *. 1e6)
    (ckpt_wall *. 1e6) (restore_wall *. 1e6);
  Printf.printf "    simulated:        %10.1f ms (2 x transfer + recompile)\n"
    (mig_sim *. 1e3);
  print_newline ();
  verdict "COW abort beats checkpoint-file rollback by >= 10x"
    (cow_s *. 10.0 < ckpt_wall +. restore_wall);
  verdict "checkpoint ships unmodified state (image >> modified bytes)"
    (bytes > 10 * (400 / 10 * 16 * 8))
