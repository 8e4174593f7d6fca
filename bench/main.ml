(* The benchmark harness: regenerates every result in the paper's
   evaluation (Section 5 and Figures 1-2).  See DESIGN.md section 3 for
   the experiment index and EXPERIMENTS.md for paper-vs-measured records.

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe e1 e3 f2   # a subset

   Each experiment prints the paper's reported numbers next to ours and a
   shape verdict.  Absolute times differ by construction (their testbed
   is a 2007 cluster of 700 MHz machines; our substrate is a simulator on
   modern hardware), so the criteria are the SHAPES the paper's
   conclusions rest on: who dominates, by what factor, what stays flat
   and what grows. *)

open Runtime

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let verdict name ok =
  Printf.printf "  shape check: %-52s %s\n" name
    (if ok then "[PASS]" else "[FAIL]")

(* nanosecond-resolution monotonic clock (bechamel's C stub); seconds *)
let now_s () = Bechamel.Toolkit.Monotonic_clock.get () /. 1e9

let wall f =
  let t0 = now_s () in
  let r = f () in
  r, now_s () -. t0

(* ------------------------------------------------------------------ *)
(* Bechamel helper: ns/run estimate for a thunk                        *)
(* ------------------------------------------------------------------ *)

let bechamel_ns ?(quota = 0.3) name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false
      ~quota:(Time.second quota) ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
  | [ r ] -> (
    match Analyze.OLS.estimates r with
    | Some [ ns ] -> ns
    | Some _ | None -> nan)
  | _ -> nan

(* ================================================================== *)
(* E1: whole-process migration time (paper: 4 s for a 1 MB heap with   *)
(* FIR recompilation, ~10 % network transfer; binary migration < 1 s,  *)
(* ~30 % transfer)                                                     *)
(* ================================================================== *)

(* The migrating workload: an application-sized program whose live state
   is a float array of the requested size.  [variants] stencil-kernel
   families pad the code to the footprint of a real application (a few
   thousand FIR nodes — the scale the paper's recompilation time
   implies); each variant is invoked once before the migration so dead-
   code elimination keeps it. *)
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

let migrator_source ?(variants = 6) ~cells () =
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
  migrate("mcc://destination");
  return checksum(data, n) + (int)acc;
}
|}
      (Buffer.contents calls) cells

let run_to_migration fir =
  let proc = Vm.Process.create fir in
  match Vm.Interp.run proc with
  | Vm.Process.Migrating _ -> proc
  | _ -> failwith "bench: migrator did not reach its migration point"

let e1 () =
  section "E1: whole-process migration (paper Section 5, paragraph 1)";
  Printf.printf
    "paper: 1 MB heap, untrusted (FIR+recompile): 4 s total, ~10%% \
     transfer\n";
  Printf.printf
    "paper: 1 MB heap, trusted same-arch (binary): <1 s total, ~30%% \
     transfer\n\n";
  (* Effective application-level throughput, calibrated from the paper:
     its 1 MB-heap FIR migration spends ~10 % of 4 s (~0.4 s) in network
     transfer for a ~1.2 MB image, i.e. ~24 Mbps end-to-end over their
     100 Mbps Ethernet (connection setup + streaming overheads included).
     The raw wire rate stays 100 Mbps elsewhere in the repository. *)
  let net = Net.Simnet.create ~bandwidth_mbps:24.0 () in
  let arch = Vm.Arch.cisc32 in
  let clock = float_of_int arch.Vm.Arch.clock_mhz *. 1e6 in
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
      let cells = kb * 1024 / 8 in
      let fir =
        match Minic.Driver.compile (migrator_source ~cells ()) with
        | Ok fir -> fir
        | Error e -> failwith (Minic.Driver.error_to_string e)
      in
      List.iter
        (fun binary ->
          let proc = run_to_migration fir in
          let (packed : Migrate.Pack.packed), pack_wall =
            wall (fun () -> Migrate.Pack.pack_request ~with_binary:binary proc)
          in
          ignore pack_wall;
          let bytes = String.length packed.Migrate.Pack.p_bytes in
          let heap_cells = Heap.used_cells proc.Vm.Process.heap in
          let pack_s =
            float_of_int (heap_cells * arch.Vm.Arch.cycles Vm.Arch.Mem)
            /. clock
          in
          let xfer_s = Net.Simnet.transfer_seconds net bytes in
          let server = if binary then server_bin else server_fir in
          let outcome, unpack_wall =
            wall (fun () ->
                Migrate.Server.handle server packed.Migrate.Pack.p_bytes)
          in
          ignore unpack_wall;
          let compile_s =
            match outcome with
            | Ok o ->
              float_of_int o.Migrate.Server.o_costs.Migrate.Pack.u_compile_cycles
              /. clock
            | Error m -> failwith ("bench: unpack failed: " ^ m)
          in
          let restore_s =
            float_of_int (heap_cells * arch.Vm.Arch.cycles Vm.Arch.Mem)
            /. clock
          in
          let total = pack_s +. xfer_s +. compile_s +. restore_s in
          let frac = 100.0 *. xfer_s /. total in
          Printf.printf "  %-10s %-6s %-10d %-10.4f %-10.4f %-10.4f %-8.3f %.0f%%\n"
            (Printf.sprintf "%d KB" kb)
            (if binary then "binary" else "FIR")
            bytes pack_s xfer_s compile_s total frac;
          results := (kb, binary, total, frac) :: !results)
        [ false; true ])
    [ 64; 256; 1024; 4096 ];
  let find kb binary =
    let _, _, total, frac =
      List.find (fun (k, b, _, _) -> k = kb && b = binary) !results
    in
    total, frac
  in
  let fir_total, fir_frac = find 1024 false in
  let bin_total, bin_frac = find 1024 true in
  print_newline ();
  (* totals straight out of the server metrics registries *)
  let totals label srv =
    let m = Migrate.Server.metrics srv in
    let c name = Obs.Metrics.counter_value m name in
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
  let fir_1mb =
    match Minic.Driver.compile (migrator_source ~cells:(1024 * 128) ()) with
    | Ok fir -> fir
    | Error _ -> assert false
  in
  let proc = run_to_migration fir_1mb in
  let pack_ns =
    bechamel_ns "pack(1MB)" (fun () ->
        ignore (Migrate.Pack.pack_request ~with_binary:false proc))
  in
  let packed = Migrate.Pack.pack_request ~with_binary:false proc in
  let unpack_ns =
    bechamel_ns "unpack(1MB)" (fun () ->
        match
          Migrate.Pack.unpack ~arch ~trusted:false packed.Migrate.Pack.p_bytes
        with
        | Ok _ -> ()
        | Error _ -> ())
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
  let net = Net.Simnet.create ~bandwidth_mbps:24.0 () in
  let arch = Vm.Arch.cisc32 in
  let clock = float_of_int arch.Vm.Arch.clock_mhz *. 1e6 in
  let fir =
    match Minic.Driver.compile (migrator_source ~cells:(1024 * 128) ()) with
    | Ok fir -> fir
    | Error e -> failwith (Minic.Driver.error_to_string e)
  in
  let proc = run_to_migration fir in
  let packed = Migrate.Pack.pack_request ~with_binary:false proc in
  let bytes = String.length packed.Migrate.Pack.p_bytes in
  let heap_cells = Heap.used_cells proc.Vm.Process.heap in
  let mem_s =
    float_of_int (heap_cells * arch.Vm.Arch.cycles Vm.Arch.Mem) /. clock
  in
  let xfer_s = Net.Simnet.transfer_seconds net bytes in
  let hops = 10 in
  (* one unpack on the destination of hop [i]; returns the simulated
     migration total for that hop *)
  let deliver ?cache () =
    match
      Migrate.Pack.unpack ~trusted:false ?cache ~arch
        packed.Migrate.Pack.p_bytes
    with
    | Ok (_, _, _, costs) ->
      let compile_s =
        float_of_int costs.Migrate.Pack.u_compile_cycles /. clock
      in
      (* pack + transfer + (compile | link) + heap restore *)
      mem_s +. xfer_s +. compile_s +. mem_s, costs.Migrate.Pack.u_cache_hit
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

(* The E1 migrator, made to hop twice: between migrations it overwrites
   a [window]-cell slice of its [cells]-cell array, so the second pack's
   dirty set is a small fraction of the heap and the v7 delta encoding
   can ship just that. *)
let delta_migrator_source ?(variants = 6) ~cells ~hops ~window () =
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
  int hop;
  for (hop = 0; hop < %d; hop = hop + 1) {
    for (i = 0; i < %d; i = i + 1) {
      data[(hop * %d + i) %% n] = data[(hop * %d + i) %% n] + 1.0;
    }
    migrate("mcc://destination");
  }
  return checksum(data, n) + (int)acc;
}
|}
      (Buffer.contents calls) cells hops window window window

let e1d () =
  section "E1d: delta migration (dirty-window deltas over a baseline)";
  Printf.printf
    "1 MB heap bounces; between hops the program rewrites a %d-cell \
     window\n(~1.6%% of the array).  Warm hops ship a v7 delta over the \
     receiver's\nretained baseline; a receiver without the baseline \
     forces a full re-ship.\n\n"
    2048;
  let net = Net.Simnet.create ~bandwidth_mbps:24.0 () in
  let arch = Vm.Arch.cisc32 in
  let clock = float_of_int arch.Vm.Arch.clock_mhz *. 1e6 in
  let cells = 1024 * 128 in
  let fir =
    match
      Minic.Driver.compile
        (delta_migrator_source ~cells ~hops:2 ~window:2048 ())
    with
    | Ok fir -> fir
    | Error e -> failwith (Minic.Driver.error_to_string e)
  in
  let proc = run_to_migration fir in
  (* two instrumented receivers, both with recompilation caches (the
     E1c warm path): one retains delta baselines, one cannot *)
  let mk_server baseline_cache =
    Migrate.Server.(
      create_cfg
        { Config.default with
          cache = Some (Migrate.Codecache.create ~capacity:16 ());
          baseline_cache }
        arch)
  in
  let recv = mk_server 4 in
  let recv_cold = mk_server 0 in
  let mem_s () =
    float_of_int
      (Heap.used_cells proc.Vm.Process.heap
      * arch.Vm.Arch.cycles Vm.Arch.Mem)
    /. clock
  in
  let compile_s outcome =
    match outcome with
    | Ok o ->
      float_of_int o.Migrate.Server.o_costs.Migrate.Pack.u_compile_cycles
      /. clock
    | Error m -> failwith ("bench: delivery failed: " ^ m)
  in
  (* hop 1: cold — the full image travels and becomes the baseline *)
  let packed1 = Migrate.Pack.pack_request ~with_binary:false proc in
  let digest1 = Migrate.Wire.image_digest packed1.Migrate.Pack.p_image in
  let full1 = String.length packed1.Migrate.Pack.p_bytes in
  let pack1_s = mem_s () in
  let restore_s = mem_s () in
  let xfer1_s = Net.Simnet.transfer_seconds net full1 in
  let compile1_s =
    compile_s (Migrate.Server.handle recv packed1.Migrate.Pack.p_bytes)
  in
  (* the baseline-less receiver also sees hop 1 (warming its CODE cache
     but retaining no image) *)
  ignore (Migrate.Server.handle recv_cold packed1.Migrate.Pack.p_bytes);
  let total1 = pack1_s +. xfer1_s +. compile1_s +. restore_s in
  (* the source keeps running (failed-migration semantics), mutates its
     window, and reaches the next migration point *)
  Vm.Process.migration_failed proc;
  (match Vm.Interp.run proc with
  | Vm.Process.Migrating _ -> ()
  | _ -> failwith "bench: migrator did not reach its second hop");
  let packed2 = Migrate.Pack.pack_request ~with_binary:false proc in
  let full2 = String.length packed2.Migrate.Pack.p_bytes in
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
    float_of_int
      (((stats.Migrate.Wire.ds_blocks * Heap.header_cells)
       + stats.Migrate.Wire.ds_shipped_cells)
      * arch.Vm.Arch.cycles Vm.Arch.Mem)
    /. clock
  in
  let xfer2_s = Net.Simnet.transfer_seconds net dbytes in
  let compile2_s = compile_s (Migrate.Server.handle recv delta_bytes) in
  let total2 = pack2_s +. xfer2_s +. compile2_s +. restore_s in
  (* hop 2 against the baseline-less receiver: the delta is rejected as
     unknown-baseline and the sender re-ships the full image *)
  (match Migrate.Server.handle recv_cold delta_bytes with
  | Error m when Migrate.Server.is_unknown_baseline m -> ()
  | Ok _ -> failwith "bench: baseline-less receiver accepted a delta"
  | Error m -> failwith ("bench: unexpected rejection: " ^ m));
  let fullpack2_s = mem_s () in
  let xfer2f_s = Net.Simnet.transfer_seconds net full2 in
  let compile2f_s =
    compile_s (Migrate.Server.handle recv_cold packed2.Migrate.Pack.p_bytes)
  in
  let total3 =
    pack2_s +. xfer2_s +. fullpack2_s +. xfer2f_s +. compile2f_s
    +. restore_s
  in
  (* byte columns read back out of the receivers' metrics registries *)
  let c srv name =
    Obs.Metrics.counter_value (Migrate.Server.metrics srv) name
  in
  let warm_bytes = c recv "migrate.bytes_delta" in
  let fallback_bytes =
    c recv_cold "migrate.bytes_delta"
    + (c recv_cold "migrate.bytes_full" - full1)
  in
  Printf.printf "  %-22s %-10s %-10s %-10s %s\n" "hop" "bytes" "pack(s)"
    "xfer(s)" "total(s)";
  Printf.printf "  %-22s %-10d %-10.4f %-10.4f %.4f\n" "cold (full)"
    (c recv "migrate.bytes_full")
    pack1_s xfer1_s total1;
  Printf.printf "  %-22s %-10d %-10.4f %-10.4f %.4f\n" "warm (delta)"
    warm_bytes pack2_s xfer2_s total2;
  Printf.printf "  %-22s %-10d %-10.4f %-10.4f %.4f\n"
    "forced-full fallback" fallback_bytes
    (pack2_s +. fullpack2_s)
    (xfer2_s +. xfer2f_s)
    total3;
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
  verdict "warm delta image <= 25% of the full image" (dbytes * 4 <= full2);
  verdict "reconstruction re-encodes byte-identically"
    (String.equal
       (Migrate.Wire.encode reconstructed)
       packed2.Migrate.Pack.p_bytes);
  verdict "receiver registry: 1 delta hit, 0 misses"
    (c recv "migrate.delta_hits" = 1 && c recv "migrate.delta_misses" = 0);
  verdict "unknown baseline rejected, full re-ship accepted"
    (c recv_cold "migrate.delta_misses" = 1
    && c recv_cold "server.accepted" = 2);
  verdict "warm delta hop total < cold hop total" (total2 < total1)

(* ================================================================== *)
(* E2-E4: speculation cost vs heap mutation (paper Section 5,          *)
(* paragraph 2: entry ~40 us independent of mutation; abort 120->135   *)
(* us for 10->100 %; commit 81->87 us; 200 KB heap)                    *)
(* ================================================================== *)

(* A 200 KB heap: 1600 blocks of 16 cells (8 bytes per cell). *)
let spec_blocks = 1600
let spec_block_cells = 16

let make_spec_heap () =
  let heap = Heap.create ~initial_cells:(spec_blocks * 24 * 2) () in
  let engine = Spec.Engine.create heap in
  let idxs =
    Array.init spec_blocks (fun i ->
        Heap.alloc heap ~tag:Heap.Array ~size:spec_block_cells
          ~init:(Value.Vint i))
  in
  heap, engine, idxs

let cont0 = { Spec.Engine.entry = "bench"; args = [] }

(* mutate [percent] % of the blocks (one write each: the per-block COW
   clone is the speculation cost driver) *)
let mutate heap idxs percent =
  let n = Array.length idxs * percent / 100 in
  for i = 0 to n - 1 do
    Heap.write heap idxs.(i) 0 (Value.Vint (-i))
  done

let time_op ~iters f =
  (* returns MEDIAN seconds per operation: microsecond-scale samples are
     occasionally inflated by host GC pauses or OS jitter, and a single
     outlier would skew a mean *)
  let samples = Array.init iters (fun _ -> f ()) in
  Array.sort compare samples;
  samples.(iters / 2)

let e2_e4 () =
  section "E2-E4: speculation operations vs heap mutation (200 KB heap)";
  Printf.printf
    "paper: entry ~40 us (flat); abort 120 us @10%% -> 135 us @100%%; \
     commit 81 us @10%% -> 87 us @100%%\n\n";
  let iters = 400 in
  (* entry: O(1), measured at various pre-existing mutation levels *)
  let entry_at percent =
    let heap, engine, idxs = make_spec_heap () in
    time_op ~iters (fun () ->
        (* mutate OUTSIDE the timed region; time the enter alone *)
        mutate heap idxs percent;
        let t0 = now_s () in
        let _ = Spec.Engine.enter engine ~cont:cont0 in
        let dt = now_s () -. t0 in
        Spec.Engine.commit engine (Spec.Engine.depth engine);
        dt)
  in
  let abort_at percent =
    let heap, engine, idxs = make_spec_heap () in
    time_op ~iters (fun () ->
        let _ = Spec.Engine.enter engine ~cont:cont0 in
        mutate heap idxs percent;
        let t0 = now_s () in
        let _ = Spec.Engine.rollback engine 1 in
        let dt = now_s () -. t0 in
        (* rollback re-enters (retry): drop the retry level *)
        Spec.Engine.commit engine (Spec.Engine.depth engine);
        dt)
  in
  let commit_at percent =
    let heap, engine, idxs = make_spec_heap () in
    time_op ~iters (fun () ->
        let _ = Spec.Engine.enter engine ~cont:cont0 in
        mutate heap idxs percent;
        let t0 = now_s () in
        Spec.Engine.commit engine 1;
        now_s () -. t0)
  in
  Printf.printf "  %-12s %-12s %-12s %-12s\n" "mutation" "entry(us)"
    "abort(us)" "commit(us)";
  let entries = ref [] and aborts = ref [] and commits = ref [] in
  List.iter
    (fun percent ->
      let e = entry_at percent *. 1e6 in
      let a = abort_at percent *. 1e6 in
      let c = commit_at percent *. 1e6 in
      entries := (percent, e) :: !entries;
      aborts := (percent, a) :: !aborts;
      commits := (percent, c) :: !commits;
      Printf.printf "  %-12s %-12.2f %-12.2f %-12.2f\n"
        (string_of_int percent ^ "%")
        e a c)
    [ 0; 10; 25; 50; 75; 100 ];
  let at l p = List.assoc p !l in
  print_newline ();
  verdict "entry flat in mutation (spread < 3x across sweep)"
    (let es = List.map snd !entries in
     let mx = List.fold_left max (List.hd es) es
     and mn = List.fold_left min (List.hd es) es in
     mx < 3.0 *. mn +. 1.0 (* +1us noise floor *));
  verdict "abort grows with mutation (10% -> 100%)"
    (at aborts 100 > at aborts 10);
  verdict "commit grows with mutation (10% -> 100%)"
    (at commits 100 > at commits 10);
  verdict "abort costs more than commit at every mutation level"
    (List.for_all
       (fun (p, a) -> a >= at commits p *. 0.8)
       !aborts);
  verdict "entry much cheaper than abort at 10%"
    (at entries 10 *. 2.0 < at aborts 10);
  (* bechamel cross-checks: full enter+mutate+resolve cycles *)
  let heap, engine, idxs = make_spec_heap () in
  let cycle_commit =
    bechamel_ns "enter+mutate10%+commit" (fun () ->
        let _ = Spec.Engine.enter engine ~cont:cont0 in
        mutate heap idxs 10;
        Spec.Engine.commit engine (Spec.Engine.depth engine))
  in
  let heap, engine, idxs = make_spec_heap () in
  let cycle_abort =
    bechamel_ns "enter+mutate10%+abort" (fun () ->
        let _ = Spec.Engine.enter engine ~cont:cont0 in
        mutate heap idxs 10;
        let _ = Spec.Engine.rollback engine 1 in
        Spec.Engine.commit engine (Spec.Engine.depth engine))
  in
  Printf.printf
    "\n  bechamel (full cycles @10%% mutation): commit cycle = %.1f us, \
     abort cycle = %.1f us\n"
    (cycle_commit /. 1e3) (cycle_abort /. 1e3)

(* ================================================================== *)
(* E5: context switch baseline (paper: ~300 us for 2 processes with    *)
(* 200 KB heaps — speculation entry is an order cheaper)               *)
(* ================================================================== *)

let e5 () =
  section "E5: context-switch baseline (paper Section 5)";
  Printf.printf
    "paper: context switch ~300 us (2 procs, 200 KB heaps) vs \
     speculation entry ~40 us\n\n";
  List.iter
    (fun arch ->
      let cycles = Vm.Emulator.context_switch_cycles arch in
      Printf.printf
        "  %-8s register-file save/restore: %4d cycles = %6.3f us \
         simulated\n"
        arch.Vm.Arch.name cycles
        (Vm.Arch.seconds arch cycles *. 1e6))
    Vm.Arch.all;
  (* speculation entry on the simulated clock for comparison *)
  let entry_cycles = Vm.Arch.cisc32.Vm.Arch.cycles Vm.Arch.Trap in
  Printf.printf
    "  %-8s speculation entry trap:      %4d cycles = %6.3f us \
     simulated\n"
    "cisc32" entry_cycles
    (Vm.Arch.seconds Vm.Arch.cisc32 entry_cycles *. 1e6);
  print_newline ();
  verdict "speculation entry cheaper than a context switch"
    (entry_cycles < Vm.Emulator.context_switch_cycles Vm.Arch.cisc32)

(* ================================================================== *)
(* F1: Figure 1's atomic transfer under fault injection                *)
(* ================================================================== *)

let transfer_src speculative =
  if speculative then
    {|
int transfer(int obj1, int obj2, int k) {
  int *buf1 = alloc_int(k);
  int *buf2 = alloc_int(k);
  int specid = speculate();
  if (specid > 0) {
    if (obj_read(obj1, buf1, k) != k) abort(specid);
    if (obj_read(obj2, buf2, k) != k) abort(specid);
    if (obj_write(obj1, buf2, k) != k) abort(specid);
    if (obj_write(obj2, buf1, k) != k) abort(specid);
    commit(specid);
    return 1;
  }
  return 0;
}
int main() { return transfer(1, 2, 4); }
|}
  else
    {|
int transfer(int obj1, int obj2, int k) {
  int *buf1 = alloc_int(k);
  int *buf2 = alloc_int(k);
  if (obj_read(obj1, buf1, k) != k) return 0;
  if (obj_read(obj2, buf2, k) != k) return 0;
  if (obj_write(obj1, buf2, k) != k) return 0;
  if (obj_write(obj2, buf1, k) != k) {
    int tries = 0;
    while (obj_write(obj1, buf1, k) != k) {
      tries = tries + 1;
      if (tries > 3) { return 0 - 1; }
    }
    return 0;
  }
  return 1;
}
int main() { return transfer(1, 2, 4); }
|}

let f1 () =
  section "F1: Figure 1 — atomicity of the speculative transfer";
  let fir_trad =
    match Minic.Driver.compile (transfer_src false) with
    | Ok f -> f
    | Error _ -> assert false
  in
  let fir_spec =
    match Minic.Driver.compile (transfer_src true) with
    | Ok f -> f
    | Error _ -> assert false
  in
  let runs = 200 in
  let tally fir p =
    let ok = ref 0 and clean = ref 0 and bad = ref 0 in
    for seed = 1 to runs do
      let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 1; seed } in
      Net.Cluster.set_object cluster 1 "AAAA";
      Net.Cluster.set_object cluster 2 "BBBB";
      Net.Cluster.set_object_failure_probability cluster p;
      let pid = Net.Cluster.spawn cluster ~node_id:0 ~seed fir in
      let _ = Net.Cluster.run cluster in
      let status =
        match Net.Cluster.entry_of_pid cluster pid with
        | Some e -> e.Net.Cluster.proc.Vm.Process.status
        | None -> Vm.Process.Trapped "lost"
      in
      let o1 = Option.get (Net.Cluster.get_object cluster 1) in
      let o2 = Option.get (Net.Cluster.get_object cluster 2) in
      match status with
      | Vm.Process.Exited 1 when o1 = "BBBB" && o2 = "AAAA" -> incr ok
      | Vm.Process.Exited 0 when o1 = "AAAA" && o2 = "BBBB" -> incr clean
      | _ -> incr bad
    done;
    !ok, !clean, !bad
  in
  Printf.printf "  %-22s %-8s %-9s %-11s %s\n" "version" "p(fail)" "success"
    "clean fail" "INCONSISTENT";
  let spec_bad = ref 0 and trad_bad = ref 0 in
  List.iter
    (fun p ->
      let ok, clean, bad = tally fir_trad p in
      trad_bad := !trad_bad + bad;
      Printf.printf "  %-22s %-8.2f %-9d %-11d %d\n" "traditional" p ok clean
        bad;
      let ok, clean, bad = tally fir_spec p in
      spec_bad := !spec_bad + bad;
      Printf.printf "  %-22s %-8.2f %-9d %-11d %d\n" "speculative (Fig. 1)" p
        ok clean bad)
    [ 0.1; 0.3; 0.5 ];
  print_newline ();
  verdict "speculative transfer never inconsistent" (!spec_bad = 0);
  verdict "hand-written undo IS sometimes inconsistent" (!trad_bad > 0)

(* ================================================================== *)
(* F2: Figure 2 — grid computation, failure, recovery                  *)
(* ================================================================== *)

let grid_config interval =
  (* a long-running computation (the paper's setting): each step models a
     3 ms production-scale tile via the work_us charge, while the small
     verification grid is still checked bit-exactly against the golden
     model *)
  { Mcc.Gridapp.ranks = 4; rows_per_rank = 6; cols = 12; timesteps = 120;
    interval; work_us_per_step = 3000 }

let fresh_cluster ?(nodes = 5) ?(faults = Net.Faults.none) ?(seed = 1)
    ?detector ?(replication = 0) () =
  Net.Cluster.create_cfg
    { Net.Cluster.Config.default with
      node_count = nodes;
      seed;
      net = Some (Net.Simnet.create ~latency_us:5.0 ());
      faults;
      detector;
      replication }

(* run to completion without faults; returns simulated seconds *)
let grid_clean interval =
  let cluster = fresh_cluster () in
  let d = Mcc.Gridapp.deploy ~spare:true cluster (grid_config interval) in
  let _ = Mcc.Gridapp.run d in
  let ok =
    Array.for_all2
      (fun g s -> s = Some g)
      (Mcc.Gridapp.golden_checksums (grid_config interval))
      (Mcc.Gridapp.checksums d)
  in
  if not ok then failwith "bench: clean grid run diverged from golden";
  Net.Cluster.now cluster

(* run with one node failure + checkpoint recovery *)
let grid_recover interval =
  let cluster = fresh_cluster () in
  let config = grid_config interval in
  let d = Mcc.Gridapp.deploy ~spare:true cluster config in
  let victims =
    (* strike when roughly 60 % of the computation is done *)
    Mcc.Gridapp.fail_and_recover ~rounds_before_failure:20
      ~after_time:(0.6 *. float_of_int (grid_config interval).Mcc.Gridapp.timesteps
                   *. float_of_int (grid_config interval).Mcc.Gridapp.work_us_per_step
                   *. 1e-6)
      d ~victim_node:1 ~spare_node:4
  in
  let t_fail = Net.Cluster.now cluster in
  let _ = Mcc.Gridapp.run d in
  let ok =
    Array.for_all2
      (fun g s -> s = Some g)
      (Mcc.Gridapp.golden_checksums config)
      (Mcc.Gridapp.checksums d)
  in
  if not ok then failwith "bench: recovery run diverged from golden";
  victims, t_fail, Net.Cluster.now cluster, cluster

let f2 () =
  section "F2: Figure 2 — recovery cost: checkpoint+rollback vs restart";
  let interval = 10 in
  let t_plain = grid_clean 0 in
  let t_ckpt = grid_clean interval in
  let victims, t_fail, t_recover, cluster = grid_recover interval in
  (* restart-from-scratch: everything until the failure is wasted, every
     rank's process must be started again (load + stub link, like a
     resurrection without the saved progress), and the whole computation
     reruns *)
  let startup_s =
    let fir = Mcc.Gridapp.compile_rank (grid_config interval) 0 in
    let image = Vm.Codegen.compile ~arch:Vm.Arch.cisc32 fir in
    Vm.Arch.seconds Vm.Arch.cisc32 (Vm.Codegen.simulated_link_cycles image)
  in
  let t_restart = t_fail +. startup_s +. t_plain in
  Printf.printf "  fault-free, no fault tolerance:        %8.4f s\n" t_plain;
  Printf.printf "  fault-free, checkpoints every %2d:      %8.4f s  \
                 (overhead %.1f%%)\n"
    interval t_ckpt
    (100.0 *. (t_ckpt -. t_plain) /. t_plain);
  Printf.printf "  failure at t=%.4f s (ranks %s lost):\n" t_fail
    (String.concat "," (List.map string_of_int victims));
  Printf.printf "    recover from checkpoint + rollback:  %8.4f s\n"
    t_recover;
  Printf.printf "    restart from scratch:                %8.4f s\n"
    t_restart;
  (* the recovery run's fault-tolerance traffic, read back from the
     cluster metrics registry *)
  let m = Net.Cluster.metrics cluster in
  let c name = Obs.Metrics.counter_value m name in
  Printf.printf
    "  cluster registry: %d checkpoints, %d node failure(s), %d \
     resurrection(s), %d sched rounds\n"
    (c "cluster.checkpoints")
    (c "cluster.node_failures")
    (c "cluster.resurrections")
    (c "sched.rounds");
  print_newline ();
  verdict "checkpointing overhead is modest (< 50%)"
    (t_ckpt < 1.5 *. t_plain);
  verdict "recovery beats restart-from-scratch" (t_recover < t_restart);
  verdict "recovery cost < one full re-run"
    (t_recover -. t_ckpt < t_plain)

let f2b () =
  section "F2b: checkpoint-interval trade-off (paper Section 2: \"balance \
           the overhead of speculations against the expected cost of \
           fault recovery\")";
  Printf.printf "  %-10s %-14s %-16s\n" "interval" "no-fault (s)"
    "with-failure (s)";
  let rows =
    List.map
      (fun interval ->
        let clean = grid_clean interval in
        let _, _, faulty, _ = grid_recover interval in
        Printf.printf "  %-10d %-14.4f %-16.4f\n" interval clean faulty;
        interval, clean, faulty)
      [ 2; 5; 10; 20; 30 ]
  in
  print_newline ();
  let clean_of i = let _, c, _ = List.find (fun (k, _, _) -> k = i) rows in c in
  verdict "no-fault cost decreases with longer intervals"
    (clean_of 2 > clean_of 30);
  (* with failures the total should not be monotone: tiny intervals pay
     checkpoint overhead, huge intervals pay recovery re-execution *)
  let faulty_of i =
    let _, _, f = List.find (fun (k, _, _) -> k = i) rows in
    f
  in
  verdict "failure runs cost more than their no-fault counterparts"
    (List.for_all (fun (i, c, f) -> ignore i; f > c) rows);
  verdict "short intervals pay visible checkpoint overhead"
    (faulty_of 2 > faulty_of 10 || clean_of 2 > clean_of 10)

(* ================================================================== *)
(* F3: grid completion under injected fault classes                    *)
(* ================================================================== *)

(* Each class is a fault plan fed to the deterministic injection
   runtime; the grid must still terminate with golden checksums and
   exactly one live copy of every rank.  Times are simulated seconds
   well inside the ~0.36 s fault-free span of the 120-step grid. *)
let f3_classes =
  let base = { Net.Faults.none with Net.Faults.f_retransmit_s = 0.0001 } in
  [
    "baseline", Net.Faults.none;
    "loss 10%", { base with Net.Faults.f_loss = 0.10 };
    "dup 5%", { base with Net.Faults.f_dup = 0.05 };
    "jitter", { base with Net.Faults.f_jitter_s = 0.00002 };
    ( "partition",
      { base with
        Net.Faults.f_partitions =
          [ { Net.Faults.pa = 0; pb = 1; p_from = 0.05; p_until = 0.12 } ] } );
    ( "stall",
      { base with
        Net.Faults.f_stalls =
          [ { Net.Faults.s_node = 2; s_at = 0.08; s_for = 0.01 } ] } );
    ( "crash",
      { base with
        Net.Faults.f_crashes = [ { Net.Faults.c_node = 1; c_at = 0.15 } ] } );
    ( "combined",
      { base with
        Net.Faults.f_loss = 0.10;
        f_dup = 0.05;
        f_jitter_s = 0.00002;
        f_partitions =
          [ { Net.Faults.pa = 0; pb = 2; p_from = 0.05; p_until = 0.09 } ];
        f_stalls = [ { Net.Faults.s_node = 3; s_at = 0.10; s_for = 0.005 } ];
        f_crashes = [ { Net.Faults.c_node = 1; c_at = 0.15 } ] } );
  ]

let f3 () =
  section "F3: grid completion under injected fault classes (10% loss, \
           duplication, jitter, partition, stall, crash)";
  let config = grid_config 10 in
  let golden = Mcc.Gridapp.golden_checksums config in
  Printf.printf "  %-11s %-9s %-11s %-8s %-8s %-12s %s\n" "class"
    "time(s)" "retransmit" "dup" "retries" "backoff(ms)" "crashes";
  let rows = ref [] and all_ok = ref true in
  List.iter
    (fun (name, plan) ->
      let plan =
        match Net.Faults.validate plan with
        | Ok p -> p
        | Error e -> failwith ("f3: bad plan for " ^ name ^ ": " ^ e)
      in
      let cluster = fresh_cluster ~faults:plan ~seed:7 () in
      let d = Mcc.Gridapp.deploy ~spare:true cluster config in
      let _ = Mcc.Gridapp.run_resilient d in
      let done_ok =
        Array.for_all2 (fun g s -> s = Some g) golden
          (Mcc.Gridapp.checksums d)
      in
      (* no duplicated ranks: exactly one terminated copy of each *)
      let copies = Array.make config.Mcc.Gridapp.ranks 0 in
      List.iter
        (fun (_, rank, _, status) ->
          match rank, status with
          | Some r, Vm.Process.Exited _
            when r >= 0 && r < Array.length copies ->
            copies.(r) <- copies.(r) + 1
          | _ -> ())
        (Net.Cluster.statuses cluster);
      let single = Array.for_all (fun n -> n = 1) copies in
      all_ok := !all_ok && done_ok && single;
      let t = Net.Cluster.now cluster in
      rows := (name, t) :: !rows;
      let m = Net.Cluster.metrics cluster in
      let c n = Obs.Metrics.counter_value m n in
      Printf.printf "  %-11s %-9.4f %-11d %-8d %-8d %-12.3f %d%s\n" name t
        (c "faults.retransmits")
        (c "faults.msg_dup")
        (c "migrate.retries")
        (1e3 *. Obs.Metrics.hist_sum_of m "migrate.backoff_seconds")
        (c "faults.crashes")
        (if done_ok && single then "" else "  [FAILED]"))
    f3_classes;
  print_newline ();
  verdict "every fault class terminates with golden checksums, one copy \
           per rank" !all_ok;
  let baseline_t = List.assoc "baseline" !rows in
  verdict "no faulty class finishes before the fault-free baseline"
    (List.for_all
       (fun (name, t) -> name = "baseline" || t >= baseline_t -. 1e-9)
       !rows);
  (* the resilient hop protocol itself: one whole-process migration per
     fault class, reporting the per-hop retry/backoff decisions *)
  Printf.printf "\n  migration hop protocol (single process, node 0 -> 1):\n";
  Printf.printf "  %-14s %-9s %-8s %-12s %s\n" "class" "attempts"
    "retries" "backoff(ms)" "outcome";
  let worker =
    match
      Minic.Driver.compile
        {|
int main() {
  int acc = 0;
  int i;
  int round;
  for (round = 0; round < 400; round = round + 1) {
    for (i = 0; i < 50; i = i + 1) acc = (acc + i * 7) % 1000000;
  }
  return acc;
}
|}
    with
    | Ok fir -> fir
    | Error e -> failwith (Minic.Driver.error_to_string e)
  in
  let retried = ref false and degraded = ref false in
  List.iter
    (fun (name, plan) ->
      let cluster =
        fresh_cluster ~nodes:2
          ~faults:{ plan with Net.Faults.f_seed = 7 }
          ~seed:7 ()
      in
      let pid = Net.Cluster.spawn cluster ~node_id:0 worker in
      let _ = Net.Cluster.run cluster ~max_rounds:25 in
      (match
         Net.Cluster.move cluster
           (Net.Cluster.Move.request ~reason:Net.Cluster.Move.Explicit
              (Net.Cluster.Move.Running pid) ~dest:1)
       with
      | Ok { Net.Cluster.Move.mv_report = None; _ } ->
        Printf.printf "  %-14s %-9s %-8s %-12s migrated (no report)\n" name
          "-" "-" "-"
      | Ok { Net.Cluster.Move.mv_report = Some rep; _ } ->
        if rep.Net.Cluster.rep_retries > 0 then retried := true;
        Printf.printf "  %-14s %-9d %-8d %-12.3f migrated\n" name
          rep.Net.Cluster.rep_attempts rep.Net.Cluster.rep_retries
          (1e3 *. rep.Net.Cluster.rep_backoff_s)
      | Error (Net.Cluster.Unreachable { attempts; reason }) ->
        degraded := true;
        Printf.printf "  %-14s %-9d %-8d %-12s resumed locally (%s)\n" name
          attempts (attempts - 1) "-" reason
      | Error e ->
        Printf.printf "  %-14s %-9s %-8s %-12s ERROR %s\n" name "-" "-" "-"
          (Net.Cluster.migration_error_to_string e));
      let _ = Net.Cluster.run cluster in
      ())
    [
      "clean", Net.Faults.none;
      ( "loss 30%",
        { Net.Faults.none with
          Net.Faults.f_loss = 0.30;
          f_retransmit_s = 0.0001 } );
      ( "partition+heal",
        { Net.Faults.none with
          Net.Faults.f_partitions =
            [ { Net.Faults.pa = 0; pb = 1; p_from = 0.0; p_until = 0.05 } ]
        } );
      ( "partition",
        { Net.Faults.none with
          Net.Faults.f_partitions =
            [ { Net.Faults.pa = 0; pb = 1; p_from = 0.0; p_until = infinity }
            ] } );
    ];
  print_newline ();
  verdict "faulty hops were retried with backoff" !retried;
  verdict "an unreachable target degrades to local execution" !degraded

(* ================================================================== *)
(* F4: heartbeat failure detection, epoch-fenced resurrection, and     *)
(* replicated checkpoint storage — the availability story with the     *)
(* omniscient recovery oracle turned OFF                               *)
(* ================================================================== *)

(* Detection timings for the 120-step grid (3 ms/step): suspicion a few
   heartbeat intervals after true silence, well under a checkpoint
   interval. *)
let f4_detector =
  { Net.Detector.hb_interval_s = 0.0005;
    suspect_timeout_s = 0.002;
    hb_bytes = 8 }

(* Failure classes, all recovered from heartbeat suspicion alone.  Every
   fault is scheduled at 0.15 s — past several checkpoint rounds — so
   detection and resurrection latencies are comparable across classes.
   The crash classes keep a hot spare; the false-suspicion classes
   (stall, isolation) run WITHOUT one, because a falsely-suspected node
   is only convicted unanimously when every observer is busy enough for
   its own clock to cross the silence window. *)
let f4_classes =
  let base = { Net.Faults.none with Net.Faults.f_retransmit_s = 0.0001 } in
  [
    ( "crash",
      { base with
        Net.Faults.f_crashes = [ { Net.Faults.c_node = 1; c_at = 0.15 } ] },
      5,
      true );
    ( "crash+flip",
      { base with
        Net.Faults.f_crashes = [ { Net.Faults.c_node = 1; c_at = 0.15 } ];
        f_store_flip = 0.1 },
      5,
      true );
    ( "stall (false)",
      { base with
        Net.Faults.f_stalls =
          [ { Net.Faults.s_node = 2; s_at = 0.15; s_for = 0.02 } ] },
      4,
      false );
    ( "isolation",
      { base with
        Net.Faults.f_partitions =
          List.map
            (fun peer ->
              { Net.Faults.pa = 1; pb = peer; p_from = 0.15; p_until = 0.4 })
            [ 0; 2; 3 ] },
      4,
      false );
  ]

let f4 () =
  section "F4: failure detection by heartbeat, epoch-fenced \
           resurrection, replicated checkpoints (k=2)";
  let config = grid_config 10 in
  let golden = Mcc.Gridapp.golden_checksums config in
  Printf.printf "  %-14s %-8s %-7s %-12s %-7s %-8s %-10s %s\n" "class"
    "time(s)" "avail" "suspect(F)" "fenced" "repairs" "suspect@(s)"
    "resurrect@(s)";
  let all_ok = ref true
  and false_fenced = ref false
  and detection_first = ref true in
  List.iter
    (fun (name, plan, nodes, spare) ->
      let plan =
        match Net.Faults.validate plan with
        | Ok p -> p
        | Error e -> failwith ("f4: bad plan for " ^ name ^ ": " ^ e)
      in
      let cluster =
        fresh_cluster ~nodes ~faults:plan ~seed:7 ~detector:f4_detector
          ~replication:2 ()
      in
      let d = Mcc.Gridapp.deploy ~spare cluster config in
      let _ = Mcc.Gridapp.run_resilient d in
      let sums = Mcc.Gridapp.checksums d in
      let completed = ref 0 in
      Array.iteri
        (fun r s -> if s = Some golden.(r) then incr completed)
        sums;
      let wrong =
        Array.exists2 (fun g s -> s <> None && s <> Some g) golden sums
      in
      let copies = Array.make config.Mcc.Gridapp.ranks 0 in
      List.iter
        (fun (_, rank, _, status) ->
          match (rank, status) with
          | Some r, Vm.Process.Exited _ when r >= 0 && r < Array.length copies
            ->
            copies.(r) <- copies.(r) + 1
          | _ -> ())
        (Net.Cluster.statuses cluster);
      let single = Array.for_all (fun n -> n <= 1) copies in
      let full = !completed = config.Mcc.Gridapp.ranks in
      all_ok := !all_ok && full && single && not wrong;
      let m = Net.Cluster.metrics cluster in
      let c n = Obs.Metrics.counter_value m n in
      (* first suspicion / first resurrection, absolute simulated time:
         for the crash classes the gap above the 0.15 s fault time is
         the detection latency; the false-suspicion classes convict on
         natural clock skew, which can precede the scheduled fault —
         that is the scenario, and fencing is what keeps it safe *)
      let timeline = Obs.Trace.timeline (Net.Cluster.trace cluster) in
      let first_time pred =
        List.find_map
          (fun (e : Obs.Trace.event) ->
            if pred e.Obs.Trace.kind then Some e.Obs.Trace.time else None)
          timeline
      in
      let t_suspect =
        first_time (function Obs.Trace.Suspect _ -> true | _ -> false)
      in
      let t_resurrect =
        first_time (function Obs.Trace.Resurrect _ -> true | _ -> false)
      in
      (match (t_suspect, t_resurrect) with
      | Some ts, Some tr when tr < ts -> detection_first := false
      | None, Some _ -> detection_first := false
      | _ -> ());
      if c "detector.false_suspicions" > 0 && c "fence.rejections" > 0 then
        false_fenced := true;
      let at = function
        | Some t -> Printf.sprintf "%.4f" t
        | None -> "-"
      in
      Printf.printf "  %-14s %-8.4f %d/%-5d %4d(%d)%5s %-7d %-8d %-10s %s%s\n"
        name (Net.Cluster.now cluster) !completed config.Mcc.Gridapp.ranks
        (c "detector.suspicions")
        (c "detector.false_suspicions")
        "" (c "fence.rejections") (c "storage.repairs") (at t_suspect)
        (at t_resurrect)
        (if full && single && not wrong then "" else "  [FAILED]"))
    f4_classes;
  print_newline ();
  verdict "every class terminates golden with at most one copy per rank"
    !all_ok;
  verdict "every resurrection was preceded by a heartbeat suspicion"
    !detection_first;
  verdict "a false suspicion was raised and the zombie was fenced"
    !false_fenced;
  (* availability under a storage-fault seed sweep: crash + lost / torn /
     flipped replica writes; a run either completes golden or wedges
     with a typed absence — corrupt checkpoint bytes are never served *)
  Printf.printf
    "\n  crash + storage faults (lost 2%%, torn 2%%, flip 5%%), k=2, \
     seed sweep:\n";
  Printf.printf "  %-7s %-8s %-7s %-9s %-9s %-9s %s\n" "seed" "time(s)"
    "avail" "badwrites" "repairs" "corrupt" "outcome";
  let any_storage_fault = ref false
  and any_full = ref false
  and none_wrong = ref true in
  List.iter
    (fun seed ->
      let plan =
        { Net.Faults.none with
          Net.Faults.f_retransmit_s = 0.0001;
          f_crashes = [ { Net.Faults.c_node = 1; c_at = 0.15 } ];
          f_store_lost = 0.02;
          f_store_torn = 0.02;
          f_store_flip = 0.05 }
      in
      let cluster =
        fresh_cluster ~faults:plan ~seed ~detector:f4_detector
          ~replication:2 ()
      in
      let d = Mcc.Gridapp.deploy ~spare:true cluster config in
      let _ = Mcc.Gridapp.run_resilient d in
      let sums = Mcc.Gridapp.checksums d in
      let completed = ref 0 in
      Array.iteri
        (fun r s -> if s = Some golden.(r) then incr completed)
        sums;
      let wrong =
        Array.exists2 (fun g s -> s <> None && s <> Some g) golden sums
      in
      if wrong then none_wrong := false;
      if !completed = config.Mcc.Gridapp.ranks then any_full := true;
      let m = Net.Cluster.metrics cluster in
      let c n = Obs.Metrics.counter_value m n in
      let bad =
        c "faults.store_lost" + c "faults.store_torn" + c "faults.store_flip"
      in
      if bad > 0 then any_storage_fault := true;
      Printf.printf "  %-7d %-8.4f %d/%-5d %-9d %-9d %-9d %s\n" seed
        (Net.Cluster.now cluster) !completed config.Mcc.Gridapp.ranks bad
        (c "storage.repairs")
        (c "storage.corrupt_reads")
        (if wrong then "WRONG DATA"
         else if !completed = config.Mcc.Gridapp.ranks then "golden"
         else "wedged (typed)"))
    [ 3; 7; 11; 20260807 ];
  print_newline ();
  verdict "replica writes were actually damaged by the seeded faults"
    !any_storage_fault;
  verdict "no seed ever produced wrong data (golden or typed wedge only)"
    !none_wrong;
  verdict "at least one seed rode out crash + storage faults to golden"
    !any_full

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
  let fir =
    match Minic.Driver.compile (migrator_source ~variants:2 ~cells:25_600 ())
    with
    | Ok fir -> fir
    | Error e -> failwith (Minic.Driver.error_to_string e)
  in
  let proc = run_to_migration fir in
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
        let _ = Spec.Engine.enter engine ~cont:cont0 in
        mutate_some ();
        let _ = Spec.Engine.rollback engine 1 in
        Spec.Engine.commit engine (Spec.Engine.depth engine);
        now_s () -. t0)
  in
  (* --- migration-based rollback: checkpoint the WHOLE process on entry,
     restore it (verify + recompile) on abort *)
  let arch = proc.Vm.Process.arch in
  let clock = float_of_int arch.Vm.Arch.clock_mhz *. 1e6 in
  let net = Net.Simnet.create () in
  let packed = ref None in
  let ckpt_wall =
    time_op ~iters:20 (fun () ->
        let t0 = now_s () in
        packed := Some (Migrate.Pack.pack_running ~with_binary:false proc);
        now_s () -. t0)
  in
  let bytes =
    match !packed with
    | Some p -> String.length p.Migrate.Pack.p_bytes
    | None -> 0
  in
  let restore_wall =
    time_op ~iters:20 (fun () ->
        let t0 = now_s () in
        (match !packed with
        | Some p -> (
          match Migrate.Pack.unpack ~arch p.Migrate.Pack.p_bytes with
          | Ok _ -> ()
          | Error m -> failwith m)
        | None -> ());
        now_s () -. t0)
  in
  let compile_cycles =
    match !packed with
    | Some p -> (
      match Migrate.Pack.unpack ~arch p.Migrate.Pack.p_bytes with
      | Ok (_, _, _, c) -> c.Migrate.Pack.u_compile_cycles
      | Error m -> failwith m)
    | None -> 0
  in
  let mig_sim =
    (2.0 *. Net.Simnet.transfer_seconds net bytes) (* write + read back *)
    +. (float_of_int compile_cycles /. clock)
  in
  Printf.printf "  COW speculation (enter + 10%% mutate + abort):
";
  Printf.printf "    host wall:        %10.1f us
" (cow_s *. 1e6);
  Printf.printf
    "  migration-based rollback (checkpoint file on entry, restore on abort):
";
  Printf.printf "    image size:       %10d bytes (the WHOLE state)
" bytes;
  Printf.printf "    host wall:        %10.1f us (pack %0.1f + restore %0.1f)
"
    ((ckpt_wall +. restore_wall) *. 1e6)
    (ckpt_wall *. 1e6) (restore_wall *. 1e6);
  Printf.printf "    simulated:        %10.1f ms (2 x transfer + recompile)
"
    (mig_sim *. 1e3);
  print_newline ();
  verdict "COW abort beats checkpoint-file rollback by >= 10x"
    (cow_s *. 10.0 < ckpt_wall +. restore_wall);
  verdict "checkpoint ships unmodified state (image >> modified bytes)"
    (bytes > 10 * (400 / 10 * 16 * 8))

(* ================================================================== *)
(* A2 (ablation): the generational design of the collector (paper       *)
(* Section 4: "a minor collection phase that is fast and eliminates     *)
(* blocks with short live ranges, and a major collection phase that     *)
(* sweeps and compacts the entire heap")                                *)
(* ================================================================== *)

let a2 () =
  section "A2 (ablation): generational vs major-only collection";
  (* an allocation-heavy workload over a FRAGMENTED persistent live set
     (20k small blocks): every major collection must re-mark and re-walk
     all of them, while minors only look at the young garbage *)
  let fir =
    let open Fir in
    let live_blocks = 20_000 and rounds = 150_000 in
    Builder.(
      let fill, _ =
        for_loop ~name:"fill" ~lo:(int 0) ~hi:(int live_blocks)
          ~state_tys:[ Types.Tptr (Types.Tptr Types.Tint) ]
          ~state:[ nil (Types.Tptr (Types.Tptr Types.Tint)) ]
          ~body:(fun i st continue ->
            match st with
            | [ roots ] ->
              array Types.Tint ~size:(int 4) ~init:i (fun blk ->
                  store roots i blk (continue [ roots ]))
            | _ -> assert false)
          ~after:(fun st ->
            match st with
            | [ roots ] -> callf "churn" [ int 0; int 0; roots ]
            | _ -> assert false)
      in
      let churn =
        func "churn"
          [ "i", Types.Tint; "acc", Types.Tint;
            "roots", Types.Tptr (Types.Tptr Types.Tint) ]
          (fun args ->
            match args with
            | [ i; acc; roots ] ->
              lt i (int rounds) (fun more ->
                  if_ more
                    (tuple [ Types.Tint, i; Types.Tint, acc ] (fun junk ->
                         proj Types.Tint junk 0 (fun x ->
                             add acc x (fun acc' ->
                                 rem acc' (int 1000000) (fun acc'' ->
                                     add i (int 1) (fun i' ->
                                         callf "churn" [ i'; acc''; roots ]))))))
                    (exit_ acc))
            | _ -> assert false)
      in
      let main =
        func "main" [] (fun _ ->
            array (Types.Tptr Types.Tint) ~size:(int live_blocks)
              ~init:(nil (Types.Tptr Types.Tint)) (fun roots ->
                callf "fill" [ int 0; roots ]))
      in
      prog [ fill; churn; main ])
  in
  let measure ~generational =
    let proc = Vm.Process.create fir in
    Heap.set_minor_enabled proc.Vm.Process.heap generational;
    let t0 = now_s () in
    (match Vm.Interp.run proc with
    | Vm.Process.Exited _ -> ()
    | _ -> failwith "a2 workload failed");
    let dt = now_s () -. t0 in
    let st = Heap.stats proc.Vm.Process.heap in
    dt, st.Heap.minor_collections, st.Heap.major_collections
  in
  let gen_s, gen_minor, gen_major = measure ~generational:true in
  let maj_s, _, maj_major = measure ~generational:false in
  Printf.printf "  generational: %7.3f s wall  (%d minor + %d major collections)
"
    gen_s gen_minor gen_major;
  Printf.printf "  major-only:   %7.3f s wall  (%d major collections)
"
    maj_s maj_major;
  print_newline ();
  verdict "generational collection is faster on short-lived garbage"
    (gen_s < maj_s);
  verdict "minor collections avoid re-scanning the old generation"
    (gen_major < maj_major)

(* ================================================================== *)
(* M1: mailbox enqueue scaling (regression guard for the two-list      *)
(* FIFO — the old [queue @ [msg]] representation made an N-message     *)
(* burst cost O(N^2))                                                  *)
(* ================================================================== *)

let m1 () =
  section "M1: mailbox enqueue scaling (two-list FIFO)";
  let mk_msg i =
    { Net.Mpi.msg_src_rank = 0; msg_src_pid = 1; msg_tag = 0;
      msg_payload = [| Value.Vint i |]; msg_deliver_at = 0.0;
      msg_spec = None; msg_src_epoch = 0 }
  in
  let burst n =
    (* median over trials: per-burst wall time, drained at the end so
       the FIFO's lazy reversal is paid inside the measurement too *)
    time_op ~iters:9 (fun () ->
        let mb = Net.Mpi.create_mailbox () in
        let t0 = now_s () in
        for i = 0 to n - 1 do
          Net.Mpi.enqueue mb (mk_msg i)
        done;
        for _ = 1 to n do
          match Net.Mpi.try_recv mb ~now:0.0 ~src_rank:0 ~tag:0 with
          | Net.Mpi.Received _ -> ()
          | Net.Mpi.Roll | Net.Mpi.None_yet ->
            failwith "m1: FIFO lost a message"
        done;
        now_s () -. t0)
  in
  (* interleaved 5-enqueue / 3-drain bursts: the front list is
     non-empty every time the back list flips, which is the pattern the
     pre-fix [normalize] handled by appending the reversed back list
     onto the NON-EMPTY front — O(N^2) across a long run of bursts *)
  let interleaved n =
    time_op ~iters:9 (fun () ->
        let mb = Net.Mpi.create_mailbox () in
        let t0 = now_s () in
        let sent = ref 0 and got = ref 0 in
        let recv_one () =
          match Net.Mpi.try_recv mb ~now:0.0 ~src_rank:0 ~tag:0 with
          | Net.Mpi.Received _ -> incr got
          | Net.Mpi.Roll | Net.Mpi.None_yet ->
            failwith "m1: FIFO lost a message"
        in
        while !sent < n do
          for _ = 1 to 5 do
            Net.Mpi.enqueue mb (mk_msg !sent);
            incr sent
          done;
          for _ = 1 to 3 do recv_one () done
        done;
        while !got < n do recv_one () done;
        now_s () -. t0)
  in
  Printf.printf "  %-12s %-10s %-12s %s\n" "pattern" "messages" "total(us)"
    "ns/message";
  let per_msg pattern f n =
    let t = f n in
    let ns = t /. float_of_int n *. 1e9 in
    Printf.printf "  %-12s %-10d %-12.1f %.1f\n" pattern n (t *. 1e6) ns;
    ns
  in
  let ns_1k = per_msg "burst" burst 1_000 in
  let ns_10k = per_msg "burst" burst 10_000 in
  let ns_i1k = per_msg "interleaved" interleaved 1_000 in
  let ns_i10k = per_msg "interleaved" interleaved 10_000 in
  print_newline ();
  (* a quadratic queue would make the per-message cost ~10x worse at
     10k; linear keeps it flat (generous 4x + noise-floor allowance) *)
  verdict "enqueue+drain cost per message flat at 10k (linear, not O(N^2))"
    (ns_10k < 4.0 *. ns_1k +. 50.0);
  verdict
    "interleaved bursts stay flat too (normalize never merges a \
     non-empty front)"
    (ns_i10k < 4.0 *. ns_i1k +. 50.0)

(* ================================================================== *)
(* S1 / V1: the simulation-core and VM meters                         *)
(*                                                                     *)
(* S1 drives a many-process ping-pong through Simnet/Cluster and       *)
(* reports scheduler events (quanta) per wall-clock second, once with  *)
(* the legacy O(nodes x entries) scan scheduler                        *)
(* ([legacy_scan_sched = true]) and once with the indexed per-node     *)
(* resident lists — both from this build, so the before/after rows in  *)
(* BENCH_s1.json come from one commit.  V1 runs compute/branch/memory  *)
(* kernels to completion on the MASM emulator in [Baseline] and        *)
(* [Compiled] modes (plus the FIR interpreter for scale) and reports   *)
(* MIPS into BENCH_v1.json.  Both files are one JSON object per line.  *)
(*                                                                     *)
(* [perfcheck] re-runs both meters and compares the SPEEDUP RATIOS     *)
(* (indexed/scan, compiled/baseline) against bench/baselines/*.json:   *)
(* the ratio is what the optimization owns, and unlike absolute        *)
(* throughput it transfers across machines.  A ratio below 70 % of the *)
(* committed one fails the check (exit 1).                             *)
(* ================================================================== *)

(* minimal reader for our own one-object-per-line JSON output *)
let json_field line name =
  let pat = Printf.sprintf "\"%s\":" name in
  let plen = String.length pat and len = String.length line in
  let rec find i =
    if i + plen > len then None
    else if String.equal (String.sub line i plen) pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while !stop < len && line.[!stop] <> ',' && line.[!stop] <> '}' do
      incr stop
    done;
    let raw = String.trim (String.sub line start (!stop - start)) in
    if String.length raw >= 2 && raw.[0] = '"' then
      Some (String.sub raw 1 (String.length raw - 2))
    else Some raw

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let read_lines path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        Some (List.rev acc)
    in
    go []
  end

(* --- S1 ----------------------------------------------------------- *)

(* One side of a ping-pong pair: [starts = 1] sends first.  The poll
   loop is the cluster's park/wake path — the receiver parks on
   (peer, k) and the scheduler wakes it from the mailbox index. *)
let pingpong_source ~rounds ~peer ~starts =
  Printf.sprintf
    {|
int main() {
  float *b = alloc_float(4);
  int k; int got;
  for (k = 0; k < %d; k = k + 1) {
    if (%d == 1) {
      msg_send(%d, k, b, 4);
      got = msg_try_recv(%d, k, b, 4);
      while (got == 0 - 1) { got = msg_try_recv(%d, k, b, 4); }
      if (got < 0) { return 1; }
    } else {
      got = msg_try_recv(%d, k, b, 4);
      while (got == 0 - 1) { got = msg_try_recv(%d, k, b, 4); }
      if (got < 0) { return 1; }
      msg_send(%d, k, b, 4);
    }
  }
  return 0;
}
|}
    rounds starts peer peer peer peer peer peer

(* An S1 case: [pairs] ping-pong pairs over [nodes] nodes, pair [p]
   playing [rounds_of_pair p] rounds.  Two regimes:

   - "pingpong": staggered completions (pair p plays 20+p rounds) — a
     mixed population where the legacy scan pays O(nodes x entries) per
     round while the work shrinks;
   - "longtail": a few hundred short-lived pairs plus ONE long-running
     pair (a service process outliving a burst of batch jobs).  After
     the burst drains, the legacy scheduler still scans every dead
     entry from every node on every round of the survivor's life —
     the indexed scheduler has purged them. *)
type s1_case = {
  s1_name : string;
  s1_pairs : int;
  s1_nodes : int;
  s1_rounds_of_pair : int -> int;
}

let s1_cases =
  [
    { s1_name = "pingpong"; s1_pairs = 96; s1_nodes = 12;
      s1_rounds_of_pair = (fun p -> 20 + p) };
    { s1_name = "longtail"; s1_pairs = 384; s1_nodes = 16;
      s1_rounds_of_pair = (fun p -> if p = 0 then 1500 else 8) };
  ]

(* the compiled FIR depends only on (rounds, peer, starts); cache across
   cases, the warm-up and the timed repetitions *)
let s1_fir_cache : (int * int * int, Fir.Ast.program) Hashtbl.t =
  Hashtbl.create 64

let s1_fir ~rounds ~peer ~starts =
  match Hashtbl.find_opt s1_fir_cache (rounds, peer, starts) with
  | Some fir -> fir
  | None ->
    let fir =
      match Minic.Driver.compile (pingpong_source ~rounds ~peer ~starts) with
      | Ok fir -> fir
      | Error e -> failwith (Minic.Driver.error_to_string e)
    in
    Hashtbl.add s1_fir_cache (rounds, peer, starts) fir;
    fir

let s1_run case ~legacy =
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        node_count = case.s1_nodes;
        seed = 7;
        legacy_scan_sched = legacy;
        net = Some (Net.Simnet.create ~latency_us:5.0 ()) }
  in
  for p = 0 to case.s1_pairs - 1 do
    let rounds = case.s1_rounds_of_pair p in
    let spawn_side ~rank ~peer ~starts =
      let fir = s1_fir ~rounds ~peer ~starts in
      ignore
        (Net.Cluster.spawn cluster ~engine:`Masm ~rank
           ~node_id:(rank mod case.s1_nodes) fir)
    in
    spawn_side ~rank:(2 * p) ~peer:((2 * p) + 1) ~starts:1;
    spawn_side ~rank:((2 * p) + 1) ~peer:(2 * p) ~starts:0
  done;
  let _, wall_s = wall (fun () -> ignore (Net.Cluster.run cluster)) in
  List.iter
    (fun (pid, _, _, status) ->
      match status with
      | Vm.Process.Exited 0 -> ()
      | s ->
        failwith
          (Printf.sprintf "s1: pid %d finished %s" pid
             (match s with
             | Vm.Process.Exited n -> Printf.sprintf "Exited %d" n
             | Vm.Process.Trapped m -> "Trapped " ^ m
             | Vm.Process.Running -> "Running"
             | Vm.Process.Migrating _ -> "Migrating")))
    (Net.Cluster.statuses cluster);
  let quanta =
    Obs.Metrics.counter_value (Net.Cluster.metrics cluster) "sched.quanta"
  in
  let rounds =
    Obs.Metrics.counter_value (Net.Cluster.metrics cluster) "sched.rounds"
  in
  quanta, rounds, wall_s, Net.Cluster.now cluster

(* one warm-up + [iters] timed runs per mode; the simulation is
   deterministic, so quanta/rounds/sim must agree across repetitions —
   report the median wall time *)
let s1_measure ?(iters = 3) case ~legacy =
  ignore (s1_run case ~legacy);
  let samples = Array.init iters (fun _ -> s1_run case ~legacy) in
  let q0, r0, _, sim0 = samples.(0) in
  Array.iter
    (fun (q, r, _, sim) ->
      if q <> q0 || r <> r0 || sim <> sim0 then
        failwith "s1: repetitions diverged (non-deterministic run)")
    samples;
  let walls = Array.map (fun (_, _, w, _) -> w) samples in
  Array.sort compare walls;
  q0, r0, walls.(iters / 2), sim0

let s1_row case ~mode ~quanta ~rounds ~wall_s ~sim_s =
  Printf.sprintf
    "{\"bench\":\"s1\",\"case\":\"%s\",\"mode\":\"%s\",\
     \"quanta\":%d,\"rounds\":%d,\"wall_s\":%.6f,\"sim_s\":%.6f,\
     \"events_per_sec\":%.1f}"
    case.s1_name mode quanta rounds wall_s sim_s
    (float_of_int quanta /. wall_s)

(* rows + per-case (name, scan events/sec, indexed events/sec) *)
let s1_results () =
  List.fold_left
    (fun (rows, speeds) case ->
      let q_scan, r_scan, w_scan, sim_scan = s1_measure case ~legacy:true in
      let q_idx, r_idx, w_idx, sim_idx = s1_measure case ~legacy:false in
      if q_scan <> q_idx || r_scan <> r_idx || sim_scan <> sim_idx then
        failwith "s1: scan and indexed schedulers diverged";
      let rows =
        rows
        @ [ s1_row case ~mode:"scan" ~quanta:q_scan ~rounds:r_scan
              ~wall_s:w_scan ~sim_s:sim_scan;
            s1_row case ~mode:"indexed" ~quanta:q_idx ~rounds:r_idx
              ~wall_s:w_idx ~sim_s:sim_idx ]
      in
      let eps w = float_of_int q_scan /. w in
      rows, speeds @ [ case, eps w_scan, eps w_idx, w_scan, w_idx ])
    ([], []) s1_cases

let s1 () =
  section "S1: scheduler events/sec (indexed vs legacy scan)";
  Printf.printf
    "Each case runs the identical simulation both ways (same quanta, \
     rounds\nand simulated seconds) — only the host wall-clock \
     differs.\n\n";
  let rows, speeds = s1_results () in
  Printf.printf "  %-10s %-9s %-9s %-9s %-11s %-12s %s\n" "case" "mode"
    "procs" "quanta" "wall(s)" "events/sec" "speedup";
  List.iter
    (fun (case, eps_scan, eps_idx, w_scan, w_idx) ->
      let quanta = int_of_float (eps_scan *. w_scan +. 0.5) in
      Printf.printf "  %-10s %-9s %-9d %-9d %-11.4f %-12.0f\n"
        case.s1_name "scan" (2 * case.s1_pairs) quanta w_scan eps_scan;
      Printf.printf "  %-10s %-9s %-9d %-9d %-11.4f %-12.0f %.2fx\n"
        case.s1_name "indexed" (2 * case.s1_pairs) quanta w_idx eps_idx
        (eps_idx /. eps_scan))
    speeds;
  write_lines "BENCH_s1.json" rows;
  Printf.printf "\n  wrote BENCH_s1.json\n";
  print_newline ();
  verdict "identical simulation, faster wall clock (no regression)"
    (List.for_all
       (fun (_, eps_scan, eps_idx, _, _) -> eps_idx >= 0.9 *. eps_scan)
       speeds)

(* --- V1 ----------------------------------------------------------- *)

let v1_kernels =
  [
    ( "compute",
      {|
int main() {
  float s = 0.0; int i;
  for (i = 0; i < 300000; i = i + 1) {
    s = s + (float)(i % 7) * 0.5 - (float)(i % 3) * 0.25;
    s = s * 0.999 + 1.0;
  }
  return (int)s % 101;
}
|} );
    ( "branch",
      {|
int main() {
  int acc = 0; int i;
  for (i = 0; i < 300000; i = i + 1) {
    if (i % 2 == 0) { acc = acc + 1; }
    else { if (i % 3 == 0) { acc = acc + 2; } else { acc = acc - 1; } }
    if (acc > 1000) { acc = acc - 1000; }
  }
  return acc % 101;
}
|} );
    ( "memory",
      {|
int main() {
  int n = 4096;
  float *a = alloc_float(n);
  int i; int k;
  for (i = 0; i < n; i = i + 1) { a[i] = (float)(i % 17); }
  for (k = 0; k < 60; k = k + 1) {
    for (i = 0; i < n - 1; i = i + 1) {
      a[i] = a[i + 1] * 0.5 + a[i] * 0.5;
    }
  }
  return (int)a[7] % 101;
}
|} );
  ]

let v1_compile src =
  match Minic.Driver.compile src with
  | Ok fir -> fir
  | Error e -> failwith (Minic.Driver.error_to_string e)

let v1_exit = function
  | Vm.Process.Exited n -> n
  | _ -> failwith "v1: kernel did not run to completion"

(* one-time translation per kernel, timed once so the translate row can
   report it: codegen -> link -> closure-compile.  Link and compile are
   deliberately OUTSIDE the timed emulation loop below — they are paid
   once per image (and cached in Migrate.Codecache on the migration
   path), so folding them into per-run wall time would misattribute a
   setup cost to steady-state MIPS. *)
let v1_translate fir =
  let arch = Vm.Arch.cisc32 in
  let masm = Vm.Codegen.compile ~arch fir in
  let linked, link_s = wall (fun () -> Vm.Link.link masm) in
  let compiled, compile_s = wall (fun () -> Vm.Compile.compile linked) in
  masm, compiled, link_s *. 1000., compile_s *. 1000.

(* median-of-[iters] wall time for one emulator mode; returns
   (instrs, wall_s, exit, cycles) *)
let v1_emulate ?(iters = 3) ~masm ~compiled fir mode =
  let arch = Vm.Arch.cisc32 in
  let sample () =
    let proc = Vm.Process.create ~arch ~seed:11 fir in
    let emu = Vm.Emulator.create ~mode ~compiled masm proc in
    let status, w = wall (fun () -> Vm.Emulator.run emu) in
    Vm.Emulator.instructions emu, w, v1_exit status, proc.Vm.Process.cycles
  in
  ignore (sample ());
  let samples = Array.init iters (fun _ -> sample ()) in
  Array.sort (fun (_, a, _, _) (_, b, _, _) -> compare a b) samples;
  samples.(iters / 2)

let v1_interp ?(iters = 3) fir =
  let sample () =
    let proc = Vm.Process.create ~arch:Vm.Arch.cisc32 ~seed:11 fir in
    let status, w = wall (fun () -> Vm.Interp.run proc) in
    w, v1_exit status
  in
  ignore (sample ());
  let samples = Array.init iters (fun _ -> sample ()) in
  Array.sort compare samples;
  samples.(iters / 2)

let v1_row ~case ~mode ~instrs ~wall_s =
  Printf.sprintf
    "{\"bench\":\"v1\",\"case\":\"%s\",\"mode\":\"%s\",\"instrs\":%d,\
     \"wall_s\":%.6f,\"mips\":%.3f}"
    case mode instrs wall_s
    (float_of_int instrs /. wall_s /. 1e6)

(* one-time translation cost row.  wall_s is the combined link+compile
   time (perfcheck's row parser requires the field on every row; the
   translate mode never participates in a ratio pair). *)
let v1_translate_row ~case ~link_ms ~compile_ms =
  Printf.sprintf
    "{\"bench\":\"v1\",\"case\":\"%s\",\"mode\":\"translate\",\"instrs\":0,\
     \"wall_s\":%.6f,\"mips\":0.000,\"link_ms\":%.3f,\"compile_ms\":%.3f}"
    case ((link_ms +. compile_ms) /. 1000.) link_ms compile_ms

let v1_results () =
  List.map
    (fun (case, src) ->
      let fir = v1_compile src in
      let masm, compiled, link_ms, compile_ms = v1_translate fir in
      let run = v1_emulate ~masm ~compiled fir in
      let i_base, w_base, x_base, c_base = run Vm.Emulator.Baseline in
      let i_comp, w_comp, x_comp, c_comp = run Vm.Emulator.Compiled in
      if i_comp <> i_base || x_comp <> x_base || c_comp <> c_base then
        failwith ("v1: Compiled and Baseline diverged on " ^ case);
      let w_interp, x_interp = v1_interp fir in
      if x_interp <> x_base then
        failwith ("v1: interpreter diverged on " ^ case);
      let rows =
        [ v1_row ~case ~mode:"interp" ~instrs:i_base ~wall_s:w_interp;
          v1_row ~case ~mode:"baseline" ~instrs:i_base ~wall_s:w_base;
          v1_row ~case ~mode:"compiled" ~instrs:i_comp ~wall_s:w_comp;
          v1_translate_row ~case ~link_ms ~compile_ms ]
      in
      case, rows, i_base, w_interp, w_base, w_comp)
    v1_kernels

let v1 () =
  section "V1: emulator MIPS (baseline vs closure-compiled)";
  Printf.printf
    "compute/branch/memory kernels run to completion; instrs is the \
     retired\nMASM instruction count (the interpreter row reuses it for \
     scale).\nBaseline and Compiled are checked to produce \
     identical exits,\ninstruction counts and cycle counts.  Link and \
     closure-compile run once,\noutside the timed loop; the translate \
     row records that one-time cost.\n\n";
  let results = v1_results () in
  Printf.printf "  %-10s %-10s %-11s %-10s %s\n" "kernel" "mode"
    "instrs" "wall(s)" "MIPS";
  let all_rows =
    List.concat_map
      (fun (case, rows, instrs, w_i, w_b, w_c) ->
        let mips w = float_of_int instrs /. w /. 1e6 in
        let line mode w =
          Printf.printf "  %-10s %-10s %-11d %-10.4f %.2f\n" case mode
            instrs w (mips w)
        in
        line "interp" w_i;
        line "baseline" w_b;
        line "compiled" w_c;
        Printf.printf "    speedup compiled/baseline %.2fx\n" (w_b /. w_c);
        rows)
      results
  in
  write_lines "BENCH_v1.json" all_rows;
  Printf.printf "\n  wrote BENCH_v1.json\n";
  print_newline ();
  verdict "compiled >= 1.5x baseline on every kernel"
    (List.for_all (fun (_, _, _, _, w_b, w_c) -> w_b /. w_c >= 1.5) results)

(* --- T1 ----------------------------------------------------------- *)

(* Request serving under live-traffic migration: N closed-loop clients
   fire >= 10^5 requests at K registered services addressed by logical
   address, under message loss + duplication, while the services are
   re-homed mid-traffic ("migrate" mode) or left in place ("static"
   mode).  Every run must be exactly-once — zero loss, zero duplicate
   service work, zero reply reordering — and in migrate mode the
   senders must demonstrably rebind (Recipient_moved notices consumed,
   forwarder relays observed and then quiescing). *)

let t1_cfg =
  { Mcc.Gridapp.Serve.clients = 8; services = 4;
    requests_per_client = 12_500; work_us = 5; skew = false;
    speculative = false }

let t1_seeds = [ 11; 23 ]

let t1_plan seed =
  { Net.Faults.none with
    Net.Faults.f_seed = seed;
    f_loss = 0.05;
    f_dup = 0.02;
    f_jitter_s = 0.000005;
    f_retransmit_s = 0.00005 }

type t1_sample = {
  t1_case : string;
  t1_mode : string;
  t1_wall : float;
  t1_sim : float;
  t1_report : Mcc.Gridapp.Serve.report;
  t1_exact : bool;
}

let t1_run ~seed ~migrate =
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        node_count = 6;
        seed;
        net = Some (Net.Simnet.create ~latency_us:5.0 ());
        faults = t1_plan seed }
  in
  let d = Mcc.Gridapp.Serve.deploy ~engine:`Masm cluster t1_cfg in
  let r, wall_s =
    wall (fun () ->
        if migrate then
          Mcc.Gridapp.Serve.run ~migrate_every_s:0.004 ~migrations:10 d
        else Mcc.Gridapp.Serve.run d)
  in
  { t1_case = Printf.sprintf "serve-s%d" seed;
    t1_mode = (if migrate then "migrate" else "static");
    t1_wall = wall_s;
    t1_sim = Net.Cluster.now cluster;
    t1_report = r;
    t1_exact = Mcc.Gridapp.Serve.exactly_once d r }

let t1_row s =
  let r = s.t1_report in
  Printf.sprintf
    "{\"bench\":\"t1\",\"case\":\"%s\",\"mode\":\"%s\",\
     \"requests\":%d,\"migrations\":%d,\"forwarded\":%d,\
     \"rebinds\":%d,\"p50_ms\":%.4f,\"p90_ms\":%.4f,\"p99_ms\":%.4f,\
     \"mean_ms\":%.4f,\"wall_s\":%.6f,\"sim_s\":%.6f,\
     \"req_per_sec\":%.1f}"
    s.t1_case s.t1_mode r.Mcc.Gridapp.Serve.rp_requests r.rp_migrations
    r.rp_forwarded r.rp_rebinds r.rp_p50_ms r.rp_p90_ms r.rp_p99_ms
    r.rp_mean_ms s.t1_wall s.t1_sim
    (float_of_int r.rp_requests /. s.t1_wall)

let t1_results () =
  List.concat_map
    (fun seed ->
      [ t1_run ~seed ~migrate:false; t1_run ~seed ~migrate:true ])
    t1_seeds

(* correctness gates: every run exactly-once; every migrate run landed
   its moves, relayed through forwarders and rebound its senders (a
   run whose moves stopped landing would degenerate to the static row
   and still pass the ratio gate) *)
let t1_gate samples =
  let migrates =
    List.filter (fun s -> String.equal s.t1_mode "migrate") samples
  in
  let exact_ok = List.for_all (fun s -> s.t1_exact) samples in
  let moves_ok =
    List.for_all
      (fun s -> s.t1_report.Mcc.Gridapp.Serve.rp_migrations > 0)
      migrates
  in
  let rebind_ok =
    List.for_all
      (fun s ->
        s.t1_report.Mcc.Gridapp.Serve.rp_forwarded > 0
        && s.t1_report.Mcc.Gridapp.Serve.rp_rebinds > 0)
      migrates
  in
  (exact_ok, moves_ok, rebind_ok)

let t1 () =
  section "T1: request serving under live-traffic migration (registry)";
  Printf.printf
    "%d closed-loop clients x %d requests (= %d total) at %d services\n\
     addressed by logical address, with 5%% loss + 2%% duplication; the\n\
     migrate rows re-home a service round-robin every 4 simulated ms\n\
     while requests are in flight.  Latency quantiles come from the\n\
     cluster's app.latency_seconds histogram.\n\n"
    t1_cfg.Mcc.Gridapp.Serve.clients
    t1_cfg.Mcc.Gridapp.Serve.requests_per_client
    (t1_cfg.Mcc.Gridapp.Serve.clients
    * t1_cfg.Mcc.Gridapp.Serve.requests_per_client)
    t1_cfg.Mcc.Gridapp.Serve.services;
  let samples = t1_results () in
  Printf.printf "  %-11s %-8s %-8s %-6s %-6s %-8s %-8s %-8s %-8s %-9s %s\n"
    "case" "mode" "requests" "moves" "fwd" "rebinds" "p50(ms)" "p90(ms)"
    "p99(ms)" "mean(ms)" "wall(s)";
  List.iter
    (fun s ->
      let r = s.t1_report in
      Printf.printf
        "  %-11s %-8s %-8d %-6d %-6d %-8d %-8.3f %-8.3f %-8.3f %-9.3f \
         %.3f\n"
        s.t1_case s.t1_mode r.Mcc.Gridapp.Serve.rp_requests r.rp_migrations
        r.rp_forwarded r.rp_rebinds r.rp_p50_ms r.rp_p90_ms r.rp_p99_ms
        r.rp_mean_ms s.t1_wall)
    samples;
  let rows = List.map t1_row samples in
  write_lines "BENCH_t1.json" rows;
  Printf.printf "\n  wrote BENCH_t1.json\n";
  print_newline ();
  let exact_ok, moves_ok, rebind_ok = t1_gate samples in
  verdict
    (Printf.sprintf "every request served exactly once (%d runs, 2 seeds)"
       (List.length samples))
    exact_ok;
  verdict "migrations landed mid-traffic on every migrate run" moves_ok;
  verdict "senders rebound after each move (forwarders relayed, then \
           notices consumed)"
    rebind_ok;
  (* unlike the perf meters these are correctness gates: losing,
     duplicating or reordering a request must fail the run *)
  if not (exact_ok && moves_ok && rebind_ok) then exit 1;
  samples

let t1_cmd () = ignore (t1 ())

(* ================================================================== *)
(* T2: load-aware rebalancing of a skewed serving workload             *)
(* ================================================================== *)

(* The placement-policy meter.  The T1 serving workload again, but the
   request stream is SKEWED — 4 of every 5 requests chase a hot service
   whose identity shifts every phase — and the services start from the
   deliberately bad placement (`Pack 1`: all K crammed onto node 0 of a
   64-node cluster).  The "off" rows leave them there; the "on" rows
   let the balance engine discover the pile-up from its gauges and
   spread it via Cluster.Move (reason Policy).  The policy must (a)
   converge — a bounded burst of moves early, then silence, no
   ping-pong as the hot service shifts — and (b) beat the packed
   placement on simulated completion time, paying back the cold
   compile each first visit to a node costs.  Exactly-once still holds
   under loss + duplication: policy moves ride the same forwarder /
   rebind protocol as explicit ones. *)

let t2_cfg =
  { Mcc.Gridapp.Serve.clients = 16; services = 6;
    requests_per_client = 600; work_us = 400; skew = true;
    speculative = false }

let t2_nodes = 64
let t2_seeds = [ 11; 23 ]

let t2_plan seed =
  { Net.Faults.none with
    Net.Faults.f_seed = seed;
    f_loss = 0.02;
    f_dup = 0.01;
    f_jitter_s = 0.000002;
    f_retransmit_s = 0.00005 }

type t2_sample = {
  t2_case : string;
  t2_mode : string;
  t2_wall : float;
  t2_sim : float;
  t2_report : Mcc.Gridapp.Serve.report;
  t2_exact : bool;
  t2_ticks : int;
  t2_proposals : int;
  t2_moves : int;
  t2_spread : float;
  t2_last_move : float;
}

let t2_run ~seed ~policy =
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        node_count = t2_nodes;
        seed;
        net = Some (Net.Simnet.create ~latency_us:5.0 ());
        faults = t2_plan seed;
        balance = { Net.Balance.Config.default with enabled = policy } }
  in
  let d = Mcc.Gridapp.Serve.deploy ~placement:(`Pack 1) cluster t2_cfg in
  let r, wall_s = wall (fun () -> Mcc.Gridapp.Serve.run d) in
  let m = Net.Cluster.metrics cluster in
  { t2_case = Printf.sprintf "skew-s%d" seed;
    t2_mode = (if policy then "on" else "off");
    t2_wall = wall_s;
    t2_sim = Net.Cluster.now cluster;
    t2_report = r;
    t2_exact = Mcc.Gridapp.Serve.exactly_once d r;
    t2_ticks = Obs.Metrics.counter_value m "balance.ticks";
    t2_proposals = Obs.Metrics.counter_value m "balance.proposals";
    t2_moves = Obs.Metrics.counter_value m "balance.moves";
    t2_spread = Obs.Metrics.gauge_read m "balance.spread";
    t2_last_move = Obs.Metrics.gauge_read m "balance.last_move_s" }

let t2_row s =
  let r = s.t2_report in
  Printf.sprintf
    "{\"bench\":\"t2\",\"case\":\"%s\",\"mode\":\"%s\",\
     \"requests\":%d,\"ticks\":%d,\"proposals\":%d,\"moves\":%d,\
     \"spread\":%.6f,\"last_move_s\":%.6f,\"p50_ms\":%.4f,\
     \"p99_ms\":%.4f,\"wall_s\":%.6f,\"sim_s\":%.6f,\
     \"req_per_sim_sec\":%.1f}"
    s.t2_case s.t2_mode r.Mcc.Gridapp.Serve.rp_requests s.t2_ticks
    s.t2_proposals s.t2_moves s.t2_spread s.t2_last_move r.rp_p50_ms
    r.rp_p99_ms s.t2_wall s.t2_sim
    (float_of_int r.Mcc.Gridapp.Serve.rp_requests /. s.t2_sim)

let t2_results () =
  List.concat_map
    (fun seed -> [ t2_run ~seed ~policy:false; t2_run ~seed ~policy:true ])
    t2_seeds

let t2_gate samples =
  (* correctness gates: exactly-once in both modes, the policy actually
     moved something, the off rows never did *)
  let exact_ok = List.for_all (fun s -> s.t2_exact) samples in
  let on_rows = List.filter (fun s -> String.equal s.t2_mode "on") samples in
  let off_rows =
    List.filter (fun s -> String.equal s.t2_mode "off") samples
  in
  let moved_ok = List.for_all (fun s -> s.t2_moves > 0) on_rows in
  let off_ok = List.for_all (fun s -> s.t2_moves = 0) off_rows in
  (* convergence: moves quiesce in the first half of the run and stay
     well below the tick count (a ping-ponging policy moves every
     period) *)
  let converged_ok =
    List.for_all
      (fun s ->
        s.t2_last_move <= 0.5 *. s.t2_sim && s.t2_moves < s.t2_ticks)
      on_rows
  in
  (exact_ok, moved_ok, off_ok, converged_ok)

let t2 () =
  section "T2: load-aware rebalancing of a skewed serving workload";
  Printf.printf
    "%d closed-loop clients x %d requests at %d services on %d nodes,\n\
     ALL services packed onto node 0, with a phase-shifting hot service\n\
     taking 4/5 of the stream, under 2%% loss + 1%% duplication.  The\n\
     \"on\" rows enable the balance engine (period %gs, tolerance %g,\n\
     budget %d/node); every policy move goes through Cluster.Move and\n\
     must preserve exactly-once.\n\n"
    t2_cfg.Mcc.Gridapp.Serve.clients
    t2_cfg.Mcc.Gridapp.Serve.requests_per_client
    t2_cfg.Mcc.Gridapp.Serve.services t2_nodes
    Net.Balance.Config.default.Net.Balance.Config.period_s
    Net.Balance.Config.default.Net.Balance.Config.tolerance
    Net.Balance.Config.default.Net.Balance.Config.move_budget;
  let samples = t2_results () in
  Printf.printf "  %-9s %-5s %-8s %-6s %-6s %-9s %-10s %-8s %-8s %s\n"
    "case" "mode" "requests" "ticks" "moves" "last_move" "spread" "p99(ms)"
    "sim(s)" "wall(s)";
  List.iter
    (fun s ->
      Printf.printf
        "  %-9s %-5s %-8d %-6d %-6d %-9.3f %-10.4f %-8.3f %-8.3f %.3f\n"
        s.t2_case s.t2_mode s.t2_report.Mcc.Gridapp.Serve.rp_requests
        s.t2_ticks s.t2_moves s.t2_last_move s.t2_spread
        s.t2_report.Mcc.Gridapp.Serve.rp_p99_ms s.t2_sim s.t2_wall)
    samples;
  let rows = List.map t2_row samples in
  write_lines "BENCH_t2.json" rows;
  Printf.printf "\n  wrote BENCH_t2.json\n";
  print_newline ();
  let exact_ok, moved_ok, off_ok, converged_ok = t2_gate samples in
  (* perf verdict: policy-on must finish the same request load in less
     simulated time than the packed placement, per seed *)
  let faster_ok =
    List.for_all
      (fun seed ->
        let sim mode =
          List.find
            (fun s ->
              String.equal s.t2_case (Printf.sprintf "skew-s%d" seed)
              && String.equal s.t2_mode mode)
            samples
          |> fun s -> s.t2_sim
        in
        sim "on" < sim "off")
      t2_seeds
  in
  verdict
    (Printf.sprintf "every request served exactly once (%d runs, 2 seeds)"
       (List.length samples))
    exact_ok;
  verdict "policy moved services off the packed node; static rows never \
           moved"
    (moved_ok && off_ok);
  verdict "policy converged: moves quiesced in the first half, no \
           per-period ping-pong"
    converged_ok;
  verdict "policy-on beat the packed placement on simulated time (both \
           seeds)"
    faster_ok;
  if not (exact_ok && moved_ok && off_ok && converged_ok) then exit 1;
  samples

let t2_cmd () = ignore (t2 ())

(* ================================================================== *)
(* F5: speculative exactly-once serving under fault plans              *)
(* ================================================================== *)

(* The distributed-speculation meter.  The T1 serving workload, but the
   "on" rows run the handlers SPECULATIVELY: the service replies before
   its dedup state is durable and commits through the epoch-fenced 2PC
   (dspec_open / dspec_commit), with services re-homed mid-region, under
   loss + duplication + crash_in_commit (a participant crashing between
   its prepare-ack and the commit receipt, voiding the ack by epoch
   bump).  Every crashed round must abort, roll every participant back,
   compensate the mailboxes, replay, and still serve each request
   exactly once.  The "off" rows run the same plan non-speculatively
   (crash_in_commit never draws without commit rounds), so the sim-time
   ratio isolates what the protocol costs — and the gate pins the
   protocol's correctness counters. *)

let f5_cfg =
  { Mcc.Gridapp.Serve.clients = 8; services = 4;
    requests_per_client = 1_500; work_us = 5; skew = false;
    speculative = true }

let f5_nodes = 6
let f5_seeds = [ 11; 23 ]

let f5_plan seed =
  { Net.Faults.none with
    Net.Faults.f_seed = seed;
    f_loss = 0.05;
    f_dup = 0.02;
    f_crash_in_commit = 0.2 }

type f5_sample = {
  f5_case : string;
  f5_mode : string;
  f5_wall : float;
  f5_sim : float;
  f5_report : Mcc.Gridapp.Serve.report;
  f5_exact : bool;
  f5_opened : int;
  f5_prepares : int;
  f5_commits : int;
  f5_aborts : int;
  f5_fences : int;
  f5_compensated : int;
  f5_undecided : int;
  f5_audit_ok : bool;
}

let f5_run ~seed ~speculative =
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        node_count = f5_nodes;
        seed;
        net = Some (Net.Simnet.create ~latency_us:5.0 ());
        faults = f5_plan seed }
  in
  let d =
    Mcc.Gridapp.Serve.deploy ~engine:`Masm cluster
      { f5_cfg with Mcc.Gridapp.Serve.speculative }
  in
  let r, wall_s =
    wall (fun () ->
        Mcc.Gridapp.Serve.run ~migrate_every_s:0.004 ~migrations:10 d)
  in
  let m = Net.Cluster.metrics cluster in
  let c name = Obs.Metrics.counter_value m name in
  { f5_case = Printf.sprintf "spec-s%d" seed;
    f5_mode = (if speculative then "on" else "off");
    f5_wall = wall_s;
    f5_sim = Net.Cluster.now cluster;
    f5_report = r;
    f5_exact = Mcc.Gridapp.Serve.exactly_once d r;
    f5_opened = c "dspec.opened";
    f5_prepares = c "dspec.prepares";
    f5_commits = c "dspec.commits";
    f5_aborts = c "dspec.aborts";
    f5_fences = c "dspec.fence_rejections";
    f5_compensated = c "dspec.compensated";
    f5_undecided = Net.Dspec.undecided (Net.Cluster.dspec cluster);
    (* zero partial commits over the trace window (see Obs.Audit) *)
    f5_audit_ok =
      Result.is_ok
        (Obs.Audit.partial_commits
           (Obs.Trace.events (Net.Cluster.trace cluster))) }

let f5_row s =
  let r = s.f5_report in
  Printf.sprintf
    "{\"bench\":\"f5\",\"case\":\"%s\",\"mode\":\"%s\",\
     \"requests\":%d,\"migrations\":%d,\"opened\":%d,\"prepares\":%d,\
     \"commits\":%d,\"aborts\":%d,\"fence_rejections\":%d,\
     \"compensated\":%d,\"p50_ms\":%.4f,\"p99_ms\":%.4f,\
     \"wall_s\":%.6f,\"sim_s\":%.6f,\"req_per_sim_sec\":%.1f}"
    s.f5_case s.f5_mode r.Mcc.Gridapp.Serve.rp_requests r.rp_migrations
    s.f5_opened s.f5_prepares s.f5_commits s.f5_aborts s.f5_fences
    s.f5_compensated r.rp_p50_ms r.rp_p99_ms s.f5_wall s.f5_sim
    (float_of_int r.Mcc.Gridapp.Serve.rp_requests /. s.f5_sim)

let f5_results () =
  List.concat_map
    (fun seed ->
      [ f5_run ~seed ~speculative:false; f5_run ~seed ~speculative:true ])
    f5_seeds

let f5_gate samples =
  let total =
    f5_cfg.Mcc.Gridapp.Serve.clients
    * f5_cfg.Mcc.Gridapp.Serve.requests_per_client
  in
  let exact_ok = List.for_all (fun s -> s.f5_exact) samples in
  let on_rows = List.filter (fun s -> String.equal s.f5_mode "on") samples in
  let moved_ok =
    List.for_all
      (fun s -> s.f5_report.Mcc.Gridapp.Serve.rp_migrations > 0)
      on_rows
  in
  (* the protocol counters the smoke asserts nonzero, plus exact
     conservation: every opened transaction resolved one way, one
     commit per unique request, and none left undecided (every abort
     compensated) *)
  let counters_ok =
    List.for_all
      (fun s ->
        s.f5_prepares > 0 && s.f5_commits = total && s.f5_aborts > 0
        && s.f5_fences > 0
        && s.f5_opened = s.f5_commits + s.f5_aborts
        && s.f5_undecided = 0)
      on_rows
  in
  let audit_ok = List.for_all (fun s -> s.f5_audit_ok) on_rows in
  (exact_ok, moved_ok, counters_ok, audit_ok)

let f5 () =
  section "F5: speculative exactly-once serving under fault plans";
  Printf.printf
    "%d closed-loop clients x %d requests (= %d total) at %d services\n\
     on %d nodes.  The \"on\" rows serve SPECULATIVELY: reply before\n\
     the dedup write is durable, commit via the epoch-fenced 2PC, with\n\
     services re-homed every 4 simulated ms, under 5%% loss + 2%% dup +\n\
     20%% crash_in_commit (a participant crashes between prepare-ack\n\
     and commit receipt; the epoch bump voids its ack).  Every abort\n\
     must roll all participants back, compensate mailboxes, replay —\n\
     and still serve each request exactly once.\n\n"
    f5_cfg.Mcc.Gridapp.Serve.clients
    f5_cfg.Mcc.Gridapp.Serve.requests_per_client
    (f5_cfg.Mcc.Gridapp.Serve.clients
    * f5_cfg.Mcc.Gridapp.Serve.requests_per_client)
    f5_cfg.Mcc.Gridapp.Serve.services f5_nodes;
  let samples = f5_results () in
  Printf.printf "  %-9s %-5s %-8s %-6s %-7s %-7s %-7s %-7s %-8s %-8s %s\n"
    "case" "mode" "requests" "moves" "opened" "commits" "aborts" "fences"
    "p99(ms)" "sim(s)" "wall(s)";
  List.iter
    (fun s ->
      Printf.printf
        "  %-9s %-5s %-8d %-6d %-7d %-7d %-7d %-7d %-8.3f %-8.3f %.3f\n"
        s.f5_case s.f5_mode s.f5_report.Mcc.Gridapp.Serve.rp_requests
        s.f5_report.Mcc.Gridapp.Serve.rp_migrations s.f5_opened s.f5_commits
        s.f5_aborts s.f5_fences s.f5_report.Mcc.Gridapp.Serve.rp_p99_ms
        s.f5_sim s.f5_wall)
    samples;
  (* the host tax of speculation, informational only: host wall is too
     noisy to gate (perfcheck gates the simulated ratio).  [f5_results]
     yields each seed's "off" row, then its "on" row. *)
  let rec host_tax = function
    | off :: on :: rest ->
      Printf.printf "  %s host wall on/off: %.2fx (informational)\n"
        on.f5_case (on.f5_wall /. off.f5_wall);
      host_tax rest
    | _ -> ()
  in
  host_tax samples;
  let rows = List.map f5_row samples in
  write_lines "BENCH_f5.json" rows;
  Printf.printf "\n  wrote BENCH_f5.json\n";
  print_newline ();
  let exact_ok, moved_ok, counters_ok, audit_ok = f5_gate samples in
  verdict
    (Printf.sprintf "every request served exactly once (%d runs, 2 seeds)"
       (List.length samples))
    exact_ok;
  verdict "services re-homed mid-region on every speculative run" moved_ok;
  verdict "protocol counters conserve: prepares/aborts/fences nonzero, \
           opened = commits + aborts, one commit per unique request, \
           none left undecided"
    counters_ok;
  verdict "trace audit: zero partial commits (aborts disjoint from \
           commits; every abort rolled back and compensated)"
    audit_ok;
  if not (exact_ok && moved_ok && counters_ok && audit_ok) then exit 1;
  samples

let f5_cmd () = ignore (f5 ())

(* --- perfcheck ----------------------------------------------------- *)

(* speedup ratio per (bench, case) from a row list: slow-mode cost over
   fast-mode cost *)
let ratios_of_rows rows =
  let field line name =
    match json_field line name with
    | Some v -> v
    | None -> failwith ("perfcheck: missing field " ^ name ^ " in " ^ line)
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun line ->
      let bench = field line "bench" in
      let case = field line "case" in
      let mode = field line "mode" in
      (* t2 and f5 are judged on SIMULATED completion time — the
         policy's (resp. protocol's) cost is a property of the modelled
         cluster, not of host wall clock *)
      let cost =
        float_of_string
          (field line
             (if String.equal bench "t2" || String.equal bench "f5" then
                "sim_s"
              else "wall_s"))
      in
      Hashtbl.replace tbl (bench, case, mode) cost)
    rows;
  let pairs =
    Hashtbl.fold
      (fun (bench, case, _) _ acc ->
        if List.mem (bench, case) acc then acc else (bench, case) :: acc)
      tbl []
  in
  List.concat_map
    (fun (bench, case) ->
      let get mode = Hashtbl.find_opt tbl (bench, case, mode) in
      let pair key slow fast =
        match slow, fast with
        | Some s, Some f -> [ (bench, key), s /. f ]
        | _ -> []
      in
      if String.equal bench "s1" then pair case (get "scan") (get "indexed")
      else if String.equal bench "t1" then
        (* ratio = wall_static / wall_migrate: a regression on the
           forward/rebind serving path inflates the migrate wall and
           drags the ratio below the gate *)
        pair case (get "static") (get "migrate")
      else if String.equal bench "t2" then
        (* ratio = sim_off / sim_on: the policy's throughput edge over
           the packed placement; a regressed planner (churn, failed
           convergence) drags it below the gate *)
        pair case (get "off") (get "on")
      else if String.equal bench "f5" then
        (* ratio = sim_off / sim_on: what the speculative 2PC costs the
           serving path under the same fault plan; a regressed protocol
           (abort storms, fence thrash, slow compensation) drags the
           on-row sim time up and the ratio below the gate *)
        pair case (get "off") (get "on")
      else
        (* ratio = wall_baseline / wall_compiled: the closure-compiled
           tier's win over the reference loop; a fusion regression drags
           it below the gate *)
        pair case (get "baseline") (get "compiled"))
    (List.sort compare pairs)

let perfcheck () =
  section "PERFCHECK: speedup-ratio regression gate";
  let check name fresh_rows baseline_path =
    match read_lines baseline_path with
    | None ->
      Printf.printf "  %s: no baseline at %s — SKIP (commit one)\n" name
        baseline_path;
      true
    | Some baseline_rows ->
      let fresh = ratios_of_rows fresh_rows in
      let committed = ratios_of_rows baseline_rows in
      List.for_all
        (fun (key, base_ratio) ->
          match List.assoc_opt key fresh with
          | None ->
            Printf.printf "  %s: case %s/%s missing from fresh run [FAIL]\n"
              name (fst key) (snd key);
            false
          | Some ratio ->
            let ok = ratio >= 0.7 *. base_ratio in
            Printf.printf
              "  %s %s/%s: speedup %.2fx vs committed %.2fx %s\n" name
              (fst key) (snd key) ratio base_ratio
              (if ok then "[PASS]" else "[FAIL: regressed > 30%]");
            ok)
        committed
  in
  let s1_rows, _ = s1_results () in
  write_lines "BENCH_s1.json" s1_rows;
  let v1_rows =
    List.concat_map (fun (_, rows, _, _, _, _) -> rows) (v1_results ())
  in
  write_lines "BENCH_v1.json" v1_rows;
  (* every correctness gate of the standalone t1/t2/f5 runs holds on
     the fresh samples before any ratio is compared *)
  let require name ok =
    if not ok then begin
      Printf.printf "  %s: correctness gate violated in fresh run [FAIL]\n"
        name;
      exit 1
    end
  in
  let t1_samples = t1_results () in
  let t1_exact, t1_moved, t1_rebound = t1_gate t1_samples in
  require "t1" (t1_exact && t1_moved && t1_rebound);
  let t1_rows = List.map t1_row t1_samples in
  write_lines "BENCH_t1.json" t1_rows;
  let t2_samples = t2_results () in
  let t2_exact, t2_moved, t2_off, t2_conv = t2_gate t2_samples in
  require "t2" (t2_exact && t2_moved && t2_off && t2_conv);
  let t2_rows = List.map t2_row t2_samples in
  write_lines "BENCH_t2.json" t2_rows;
  let f5_samples = f5_results () in
  let f5_exact, f5_moved, f5_counters, f5_auditok = f5_gate f5_samples in
  require "f5" (f5_exact && f5_moved && f5_counters && f5_auditok);
  let f5_rows = List.map f5_row f5_samples in
  write_lines "BENCH_f5.json" f5_rows;
  let ok_s1 = check "s1" s1_rows "bench/baselines/BENCH_s1.json" in
  let ok_v1 = check "v1" v1_rows "bench/baselines/BENCH_v1.json" in
  let ok_t1 = check "t1" t1_rows "bench/baselines/BENCH_t1.json" in
  let ok_t2 = check "t2" t2_rows "bench/baselines/BENCH_t2.json" in
  let ok_f5 = check "f5" f5_rows "bench/baselines/BENCH_f5.json" in
  print_newline ();
  verdict "no perf regression > 30% vs committed baselines"
    (ok_s1 && ok_v1 && ok_t1 && ok_t2 && ok_f5);
  if not (ok_s1 && ok_v1 && ok_t1 && ok_t2 && ok_f5) then exit 1

(* ================================================================== *)
(* Driver                                                              *)
(* ================================================================== *)

(* e2/e3/e4 share one sweep; the canonical key deduplicates them *)
let experiments =
  [
    "e1", ("e1", e1);
    "e1c", ("e1c", e1c);
    "e1d", ("e1d", e1d);
    "e2", ("e2_e4", e2_e4);
    "e3", ("e2_e4", e2_e4);
    "e4", ("e2_e4", e2_e4);
    "e5", ("e5", e5);
    "f1", ("f1", f1);
    "f2", ("f2", f2);
    "f2b", ("f2b", f2b);
    "f3", ("f3", f3);
    "f4", ("f4", f4);
    "a1", ("a1", a1);
    "a2", ("a2", a2);
    (* micro-benchmark, not part of the default paper-reproduction run *)
    "m1", ("m1", m1);
    (* perf meters for the scheduler/VM fast paths (BENCH_*.json) *)
    "s1", ("s1", s1);
    "v1", ("v1", v1);
    (* serving-under-migration meter: latency quantiles + exactly-once
       gate for the registry's forward/notify/rebind protocol *)
    "t1", ("t1", t1_cmd);
    (* placement-policy meter: skewed stream, packed start, rebalance
       convergence + throughput policy-on vs policy-off *)
    "t2", ("t2", t2_cmd);
    (* distributed-speculation meter: speculative exactly-once serving
       under loss+dup+crash_in_commit with migrating services; gates
       the 2PC correctness counters and the zero-partial-commit trace
       audit *)
    "f5", ("f5", f5_cmd);
    (* regression gate: re-measures s1+v1+t1+t2+f5 and compares speedup
       ratios against bench/baselines/*.json; exits 1 on > 30%
       regression *)
    "perfcheck", ("perfcheck", perfcheck);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ ->
      [ "e1"; "e1c"; "e1d"; "e2"; "e5"; "f1"; "f2"; "f2b"; "f3"; "f4"; "a1";
        "a2"; "s1"; "v1"; "t1"; "t2"; "f5" ]
  in
  print_endline
    "Mojave Compiler reproduction — benchmark harness (paper: Smith, \
     Tapus, Hickey, IPPS 2007)";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some (key, f) ->
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          f ()
        end
      | None -> Printf.eprintf "unknown experiment %s\n" id)
    requested;
  print_newline ()
