(* Workload [migrate]: the E1c/E1d migration shape, driven outside the
   cluster.

   A mini-C process with a 1 MB float heap (and six stencil-kernel
   families, so its code is application-sized) rewrites a small window
   of that heap between [migrate()] calls.  It is passed between four
   migration daemons, each a [Migrate.Server] with a recompilation cache
   and a delta-baseline cache: [Pack.pack_request], then [Pack.delta]
   when the destination holds the previous image, then [Server.handle],
   then an [Emulator] resume to the next migrate point.  The first visit
   to each daemon is cold (full image, recompile); the ping-pong hops
   after it are warm (cache hit plus delta).  The seed picks the window,
   its stride, the data and the tour order.

   Simulated time is the E1 cost model (pack + transfer at the paper's
   effective 24 Mbps + compile or link + heap restore) summed over
   hops.  The final exit code must equal an independent [Vm.Interp] run
   of the same FIR resumed locally past every migrate point. *)

open Runtime
module Pack = Migrate.Pack
module Server = Migrate.Server

let arch = Vm.Arch.cisc32
let cells = 1024 * 128
let daemons = 4
(* 36 warm hops per batch: a run always completes at least three
   batches, so the warm-hop p90 has at least ten samples beyond it. *)
let warm_hops = 36
let net = Net.Simnet.create ~bandwidth_mbps:24.0 ()

type params = {
  window : int;  (** cells rewritten between hops *)
  stride : int;  (** how far the window moves per hop *)
  bias : int;  (** shapes the initial data *)
  tour : int array;  (** order of the first visits to daemons 1..3 *)
}

let params seed =
  let rng = Random.State.make [| 0x6d6967; seed |] in
  let tour = [| 1; 2; 3 |] in
  for i = 2 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = tour.(i) in
    tour.(i) <- tour.(j);
    tour.(j) <- t
  done;
  { window = 1024 + Random.State.int rng 2048;
    stride = 512 + Random.State.int rng 4096;
    bias = 1 + (2 * Random.State.int rng 48);
    tour }

let kernel v =
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
    for (j = 1; j < c - 1; j = j + 1) un[i * c + j] = cell_update%d(u, i, j, c);
  }
  for (i = 1; i < rows - 1; i = i + 1) {
    for (j = 1; j < c - 1; j = j + 1) u[i * c + j] = un[i * c + j] + (float)%d * 0.0;
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

let source ~hops p =
  let variants = List.init 6 Fun.id in
  String.concat "" (List.map kernel variants)
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
  for (i = 0; i < n; i = i + 1) data[i] = (float)((i * %d) %% 97) / 97.0;
  int hop;
  for (hop = 0; hop < %d; hop = hop + 1) {
    migrate("mcc://next");
    for (i = 0; i < %d; i = i + 1) {
      data[(hop * %d + i) %% n] = data[(hop * %d + i) %% n] + 1.0;
    }
  }
  return checksum(data, n) + (int)acc;
}
|}
      (String.concat ""
         (List.map
            (fun v ->
              Printf.sprintf "  relax%d(warm, warm2, 4, 8);\n  acc = acc + row_sum%d(warm, 1, 8);\n" v v)
            variants))
      cells p.bias hops p.window p.stride p.stride

let compile ~hops p =
  match Minic.Driver.compile (source ~hops p) with
  | Ok fir -> fir
  | Error e -> failwith ("migrate workload: " ^ Minic.Driver.error_to_string e)

(* The independent answer: the same FIR on the reference interpreter,
   resumed locally past every migrate point. *)
let reference_exit fir =
  let proc = Vm.Process.create ~arch fir in
  let rec go () =
    match Vm.Interp.run proc with
    | Vm.Process.Migrating _ ->
      Vm.Process.migration_failed proc;
      go ()
    | Vm.Process.Exited n -> n
    | Vm.Process.Running -> go ()
    | Vm.Process.Trapped m -> failwith ("migrate workload: reference trapped: " ^ m)
  in
  go ()


let daemon () =
  Server.create_cfg
    { Server.Config.default with
      cache = Some (Migrate.Codecache.create ~capacity:16 ());
      baseline_cache = 4 }
    arch

(* The origin runs the process to its first migrate point in compiled
   code, as a spawn on daemon 0 would. *)
let spawn fir =
  let proc = Vm.Process.create ~arch fir in
  let em = Vm.Emulator.create (Vm.Codegen.compile ~arch fir) proc in
  match Vm.Emulator.run em with
  | Vm.Process.Migrating _ -> proc
  | _ -> failwith "migrate workload: origin never reached a migrate point"

let mem_s n = Vm.Arch.seconds arch (n * arch.Vm.Arch.cycles Vm.Arch.Mem)

type hop = {
  h_cold : bool;
  h_ms : float;  (** reference ms: pack + delta + handle + resume *)
  h_handle_s : float;  (** reference seconds: [Server.handle] alone *)
  h_sim_s : float;  (** the E1 cost model *)
  h_bytes : int;
}

type state = {
  mutable proc : Vm.Process.t;
  mutable at : int;
  mutable baseline : (string * Migrate.Wire.image) option;
  mutable exit_code : int option;
  mutable first_full : string option;  (** bytes of the first cold hop *)
}

(* The timed part of a hop: pack, delta, handle, resume. *)
let hop_parts st ~src ~target =
  let packed, digest =
    Spans.span "migrate.pack" (fun () ->
        let packed = Pack.pack_request ~with_binary:false st.proc in
        let digest = Migrate.Wire.image_digest packed.Pack.p_image in
        ignore (Server.remember_baseline ~digest src packed.Pack.p_image);
        packed, digest)
  in
  let full = packed.Pack.p_bytes in
  let bytes, pack_s =
    match st.baseline with
    | Some (bd, bimg) when Server.has_baseline target bd -> (
      match
        Spans.span "migrate.delta" (fun () ->
            Pack.delta ~baseline:bimg ~base_digest:bd packed)
      with
      | Some (b, ds) when String.length b < String.length full ->
        ( b,
          mem_s
            ((ds.Migrate.Wire.ds_blocks * Heap.header_cells)
            + ds.Migrate.Wire.ds_shipped_cells) )
      | Some _ | None -> full, mem_s (Heap.used_cells st.proc.Vm.Process.heap))
    | Some _ | None -> full, mem_s (Heap.used_cells st.proc.Vm.Process.heap)
  in
  st.baseline <- Some (digest, packed.Pack.p_image);
  if st.first_full = None then st.first_full <- Some full;
  let handled, handle_s =
    Clock.time (fun () ->
        Spans.span "server.handle" (fun () -> Server.handle target bytes))
  in
  match handled with
  | Error m -> Error m
  | Ok o ->
    let status =
      Spans.span "emulator.resume" (fun () ->
          Vm.Emulator.run
            (Vm.Emulator.create ~compiled:o.Server.o_compiled o.Server.o_masm
               o.Server.o_process))
    in
    Ok (o, status, bytes, pack_s, handle_s *. snd !Clock.last)

(* One hop of [st]'s process from its current daemon to [dst]. *)
let hop servers st dst =
  Spans.new_group ();
  let src = servers.(st.at) and target = servers.(dst) in
  let timed, h_s = Clock.time_ref (fun () -> hop_parts st ~src ~target) in
  match timed with
  | Error m -> Error m
  | Ok (o, status, bytes, pack_s, h_handle_s) ->
    let costs = o.Server.o_costs in
    let proc = o.Server.o_process in
    st.proc <- proc;
    st.at <- dst;
    (match status with
    | Vm.Process.Exited n -> st.exit_code <- Some n
    | _ -> ());
    Ok
      { h_cold = not costs.Pack.u_cache_hit;
        h_ms = 1e3 *. h_s;
        h_handle_s;
        h_sim_s =
          pack_s
          +. Net.Simnet.transfer_seconds net (String.length bytes)
          +. Vm.Arch.seconds arch costs.Pack.u_compile_cycles
          +. mem_s (Heap.used_cells proc.Vm.Process.heap);
        h_bytes = String.length bytes }

let route ~warm_hops p =
  let last = p.tour.(2) in
  Array.to_list p.tour @ [ 0 ]
  @ List.init warm_hops (fun i -> if i mod 2 = 0 then last else 0)

(* The cold-hop handle split, timed on the first cold hop's image: each
   stage [Server.handle] runs on a cache miss, called on its own. *)
let side_timings bytes =
  let image = Spans.span "wire.decode" (fun () -> Migrate.Wire.decode bytes) in
  let program =
    Spans.span "wire.decode" (fun () -> Fir.Serial.decode image.Migrate.Wire.i_fir)
  in
  (match
     Spans.span "fir.typecheck" (fun () ->
         Fir.Typecheck.check_program ~strict:true ~externs:Vm.Extern.signatures
           program)
   with
  | Ok () -> ()
  | Error m -> failwith ("migrate workload: typecheck: " ^ m));
  let masm = Spans.span "vm.codegen" (fun () -> Vm.Codegen.compile ~arch program) in
  let linked = Spans.span "vm.link" (fun () -> Vm.Link.link masm) in
  ignore (Spans.span "vm.compile" (fun () -> Vm.Compile.compile linked))

(* [warm_hops] shortens the batch for tests. *)
let batch ?(warm_hops = warm_hops) ~traced ?(sabotage = false) ~seed () =
  let p = params seed in
  let hops = daemons + warm_hops in
  (* A run may hold only three batches, so set up three times per batch
     to give setup_s a median over nine; the last set-up is driven. *)
  let setup () =
    Spans.reset ();
    Clock.time_ref (fun () ->
        let fir = Spans.span "minic.compile" (fun () -> compile ~hops p) in
        let proc = Spans.span "cluster.spawn" (fun () -> spawn fir) in
        fir, proc, Array.init daemons (fun _ -> daemon ()))
  in
  let setups = List.init 2 (fun _ -> snd (setup ())) in
  Spans.on := traced;
  let (fir, proc, servers), setup_s = setup () in
  let setup_s = Stats.median (setup_s :: setups) in
  let expected = reference_exit fir + if sabotage then 1 else 0 in
  let st = { proc; at = 0; baseline = None; exit_code = None; first_full = None } in
  let gc0 = Probe.gc_counts () in
  let results = List.map (fun dst -> hop servers st dst) (route ~warm_hops p) in
  let done_ = List.filter_map Result.to_option results in
  let run_s = List.fold_left (fun a h -> a +. (h.h_ms /. 1e3)) 0.0 done_ in
  let failed_hops = List.length results - List.length done_ in
  let exit_ok = st.exit_code = Some expected in
  if traced then Option.iter side_timings st.first_full;
  Spans.on := false;
  let sim_s = List.fold_left (fun a h -> a +. h.h_sim_s) 0.0 done_ in
  let server_sum name =
    Array.fold_left
      (fun a s -> a + Obs.Metrics.counter_value (Server.metrics s) name)
      0 servers
  in
  let cache_sum name =
    Array.fold_left
      (fun a s ->
        match Server.cache s with
        | Some c -> a + Obs.Metrics.counter_value (Migrate.Codecache.metrics c) name
        | None -> a)
      0 servers
  in
  let spans =
    if not traced then []
    else
      let ms name = 1e3 *. Stats.mean (Spans.durations name) in
      let handle cold =
        1e3
        *. Stats.mean
             (List.filter_map
                (fun h -> if h.h_cold = cold then Some h.h_handle_s else None)
                done_)
      in
      [ "minic.compile_s", Spans.total "minic.compile";
        "cluster.spawn_s", Spans.total "cluster.spawn";
        "pack_ms", ms "migrate.pack";
        "delta_ms", ms "migrate.delta";
        "server.handle_cold_ms", handle true;
        "server.handle_warm_ms", handle false;
        "emulator.resume_ms", ms "emulator.resume";
        "wire.decode_ms", 1e3 *. Spans.total "wire.decode";
        "fir.typecheck_ms", ms "fir.typecheck";
        "vm.codegen_ms", ms "vm.codegen";
        "vm.link_ms", ms "vm.link";
        "vm.compile_ms", ms "vm.compile";
        "trace.spans", float_of_int (List.length (Spans.spans ())) ]
  in
  let lookups = cache_sum "codecache.lookups" in
  { Report.setup_s;
    run_s;
    ops = List.length done_;
    op_times = List.map (fun h -> h.h_ms /. 1e3) done_;
    attempted = hops;
    failed = (if exit_ok then failed_hops else hops);
    sim_s;
    sim_op_ms = 1e3 *. sim_s /. float_of_int (max 1 (List.length done_));
    fingerprint =
      Printf.sprintf "sim=%h exit=%s bytes=%s" sim_s
        (match st.exit_code with Some n -> string_of_int n | None -> "none")
        (String.concat "," (List.map (fun h -> string_of_int h.h_bytes) done_));
    samples =
      List.map
        (fun h -> (if h.h_cold then "hop_cold_ms" else "hop_warm_ms"), h.h_ms)
        done_;
    layer =
      [ "migrate.bytes_full", float_of_int (server_sum "migrate.bytes_full");
        "migrate.bytes_delta", float_of_int (server_sum "migrate.bytes_delta");
        "codecache.hit_ratio",
        (if lookups = 0 then 0.0
         else float_of_int (cache_sum "codecache.hits") /. float_of_int lookups) ]
      @ Probe.gc_delta gc0 @ spans }
