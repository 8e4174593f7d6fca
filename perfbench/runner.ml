(* One workload run: repeat fresh batches of the workload for the
   requested host seconds, check every batch, and report.

   The untraced run ([trace = false]) gives the end-to-end metrics.  The
   traced run follows every untraced batch with a traced one of the same
   seed (spans around every layer call, the library's run loops rebuilt
   from public calls) and gives the per-layer metrics, the tracing overhead,
   and the determinism cross-check: the traced batch must reproduce the
   untraced batch's simulated outputs exactly. *)

type workload = {
  name : string;
  batch : traced:bool -> ?sabotage:bool -> seed:int -> unit -> Report.batch;
  unit_of_work : string;
}

let workloads =
  [ { name = "serve"; batch = Wl_serve.batch ~speculative:false;
      unit_of_work = "request" };
    { name = "serve-spec"; batch = Wl_serve.batch ~speculative:true;
      unit_of_work = "request" };
    { name = "migrate";
      batch =
        (fun ~traced ?sabotage ~seed () ->
          Wl_migrate.batch ~traced ?sabotage ~seed ());
      unit_of_work = "hop" };
    { name = "grid"; batch = Wl_grid.batch; unit_of_work = "timestep" } ]

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

(* The per-layer metrics of the traced run, in BENCHMARK.json order.  A
   layer a workload never calls reads 0.  The last group repeats the
   workload-specific end-to-end figures from the run's untraced batches,
   also 0 where they do not apply. *)
let per_layer =
  [ "minic.compile_s", "s"; "cluster.spawn_s", "s"; "cluster.run_s", "s";
    "cluster.run_self_s", "s"; "sched.rounds", "count";
    "sched.quanta", "count"; "sched.us_per_quantum", "us";
    "sched.quanta_per_req", "count"; "gridapp.stop_s", "s";
    "gridapp.stop_calls", "count"; "cluster.move_ms", "ms";
    "cluster.moves", "count"; "migrate.bytes_full", "bytes";
    "migrate.bytes_delta", "bytes"; "cluster.checkpoints", "count";
    "net.messages", "count"; "net.bytes_sent", "bytes";
    "faults.retransmits", "count"; "faults.crash_in_commit", "count";
    "registry.forwarded", "count"; "registry.rebinds", "count";
    "registry.expired", "count"; "dspec.opened", "count";
    "dspec.commits", "count"; "dspec.aborts", "count";
    "dspec.compensated", "count"; "dspec.commit_ratio", "ratio";
    "spec.entered", "count"; "spec.rolled_back", "count"; "pack_ms", "ms";
    "delta_ms", "ms"; "server.handle_cold_ms", "ms";
    "server.handle_warm_ms", "ms"; "emulator.resume_ms", "ms";
    "codecache.hit_ratio", "ratio"; "wire.decode_ms", "ms";
    "fir.typecheck_ms", "ms"; "vm.codegen_ms", "ms"; "vm.link_ms", "ms";
    "vm.compile_ms", "ms"; "gc.minor_collections", "count";
    "gc.major_collections", "count"; "trace.spans", "count";
    "trace.overhead_pct", "%"; "req_per_s", "1/s"; "cells_per_s", "1/s";
    "hop_cold_ms", "ms"; "hop_warm_ms", "ms"; "hop_warm_p90_ms", "ms";
    "sim_lat_mean_ms", "ms"; "sim_lat_p99_ms", "ms"; "failed_share", "ratio" ]

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Report.metric list;
}

let samples name bs =
  List.concat_map
    (fun b ->
      List.filter_map
        (fun (n, v) -> if String.equal n name then Some v else None)
        b.Report.samples)
    bs

let peak_mem_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* The workload-specific end-to-end figures, each only where it
   applies. *)
let specific w ~ops_per_s ~first untraced =
  let median f = Stats.median (List.map f first) in
  let attempted = List.fold_left (fun a b -> a + b.Report.attempted) 0 untraced in
  let failed = List.fold_left (fun a b -> a + b.Report.failed) 0 untraced in
  let m = Report.m in
  let by_kind =
    match w.name with
    | "serve" | "serve-spec" ->
      [ m "req_per_s" "1/s" ops_per_s;
        m "sim_lat_mean_ms" "ms" (median (fun b -> b.Report.sim_op_ms));
        (* a bucket bound of app.latency_seconds: half-decade resolution *)
        m "sim_lat_p99_ms" "ms"
          (median (fun b -> List.assoc "sim_lat_p99_ms" b.Report.layer)) ]
    | "migrate" ->
      let warm = samples "hop_warm_ms" untraced in
      [ m "hop_cold_ms" "ms" (Stats.median (samples "hop_cold_ms" untraced));
        m "hop_warm_ms" "ms" (Stats.median warm) ]
      @ (match Stats.percentile_resolved ~p:90.0 warm with
      | Some v -> [ m "hop_warm_p90_ms" "ms" v ]
      | None ->
        Printf.printf "hop_warm_p90_ms unresolved: %d warm hops%s\n"
          (List.length warm)
          (match Stats.highest_resolved warm with
          | Some (p, v) -> Printf.sprintf ", p%g = %.3f ms" p v
          | None -> "");
        [])
    | _ ->
      [ m "cells_per_s" "1/s" (ops_per_s *. float_of_int Wl_grid.cells_per_step) ]
  in
  by_kind
  @ [ m "failed_share" "ratio" (float_of_int failed /. float_of_int (max 1 attempted)) ]

(* Batch [k] of a run draws its inputs (fault plan, cluster seed,
   program parameters) from its own seed, so one run averages over many
   fault draws.  The simulated metrics are medians over the first
   [sim_batches] batches, so they depend on the run seed alone. *)
let sim_batches = 3
let batch_seed seed k = (seed * 1_000) + k

let run w ~seed ~seconds ~trace ?(sabotage = false) () =
  let t_end = Clock.now_s () +. seconds in
  let pairs = ref [] and k = ref 0 in
  while !k < sim_batches || Clock.now_s () < t_end do
    let seed = batch_seed seed !k in
    let batch traced =
      (* every batch starts from a compacted host heap *)
      Gc.compact ();
      w.batch ~traced ~sabotage ~seed ()
    in
    let u = batch false in
    pairs := (u, if trace then Some (batch true) else None) :: !pairs;
    incr k
  done;
  let pairs = List.rev !pairs in
  let untraced = List.map fst pairs in
  let traced = List.filter_map snd pairs in
  let all = untraced @ traced in
  let mismatched =
    List.filter_map
      (fun (u, t) ->
        match t with
        | Some t when not (String.equal u.Report.fingerprint t.Report.fingerprint)
          -> Some (u.Report.fingerprint, t.Report.fingerprint)
        | Some _ | None -> None)
      pairs
  in
  List.iter
    (fun (u, t) ->
      Printf.printf "simulated outputs differ:\n  untraced %s\n  traced   %s\n" u t)
    mismatched;
  let attempted = List.fold_left (fun a b -> a + b.Report.attempted) 0 all in
  let failed = List.fold_left (fun a b -> a + b.Report.failed) 0 all in
  let median f bs = Stats.median (List.map f bs) in
  let first = List.filteri (fun i _ -> i < sim_batches) untraced in
  let ops_per_s =
    1.0 /. Stats.median (List.concat_map (fun b -> b.Report.op_times) untraced)
  in
  let specific = specific w ~ops_per_s ~first untraced in
  Printf.printf
    "workload %s, seed %d: %d batches of %d %ss%s; traced rebuild %s\n" w.name
    seed (List.length untraced) (List.hd untraced).Report.ops w.unit_of_work
    (if trace then " (each also run traced)" else "")
    (if not trace then "not run"
     else if mismatched = [] then "reproduced every simulated output"
     else "DIVERGED");
  let metrics =
    if not trace then begin
      let m = Report.m in
      let e2e =
        [ m "setup_s" "s" (median (fun b -> b.Report.setup_s) untraced);
          m "ops_per_s" "1/s" ops_per_s;
          m "sim_s" "s" (median (fun b -> b.Report.sim_s) first);
          m "sim_op_ms" "ms" (median (fun b -> b.Report.sim_op_ms) first);
          m "peak_mem_mb" "MB" (peak_mem_mb ()) ]
      in
      Report.print_table "end-to-end (untraced):" e2e;
      Report.print_table "workload-specific (untraced):" specific;
      e2e
    end
    else begin
      let layer name =
        Stats.mean
          (List.filter_map (fun b -> List.assoc_opt name b.Report.layer) traced)
      in
      let overhead =
        let u = median (fun b -> b.Report.run_s) untraced
        and t = median (fun b -> b.Report.run_s) traced in
        100.0 *. (t -. u) /. u
      in
      let value name =
        if String.equal name "trace.overhead_pct" then overhead
        else
          match
            List.find_opt (fun x -> String.equal x.Report.name name) specific
          with
          | Some x -> x.Report.value
          | None -> layer name
      in
      List.iter
        (fun b ->
          List.iter
            (fun (n, _) ->
              if not (List.mem_assoc n per_layer) then
                failwith ("perfbench: unlisted per-layer metric " ^ n))
            b.Report.layer)
        traced;
      let metrics = List.map (fun (n, u) -> Report.m n u (value n)) per_layer in
      Report.print_table "per-layer (traced batches; 0 = layer not used):"
        metrics;
      Printf.printf "self time per span, last traced batch:\n";
      List.iter
        (fun (n, s) -> Printf.printf "  %-24s %12.6f s\n" n s)
        (Spans.self_times ());
      metrics
    end
  in
  { correct = mismatched = [] && failed = 0; attempted; failed; metrics }
