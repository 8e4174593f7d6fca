(* The mcc command-line driver.

     mcc compile FILE [--fir] [-S]         check / dump FIR or MASM
     mcc run FILE [--backend ...] [--arch ...]
     mcc resume IMAGE [--trusted]          execute a checkpoint image
     mcc grid [--ranks N] [--fail] [--trace FILE]   the Figure 2 demo
     mcc grid --serve-bench [--clients N] [--services K] [--requests N]
              [--migrations N] [--migrate-every S]   request serving under
                                                     live-traffic migration

   [run] services migration requests locally: checkpoint://path and
   suspend://path write resumable image files to disk (the paper's
   "checkpoints formatted as executable files" — `mcc resume FILE` runs
   them); mcc://HOST targets are spooled to the directory that
   --route HOST=DIR names, for `mcc serve DIR` to resume.  A host with no
   route is unreachable and exercises the paper's failed-migration
   semantics (the process continues locally, unaware). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Write [data] under a temporary name in the same directory, then
   rename it into place: a reader (`mcc serve` polls its spool for
   [*.img]) sees the whole image or none of it. *)
let write_file path data =
  let tmp = path ^ ".part" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         output_string oc data;
         close_out oc)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let compile_file ~lang_flag ~optimize path =
  let src = read_file path in
  let source : Mcc.Api.source =
    match lang_flag with
    | Some "c" -> C src
    | Some "ml" -> Ml src
    | Some ("pas" | "pascal") -> Pas src
    | Some other -> failwith ("unknown language " ^ other)
    | None ->
      if Filename.check_suffix path ".ml" then Ml src
      else if Filename.check_suffix path ".pas" then Pas src
      else C src (* .c and everything else *)
  in
  match Mcc.Api.compile ~optimize source with
  | Ok fir -> fir
  | Error m -> failwith m

let arch_of_string = function
  | "cisc32" -> Vm.Arch.cisc32
  | "risc64" -> Vm.Arch.risc64
  | other -> failwith ("unknown architecture " ^ other ^ " (cisc32|risc64)")

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let lang_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "lang" ] ~docv:"LANG" ~doc:"Source language: c or ml \
                                         (default: by extension).")

let no_opt_arg =
  Arg.(value & flag & info [ "no-opt" ] ~doc:"Disable the FIR optimizer.")

let arch_arg =
  Arg.(
    value & opt string "cisc32"
    & info [ "arch" ] ~docv:"ARCH" ~doc:"Target architecture: cisc32 or \
                                         risc64.")

(* ------------------------------------------------------------------ *)
(* mcc compile                                                         *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let dump_fir =
    Arg.(value & flag & info [ "fir" ] ~doc:"Print the FIR.")
  in
  let dump_masm =
    Arg.(value & flag & info [ "S" ] ~doc:"Print the generated MASM.")
  in
  let action file lang_flag no_opt dump_fir dump_masm arch =
    try
      let fir = compile_file ~lang_flag ~optimize:(not no_opt) file in
      if dump_fir then print_string (Fir.Pp.program_to_string fir);
      if dump_masm then begin
        let image = Vm.Codegen.compile ~arch:(arch_of_string arch) fir in
        print_string (Vm.Masm.image_to_string image)
      end;
      if not (dump_fir || dump_masm) then
        Printf.printf "%s: ok (%d FIR functions, %d nodes)\n" file
          (Fir.Ast.fun_count fir) (Fir.Ast.program_size fir);
      0
    with Failure m ->
      Printf.eprintf "mcc: %s\n" m;
      1
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a source file to FIR/MASM.")
    Term.(
      const action $ file_arg $ lang_arg $ no_opt_arg $ dump_fir $ dump_masm
      $ arch_arg)

(* ------------------------------------------------------------------ *)
(* mcc masm                                                            *)
(* ------------------------------------------------------------------ *)

(* Static MASM inspection.  [--stats] prints the opcode and
   adjacent-pair histograms that drive the closure compiler's fusion
   set: the pairs that dominate real kernels are the ones worth folding
   into a single closure. *)
let masm_cmd =
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print static opcode and adjacent-pair histograms instead \
                of the listing.")
  in
  let action file lang_flag no_opt stats arch =
    try
      let fir = compile_file ~lang_flag ~optimize:(not no_opt) file in
      let image = Vm.Codegen.compile ~arch:(arch_of_string arch) fir in
      if stats then begin
        let opcodes, pairs = Vm.Masm.stats image in
        let total = List.fold_left (fun a (_, n) -> a + n) 0 opcodes in
        Printf.printf "%d instructions\n\nopcode histogram:\n" total;
        List.iter
          (fun (name, n) ->
            Printf.printf "  %-16s %8d  %5.1f%%\n" name n
              (100.0 *. float_of_int n /. float_of_int (max 1 total)))
          opcodes;
        Printf.printf "\nadjacent-pair histogram (top 20):\n";
        List.iteri
          (fun i (pair, n) ->
            if i < 20 then Printf.printf "  %-28s %8d\n" pair n)
          pairs
      end
      else print_string (Vm.Masm.image_to_string image);
      0
    with Failure m ->
      Printf.eprintf "mcc: %s\n" m;
      1
  in
  Cmd.v
    (Cmd.info "masm"
       ~doc:"Dump generated MASM, or its static opcode/pair histograms.")
    Term.(
      const action $ file_arg $ lang_arg $ no_opt_arg $ stats_arg $ arch_arg)

(* ------------------------------------------------------------------ *)
(* mcc run                                                             *)
(* ------------------------------------------------------------------ *)

(* Drive a process to completion, servicing migration requests against
   the local filesystem.  [routes] maps migration hosts to spool
   directories served by `mcc serve` (the file-spool stand-in for the
   paper's TCP migration server). *)
let rec drive ?(routes = []) step_fn proc =
  match proc.Vm.Process.status with
  | Vm.Process.Running ->
    step_fn ();
    drive ~routes step_fn proc
  | Vm.Process.Exited n -> n
  | Vm.Process.Trapped m ->
    Printf.eprintf "mcc: process trapped: %s\n" m;
    2
  | Vm.Process.Migrating req -> (
    match Migrate.Protocol.parse req.Vm.Process.m_target with
    | Migrate.Protocol.Checkpoint_to path ->
      let packed = Migrate.Pack.pack_request proc in
      write_file path packed.Migrate.Pack.p_bytes;
      Printf.eprintf "mcc: checkpoint written to %s (%d bytes)\n" path
        (String.length packed.Migrate.Pack.p_bytes);
      Vm.Process.migration_failed proc (* = keep running *);
      drive ~routes step_fn proc
    | Migrate.Protocol.Suspend_to path ->
      let packed = Migrate.Pack.pack_request proc in
      write_file path packed.Migrate.Pack.p_bytes;
      Printf.eprintf "mcc: process suspended to %s; resume with: mcc \
                      resume %s\n" path path;
      Vm.Process.migration_completed proc;
      0
    | Migrate.Protocol.Migrate_to host -> (
      match List.assoc_opt host routes with
      | Some dir ->
        let packed = Migrate.Pack.pack_request proc in
        let path =
          Filename.concat dir
            (Printf.sprintf "mig-%d-%d.img" (Unix.getpid ())
               req.Vm.Process.m_label)
        in
        write_file path packed.Migrate.Pack.p_bytes;
        Printf.eprintf
          "mcc: process migrated to %s (%s, %d bytes); run `mcc serve %s` \
           there\n"
          host path
          (String.length packed.Migrate.Pack.p_bytes)
          dir;
        Vm.Process.migration_completed proc;
        0
      | None ->
        Printf.eprintf
          "mcc: no route to migration server %s; continuing locally\n" host;
        Vm.Process.migration_failed proc;
        drive ~routes step_fn proc)
    | exception Migrate.Protocol.Bad_target m ->
      Printf.eprintf "mcc: %s; continuing locally\n" m;
      Vm.Process.migration_failed proc;
      drive ~routes step_fn proc)

let run_cmd =
  let backend_arg =
    Arg.(
      value & opt string "native"
      & info [ "backend" ] ~docv:"B" ~doc:"Execution backend: reference \
                                           or native.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.")
  in
  let route_arg =
    Arg.(
      value & opt_all string []
      & info [ "route" ] ~docv:"HOST=DIR"
          ~doc:"Spool directory serving mcc://HOST migrations (see `mcc \
                serve`); repeatable.")
  in
  let action file lang_flag no_opt arch backend seed routes =
    try
      let routes =
        List.map
          (fun r ->
            match String.index_opt r '=' with
            | Some k ->
              String.sub r 0 k, String.sub r (k + 1) (String.length r - k - 1)
            | None -> failwith ("bad --route " ^ r ^ " (want HOST=DIR)"))
          routes
      in
      let fir = compile_file ~lang_flag ~optimize:(not no_opt) file in
      let arch = arch_of_string arch in
      let proc = Vm.Process.create ~arch ~seed fir in
      let step_fn =
        match backend with
        | "reference" -> fun () -> Vm.Interp.step proc
        | "native" ->
          let emu = Vm.Emulator.create (Vm.Codegen.compile ~arch fir) proc in
          fun () -> Vm.Emulator.step emu
        | other -> failwith ("unknown backend " ^ other)
      in
      let code = drive ~routes step_fn proc in
      print_string (Vm.Process.output proc);
      code
    with Failure m ->
      Printf.eprintf "mcc: %s\n" m;
      1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a program; services \
                          checkpoint/suspend/migrate requests locally.")
    Term.(
      const action $ file_arg $ lang_arg $ no_opt_arg $ arch_arg
      $ backend_arg $ seed_arg $ route_arg)

(* ------------------------------------------------------------------ *)
(* mcc resume                                                          *)
(* ------------------------------------------------------------------ *)

let resume_cmd =
  let trusted_arg =
    Arg.(
      value & flag
      & info [ "trusted" ]
          ~doc:"Skip verification and use the binary payload when the \
                architectures match.")
  in
  let action file arch trusted =
    let bytes = read_file file in
    let arch = arch_of_string arch in
    match Migrate.Pack.unpack ~trusted ~arch bytes with
    | Error m ->
      Printf.eprintf "mcc: image rejected: %s\n" m;
      1
    | Ok (proc, masm, compiled, costs) ->
      Printf.eprintf "mcc: image accepted (%d bytes%s)\n"
        costs.Migrate.Pack.u_bytes
        (if costs.Migrate.Pack.u_recompiled then ", recompiled"
         else ", binary fast path");
      let emu = Vm.Emulator.create ~compiled masm proc in
      let code = drive (fun () -> Vm.Emulator.step emu) proc in
      print_string (Vm.Process.output proc);
      code
  in
  Cmd.v
    (Cmd.info "resume" ~doc:"Execute a checkpoint/suspend image file.")
    Term.(const action $ file_arg $ arch_arg $ trusted_arg)

(* ------------------------------------------------------------------ *)
(* mcc serve                                                           *)
(* ------------------------------------------------------------------ *)

(* The migration server over a spool directory: "a version of the
   compiler that will listen for incoming migration requests, recompile
   any inbound processes on the new machine, and reconstruct their state
   before executing them" (paper, Section 4.2.1) — with a filesystem
   spool standing in for the TCP listener.  It serves full images; a
   delta image is rejected as an unknown baseline. *)
let serve_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"SPOOL_DIR")
  in
  let once_arg =
    Arg.(value & flag & info [ "once" ] ~doc:"Process the current batch \
                                              and exit.")
  in
  let trusted_arg =
    Arg.(value & flag & info [ "trusted" ] ~doc:"Skip verification; use \
                                                 binary payloads.")
  in
  let cache_arg =
    Arg.(
      value & opt int 16
      & info [ "code-cache" ] ~docv:"N"
          ~doc:"Recompilation-cache capacity in entries (0 disables): \
                repeated images of the same program skip typecheck and \
                codegen and are relinked from cached code.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the server's metrics registry (counters and \
                histograms) after each processed batch.")
  in
  let action spool arch once trusted cache_capacity show_metrics =
    let arch = arch_of_string arch in
    let cache =
      if cache_capacity > 0 then
        Some (Migrate.Codecache.create ~capacity:cache_capacity ())
      else None
    in
    let server =
      Migrate.Server.create_cfg
        { Migrate.Server.Config.default with trusted; cache }
        arch
    in
    let process_batch () =
      let images =
        Sys.readdir spool |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".img")
        |> List.sort String.compare
      in
      List.iter
        (fun name ->
          let path = Filename.concat spool name in
          let bytes = read_file path in
          Sys.remove path;
          match Migrate.Server.handle server bytes with
          | Error m -> Printf.eprintf "mcc serve: %s rejected: %s\n" name m
          | Ok outcome ->
            let costs = outcome.Migrate.Server.o_costs in
            Printf.eprintf
              "mcc serve: accepted %s (%d bytes%s); resuming\n" name
              costs.Migrate.Pack.u_bytes
              (if costs.Migrate.Pack.u_cache_hit then ", code cache hit"
               else if costs.Migrate.Pack.u_recompiled then ", recompiled"
               else ", binary fast path");
            let proc = outcome.Migrate.Server.o_process in
            let emu =
              Vm.Emulator.create ~compiled:outcome.Migrate.Server.o_compiled
                outcome.Migrate.Server.o_masm proc
            in
            let code = drive (fun () -> Vm.Emulator.step emu) proc in
            print_string (Vm.Process.output proc);
            Printf.eprintf "mcc serve: %s finished with exit %d\n" name code)
        images;
      List.length images
    in
    let print_stats () =
      (match cache with
      | Some c -> Printf.eprintf "mcc serve: code cache: %s\n"
                    (Migrate.Codecache.report c)
      | None -> ());
      if show_metrics then
        prerr_string (Obs.Metrics.render (Migrate.Server.metrics server))
    in
    if once then begin
      let n = process_batch () in
      if n = 0 then Printf.eprintf "mcc serve: spool empty\n";
      print_stats ();
      0
    end
    else begin
      Printf.eprintf "mcc serve: watching %s (ctrl-c to stop)\n" spool;
      let rec loop () =
        let n = process_batch () in
        if n > 0 then print_stats ();
        Unix.sleepf 0.2;
        loop ()
      in
      loop ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a migration server over a spool directory: verify, \
             recompile and execute inbound full process images.  A \
             delta image is rejected as an unknown baseline.")
    Term.(
      const action $ dir_arg $ arch_arg $ once_arg $ trusted_arg $ cache_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* mcc grid                                                            *)
(* ------------------------------------------------------------------ *)

let grid_cmd =
  let ranks = Arg.(value & opt int 4 & info [ "ranks" ] ~doc:"Rank count.") in
  let rows =
    Arg.(value & opt int 6 & info [ "rows" ] ~doc:"Rows per rank.")
  in
  let cols = Arg.(value & opt int 12 & info [ "cols" ] ~doc:"Columns.") in
  let steps = Arg.(value & opt int 40 & info [ "steps" ] ~doc:"Timesteps.") in
  let interval =
    Arg.(value & opt int 10 & info [ "interval" ] ~doc:"Checkpoint interval.")
  in
  let fail =
    Arg.(value & flag & info [ "fail" ] ~doc:"Inject a node failure and \
                                              recover.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write the cluster event trace (migrations, checkpoints, \
                failures, speculation) to FILE as JSON lines, ordered by \
                simulated time.")
  in
  let fault_plan_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "fault-plan" ] ~docv:"FILE"
          ~doc:"Inject faults from a plan file (message loss, \
                duplication, delay jitter, link partitions, node stalls \
                and crashes); see the Faults module for the line format. \
                Crashed ranks are resurrected from their checkpoints.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:"Cluster (and fault-plan) seed; identical seeds and plans \
                reproduce identical runs and traces.")
  in
  let delta_arg =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "delta" ]
                ~doc:"Ship delta images and incremental checkpoint \
                      segments when a retained baseline makes them \
                      smaller (the default)." );
            ( false,
              info [ "no-delta" ]
                ~doc:"Force every migration hop and checkpoint to carry \
                      a full image." );
          ])
  in
  let hb_interval_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "hb-interval" ] ~docv:"SECONDS"
          ~doc:"Run a heartbeat failure detector with this emission \
                interval.  Recovery decisions then come from heartbeat \
                silence on the survivors' clocks, never from ground-truth \
                crash state; a stalled node can be falsely suspected and \
                its stale incarnation is epoch-fenced.")
  in
  let suspect_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "suspect-timeout" ] ~docv:"SECONDS"
          ~doc:"Suspect a node once every peer has heard no heartbeat \
                from it for this long (default 5x the heartbeat \
                interval).  Implies the failure detector.")
  in
  let replication_arg =
    Arg.(
      value
      & opt int 0
      & info [ "replication" ] ~docv:"K"
          ~doc:"Replicate every checkpoint across K node-local stores \
                (which die with their node, and whose writes are subject \
                to the plan's storage faults) instead of the \
                indestructible shared store.  Reads digest-verify and \
                read-repair.")
  in
  let serve_bench_arg =
    Arg.(
      value & flag
      & info [ "serve-bench" ]
          ~doc:"Instead of the stencil, run the request-serving workload: \
                closed-loop clients addressing registered services by \
                logical address while the services migrate mid-traffic.  \
                Prints latency quantiles and the registry's \
                forward/rebind counters; exit status 3 if any request \
                was lost, duplicated or reordered.")
  in
  let clients_arg =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"N" ~doc:"Client ranks (serve-bench).")
  in
  let services_arg =
    Arg.(value & opt int 2
         & info [ "services" ] ~docv:"K"
             ~doc:"Registered service processes (serve-bench).")
  in
  let requests_arg =
    Arg.(value & opt int 200
         & info [ "requests" ] ~docv:"N"
             ~doc:"Requests per client (serve-bench).")
  in
  let work_us_arg =
    Arg.(value & opt int 20
         & info [ "work-us" ] ~docv:"US"
             ~doc:"Simulated service time per request (serve-bench).")
  in
  let migrations_arg =
    Arg.(value & opt int 4
         & info [ "migrations" ] ~docv:"N"
             ~doc:"Service re-homings to land mid-traffic (serve-bench; \
                   0 = static run).")
  in
  let migrate_every_arg =
    Arg.(value & opt float 0.002
         & info [ "migrate-every" ] ~docv:"SECONDS"
             ~doc:"Simulated seconds between service re-homings \
                   (serve-bench).")
  in
  let skew_arg =
    Arg.(
      value & flag
      & info [ "skew" ]
          ~doc:"Skewed, phase-shifting request stream: 4 of every 5 \
                requests target the current phase's hot service \
                (serve-bench; the T2 workload).")
  in
  let speculative_arg =
    Arg.(
      value & flag
      & info [ "speculative" ]
          ~doc:"Speculative exactly-once serving (serve-bench; the F5 \
                workload): services reply from inside a speculation \
                before their dedup state is durable and commit through \
                the cluster's epoch-fenced distributed transaction \
                protocol; aborted attempts roll back and replay.")
  in
  let pack_arg =
    Arg.(value & opt int 0
         & info [ "pack" ] ~docv:"P"
             ~doc:"Cram all services onto the first P nodes instead of \
                   spreading them (serve-bench; 0 = spread).  The \
                   deliberately bad placement the balance engine is \
                   measured against.")
  in
  let balance_arg =
    Arg.(
      value & flag
      & info [ "balance" ]
          ~doc:"Enable the load-aware placement policy engine: sample \
                per-node load gauges every 2 ms of simulated time and \
                automatically re-home registered services through the \
                unified move API (serve-bench).")
  in
  let action ranks rows_per_rank cols timesteps interval fail trace_file
      fault_plan_file seed delta hb_interval suspect_timeout replication
      serve_bench clients services requests work_us migrations migrate_every
      skew speculative pack balance =
    let config =
      { Mcc.Gridapp.ranks; rows_per_rank; cols; timesteps; interval;
        work_us_per_step = 1000 }
    in
    (* a switch that only the other mode reads would be silently
       ignored; refuse it instead *)
    let other_mode =
      if serve_bench then
        [ (fail, "--fail"); (hb_interval <> None, "--hb-interval");
          (suspect_timeout <> None, "--suspect-timeout");
          (replication <> 0, "--replication") ]
      else
        [ (balance, "--balance"); (skew, "--skew");
          (speculative, "--speculative"); (pack <> 0, "--pack") ]
    in
    let plan =
      match fault_plan_file with
      | None -> Ok Net.Faults.none
      | Some path -> Net.Faults.parse_plan ?seed (read_file path)
    in
    match (List.find_opt fst other_mode, plan) with
    | Some (_, flag), _ ->
      Printf.eprintf "mcc grid: %s %s --serve-bench\n" flag
        (if serve_bench then "cannot be combined with" else "requires");
      2
    | None, Error m ->
      Printf.eprintf "mcc grid: bad fault plan: %s\n" m;
      2
    | None, Ok plan ->
    (* the cluster rejects a plan that names a node it does not have *)
    let create_cluster cfg =
      match Net.Cluster.create_cfg cfg with
      | cluster -> Ok cluster
      | exception Invalid_argument m ->
        Printf.eprintf "mcc grid: %s\n" m;
        Error 2
    in
    let write_trace cluster =
      match trace_file with
      | None -> true
      | Some path -> (
        try
          let oc = open_out path in
          Obs.Trace.write_jsonl (Net.Cluster.trace cluster) oc;
          close_out oc;
          Printf.eprintf "mcc grid: trace written to %s (%d events)\n" path
            (Obs.Trace.length (Net.Cluster.trace cluster));
          true
        with Sys_error m ->
          Printf.eprintf "mcc grid: cannot write trace: %s\n" m;
          false)
    in
    if serve_bench then begin
      let scfg =
        { Mcc.Serve.clients; services;
          requests_per_client = requests; work_us; skew; speculative }
      in
      match
        create_cluster
          { Net.Cluster.Config.default with
            node_count = max ranks 2;
            seed = (match seed with Some s -> s | None -> 1);
            net = Some (Net.Simnet.create ~latency_us:5.0 ());
            faults = plan;
            delta;
            balance }
      with
      | Error code -> code
      | Ok cluster ->
      let placement = if pack > 0 then `Pack pack else `Spread in
      let d = Mcc.Serve.deploy ~placement cluster scfg in
      let r =
        Mcc.Serve.run ~migrate_every_s:migrate_every ~migrations d
      in
      let exact = Mcc.Serve.exactly_once d r in
      Printf.printf "served %d requests (%d clients x %d) at %d services\n"
        r.Mcc.Serve.rp_requests clients requests services;
      Printf.printf
        "latency: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, mean %.3f ms\n"
        r.rp_p50_ms r.rp_p90_ms r.rp_p99_ms r.rp_mean_ms;
      Printf.printf
        "registry: %d migrations, %d forwarded, %d rebinds, %d expired \
         sends\n"
        r.rp_migrations r.rp_forwarded r.rp_rebinds r.rp_expired;
      (* every landed move, the balance engine's included *)
      (let m = Net.Cluster.metrics cluster in
       Printf.printf "code cache: %d of %d landed migrations hit\n"
         (Obs.Metrics.counter_value m "cluster.migration_cache_hits")
         (Obs.Metrics.counter_value m "cluster.migrations_ok"));
      (if balance then
         let m = Net.Cluster.metrics cluster in
         Printf.printf
           "balance: %d ticks, %d proposals, %d moves, final spread \
            %.6f, last move at %.4f s\n"
           (Obs.Metrics.counter_value m "balance.ticks")
           (Obs.Metrics.counter_value m "balance.proposals")
           (Obs.Metrics.counter_value m "balance.moves")
           (Obs.Metrics.gauge_read m "balance.spread")
           (Obs.Metrics.gauge_read m "balance.last_move_s"));
      (if speculative then
         let m = Net.Cluster.metrics cluster in
         Printf.printf
           "dspec: %d opened, %d prepares, %d commits, %d aborts, %d \
            fence rejections, %d messages compensated\n"
           (Obs.Metrics.counter_value m "dspec.opened")
           (Obs.Metrics.counter_value m "dspec.prepares")
           (Obs.Metrics.counter_value m "dspec.commits")
           (Obs.Metrics.counter_value m "dspec.aborts")
           (Obs.Metrics.counter_value m "dspec.fence_rejections")
           (Obs.Metrics.counter_value m "dspec.compensated"));
      Printf.printf "simulated time: %.4f s\n" (Net.Cluster.now cluster);
      Printf.printf "exactly-once: %s\n" (if exact then "yes" else "NO");
      let trace_ok = write_trace cluster in
      if not trace_ok then 1 else if exact then 0 else 3
    end
    else begin
    let golden = Mcc.Gridapp.golden_checksums config in
    let faulty = not (Net.Faults.is_none plan) in
    let detector =
      match (hb_interval, suspect_timeout) with
      | None, None -> None
      | hi, st ->
        let hb =
          match hi with
          | Some s -> s
          | None -> Net.Detector.default.Net.Detector.hb_interval_s
        in
        let timeout = match st with Some s -> s | None -> 5.0 *. hb in
        Some
          { Net.Detector.hb_interval_s = hb; suspect_timeout_s = timeout }
    in
    (* faults that can kill a node need somewhere to resurrect to *)
    let nodes = if fail || faulty then ranks + 1 else ranks in
    match
      create_cluster
        { Net.Cluster.Config.default with
          node_count = nodes;
          seed = (match seed with Some s -> s | None -> 1);
          net = Some (Net.Simnet.create ~latency_us:5.0 ());
          faults = plan;
          delta;
          detector;
          replication }
    with
    | Error code -> code
    | Ok cluster ->
    let d = Mcc.Gridapp.deploy ~spare:(fail || faulty) cluster config in
    if fail then begin
      let victims =
        Mcc.Gridapp.fail_and_recover ~rounds_before_failure:20 d
          ~victim_node:(1 mod nodes) ~spare_node:(nodes - 1)
      in
      Printf.printf "killed node1 (ranks %s), recovered from checkpoints\n"
        (String.concat "," (List.map string_of_int victims))
    end;
    let _ =
      if faulty then Mcc.Gridapp.run_resilient d else Mcc.Gridapp.run d
    in
    let sums = Mcc.Gridapp.checksums d in
    let ok = ref true in
    Array.iteri
      (fun r s ->
        let g = golden.(r) in
        let shown, matches =
          match s with
          | Some n -> string_of_int n, n = g
          | None -> "?", false
        in
        if not matches then ok := false;
        Printf.printf "rank %d: %s (golden %d)%s\n" r shown g
          (if matches then "" else "  <-- MISMATCH"))
      sums;
    Printf.printf "simulated time: %.4f s\n" (Net.Cluster.now cluster);
    (let m = Net.Cluster.metrics cluster in
     let full_b = Obs.Metrics.counter_value m "migrate.bytes_full"
     and delta_b = Obs.Metrics.counter_value m "migrate.bytes_delta" in
     if delta && full_b + delta_b > 0 then
       Printf.printf
         "delta shipping: %d full B, %d delta B, hit rate %.2f\n" full_b
         delta_b
         (Obs.Metrics.gauge_read m "migrate.delta_hit_rate"));
    if faulty then begin
      let m = Net.Cluster.metrics cluster in
      Printf.printf
        "faults: %d msg retransmits, %d msg dups, %d hops lost, %d \
         migrate retries, %d stalls, %d crashes\n"
        (Obs.Metrics.counter_value m "faults.retransmits")
        (Obs.Metrics.counter_value m "faults.msg_dup")
        (Obs.Metrics.counter_value m "faults.hop_lost")
        (Obs.Metrics.counter_value m "migrate.retries")
        (Obs.Metrics.counter_value m "faults.stalls")
        (Obs.Metrics.counter_value m "faults.crashes")
    end;
    (let m = Net.Cluster.metrics cluster in
     if Net.Cluster.detection_enabled cluster then
       Printf.printf
         "detector: %d heartbeats, %d suspicions (%d false), %d fence \
          rejections, %d resurrections\n"
         (Obs.Metrics.counter_value m "detector.heartbeats")
         (Obs.Metrics.counter_value m "detector.suspicions")
         (Obs.Metrics.counter_value m "detector.false_suspicions")
         (Obs.Metrics.counter_value m "fence.rejections")
         (Obs.Metrics.counter_value m "cluster.resurrections");
     if replication > 0 then
       Printf.printf
         "storage: k=%d, %d read-repairs, %d corrupt reads, %d lost / %d \
          torn / %d flipped replica writes\n"
         (Net.Storage.replication (Net.Cluster.storage cluster))
         (Obs.Metrics.counter_value m "storage.repairs")
         (Obs.Metrics.counter_value m "storage.corrupt_reads")
         (Obs.Metrics.counter_value m "faults.store_lost")
         (Obs.Metrics.counter_value m "faults.store_torn")
         (Obs.Metrics.counter_value m "faults.store_flip"));
    let trace_ok = write_trace cluster in
    if not trace_ok then 1 else if !ok then 0 else 3
    end
  in
  Cmd.v
    (Cmd.info "grid" ~doc:"Run the Figure 2 grid computation on the \
                           simulated cluster.")
    Term.(
      const action $ ranks $ rows $ cols $ steps $ interval $ fail
      $ trace_arg $ fault_plan_arg $ seed_arg $ delta_arg $ hb_interval_arg
      $ suspect_timeout_arg $ replication_arg $ serve_bench_arg $ clients_arg
      $ services_arg $ requests_arg $ work_us_arg $ migrations_arg
      $ migrate_every_arg $ skew_arg $ speculative_arg $ pack_arg
      $ balance_arg)

let () =
  let info =
    Cmd.info "mcc" ~version:Mcc.Api.version
      ~doc:"The Mojave Compiler Collection (reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ compile_cmd; masm_cmd; run_cmd; resume_cmd; serve_cmd; grid_cmd ]))
