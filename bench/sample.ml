(* A sampling profiler for the cluster workloads:

     dune exec bench/main.exe -- sample serve|serve-spec|grid [--seconds S]

   runs the workload's shape (the perfbench workloads of the same name,
   driven here through the [Gridapp] and [Serve] APIs) batch
   after batch for S seconds of host time (default 5), with an
   ITIMER_PROF timer that records the OCaml call stack every
   millisecond of CPU time, or at the kernel's coarser tick (4 ms at
   HZ=250).  It prints where the samples landed: the
   top self frames (the innermost frame of each sample), the
   self-plus-callers chains, and the inclusive frames (each frame
   counted once per sample it appears in).  It also prints the
   emulated blocks (emulator steps) per batch and per scheduler
   quantum.  Exits 1 if a batch served a wrong result.

   OCaml 5 runs a signal handler at the next poll point (an allocation
   or a loop back edge), not where the signal arrived.  Time spent in a
   closure that neither allocates nor loops is charged to whichever
   frame polls next, typically the emulator's dispatch loop: grid reads
   [Emulator.exec_compiled] as about half its self time for that
   reason. *)

module Serve = Mcc.Serve
module Wl_serve = Perfbench.Wl_serve
module Wl_grid = Perfbench.Wl_grid

(* ------------------------------------------------------------------ *)
(* The workloads                                                       *)
(* ------------------------------------------------------------------ *)

(* The shapes come from perfbench itself, so the sampler cannot drift
   from the benchmark; its [batch] is not called, because [Clock]'s
   reference computation around each region would show in the samples.
   A batch returns its verdict and the cluster it ran on. *)
let serve ~speculative ~seed =
  let d =
    Serve.deploy (Wl_serve.cluster seed) (Wl_serve.config ~speculative)
  in
  ( Wl_serve.check ~speculative d
      (Serve.run ~migrate_every_s:Wl_serve.migrate_every_s
         ~migrations:Wl_serve.migrations d),
    d.Serve.sv_cluster )

let grid ~seed =
  let d = Mcc.Gridapp.deploy (Wl_grid.cluster seed) Wl_grid.config in
  ignore (Mcc.Gridapp.run d);
  ( Mcc.Gridapp.checksums d
    = Array.map Option.some (Lazy.force Wl_grid.golden),
    d.Mcc.Gridapp.d_cluster )

let workloads =
  [ "serve", serve ~speculative:false;
    "serve-spec", serve ~speculative:true;
    "grid", grid ]

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

let interval_s = 0.001

(* A frame's label: its function name as the compiler records it
   ([Net__Scheduler.round]), or its source position when unnamed. *)
let label slot =
  match Printexc.Slot.name slot, Printexc.Slot.location slot with
  | Some name, _ -> name
  | None, Some loc ->
    Printf.sprintf "%s:%d" loc.Printexc.filename loc.line_number
  | None, None -> "?"

let handler_frame = "Dune__exe__Sample.main.(fun)"

(* The sampled stack, innermost first, without the handler's frame. *)
let frames_of stack =
  match Printexc.backtrace_slots stack with
  | None -> []
  | Some slots -> (
    match Array.to_list (Array.map label slots) with
    | l :: rest when l = handler_frame -> rest
    | labels -> labels)

let count tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let print_top title tbl ~total ~top =
  Printf.printf "\n%s\n" title;
  Hashtbl.fold (fun k n acc -> (n, k) :: acc) tbl []
  |> List.sort (fun (a, ka) (b, kb) -> compare (b, ka) (a, kb))
  |> List.iteri (fun i (n, k) ->
         if i < top then
           Printf.printf "  %5.1f%%  %6d  %s\n"
             (100.0 *. float_of_int n /. float_of_int total)
             n k)

let report stacks ~cpu_s =
  let self = Hashtbl.create 64
  and chains = Hashtbl.create 64
  and inclusive = Hashtbl.create 64 in
  let total = ref 0 in
  List.iter
    (fun stack ->
      match frames_of stack with
      | [] -> ()
      | leaf :: callers as frames ->
        incr total;
        count self leaf;
        count chains
          (String.concat " <- "
             (leaf :: List.filteri (fun i _ -> i < 2) callers));
        List.iter (count inclusive) (List.sort_uniq compare frames))
    stacks;
  let total = max 1 !total in
  (* the kernel delivers the timer at its own tick, which may be
     coarser than the interval asked for *)
  Printf.printf
    "%d samples over %.1f s of CPU time (one per %.1f ms; %.0f ms asked)\n"
    total cpu_s
    (1e3 *. cpu_s /. float_of_int total)
    (interval_s *. 1e3);
  print_top "top self frames" self ~total ~top:20;
  print_top "self frame <- two callers" chains ~total ~top:15;
  print_top "inclusive frames (once per sample)" inclusive ~total ~top:30

let usage () =
  prerr_endline "usage: main.exe sample serve|serve-spec|grid [--seconds S]";
  exit 2

let main args =
  let name, seconds =
    match args with
    | [ name ] -> name, 5.0
    | [ name; "--seconds"; s ] -> (
      match float_of_string_opt s with
      | Some s when s > 0.0 && Float.is_finite s -> name, s
      | _ -> usage ())
    | _ -> usage ()
  in
  let batch = match List.assoc_opt name workloads with
    | Some w -> w
    | None -> usage ()
  in
  Printf.printf "sample %s: batches for %.1f s of host time\n" name seconds;
  print_endline
    "OCaml 5 runs the sampling handler at poll points (allocations and \
     loop back edges):\ntime in a closure that neither allocates nor \
     loops lands on the frame that polls next,\ntypically the \
     emulator's dispatch loop.";
  let stacks = ref [] in
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle
       (fun _ -> stacks := Printexc.get_callstack 64 :: !stacks));
  let timer it = ignore (Unix.setitimer Unix.ITIMER_PROF it) in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let t0 = Unix.gettimeofday () and cpu0 = cpu () in
  let batches = ref 0 and wrong = ref 0 in
  let blocks = ref 0 and quanta = ref 0 in
  timer { Unix.it_interval = interval_s; it_value = interval_s };
  while Unix.gettimeofday () -. t0 < seconds do
    (* batch k runs at seed 1000 + k, as perfbench's batches at seed 1 *)
    let ok, cluster = batch ~seed:(1_000 + !batches) in
    if not ok then incr wrong;
    blocks := !blocks + Net.Cluster.sched_blocks cluster;
    quanta :=
      !quanta
      + Obs.Metrics.counter_value (Net.Cluster.metrics cluster)
          "sched.quanta";
    incr batches
  done;
  timer { Unix.it_interval = 0.0; it_value = 0.0 };
  let cpu_s = cpu () -. cpu0 in
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  Printf.printf "%d batches, %d wrong\n" !batches !wrong;
  (* emulated work: host time per block is what the emulator tiers
     decide, blocks per quantum what the workload does *)
  Printf.printf "emulated blocks: %.0f per batch, %.2f per quantum\n"
    (float_of_int !blocks /. float_of_int (max 1 !batches))
    (float_of_int !blocks /. float_of_int (max 1 !quanta));
  report !stacks ~cpu_s;
  if !wrong > 0 then exit 1
