(* The grid and fault family: F2 (Figure 2's recovery cost), F2b (the
   checkpoint-interval trade-off), F3 (fault classes and the resilient
   hop protocol) and F4 (heartbeat detection, fencing and replicated
   checkpoints).  Every run is checked against the golden model. *)

open Bench
open Kit

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

(* Run to completion — with [fail], node 1 fails when roughly 60 % of
   the computation is done and its ranks recover from their checkpoints
   onto spare node 4 — and check the golden model.  Returns the lost
   ranks, the failure time, the end time and the cluster. *)
let grid_run ~fail interval =
  let cluster = Kit.cluster () in
  let config = grid_config interval in
  let d = Mcc.Gridapp.deploy ~spare:true cluster config in
  let victims =
    if fail then
      Mcc.Gridapp.fail_and_recover ~rounds_before_failure:20
        ~after_time:(0.6 *. float_of_int config.timesteps
                     *. float_of_int config.work_us_per_step *. 1e-6)
        d ~victim_node:1 ~spare_node:4
    else []
  in
  let t_fail = Net.Cluster.now cluster in
  let _ = Mcc.Gridapp.run d in
  let completed, wrong = golden_ranks d config in
  if completed <> config.ranks then
    failwith
      (Printf.sprintf
         "bench: grid run diverged from golden: %d rank(s) wedged, %d \
          finished with a wrong checksum"
         (config.ranks - completed - wrong) wrong);
  victims, t_fail, Net.Cluster.now cluster, cluster

(* simulated seconds of a fault-free run *)
let grid_clean interval =
  let _, _, t, _ = grid_run ~fail:false interval in
  t

(* The 120-step grid (checkpoints every 10 steps) under [faults], run
   resiliently.  Returns the cluster, how many ranks finished golden,
   whether any finished with wrong data, and each rank's terminated
   copies. *)
let grid_resilient ?nodes ?(spare = true) ?tweak ~seed faults =
  let faults =
    match Net.Faults.validate faults with
    | Ok p -> p
    | Error e -> failwith ("bench: bad fault plan: " ^ e)
  in
  let config = grid_config 10 in
  let cluster = Kit.cluster ?nodes ~seed ~faults ?tweak () in
  let d = Mcc.Gridapp.deploy ~spare cluster config in
  let _ = Mcc.Gridapp.run_resilient d in
  let completed, wrong = golden_ranks d config in
  cluster, completed, wrong > 0, rank_copies cluster config.ranks

let f2 () =
  section "F2: Figure 2 — recovery cost: checkpoint+rollback vs restart";
  let interval = 10 in
  let t_plain = grid_clean 0 in
  let t_ckpt = grid_clean interval in
  let victims, t_fail, t_recover, cluster = grid_run ~fail:true interval in
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
        let _, _, faulty, _ = grid_run ~fail:true interval in
        Printf.printf "  %-10d %-14.4f %-16.4f\n" interval clean faulty;
        interval, (clean, faulty))
      [ 2; 5; 10; 20; 30 ]
  in
  print_newline ();
  let clean_of i = fst (List.assoc i rows) in
  let faulty_of i = snd (List.assoc i rows) in
  verdict "no-fault cost decreases with longer intervals"
    (clean_of 2 > clean_of 30);
  (* with failures the total should not be monotone: tiny intervals pay
     checkpoint overhead, huge intervals pay recovery re-execution *)
  verdict "failure runs cost more than their no-fault counterparts"
    (List.for_all (fun (_, (c, f)) -> f > c) rows);
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
  Printf.printf "  %-11s %-9s %-11s %-8s %-8s %-12s %s\n" "class"
    "time(s)" "retransmit" "dup" "retries" "backoff(ms)" "crashes";
  let rows = ref [] and all_ok = ref true in
  List.iter
    (fun (name, plan) ->
      let cluster, completed, _, copies = grid_resilient ~seed:7 plan in
      let done_ok = completed = config.ranks in
      (* no duplicated ranks: exactly one terminated copy of each *)
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
     fault class, reporting the per-hop retry/backoff decisions.  Node 1
     lacks the worker's code, so each move ships the FIR, compiles it
     ahead and then cuts over (the worker's charged work outlasts the
     compile); the report covers both hops *)
  Printf.printf "\n  migration hop protocol (single process, node 0 -> 1):\n";
  Printf.printf "  %-14s %-9s %-8s %-12s %s\n" "class" "attempts"
    "retries" "backoff(ms)" "outcome";
  let worker =
    Minic.Driver.compile_exn
        {|
int main() {
  int acc = 0;
  int i;
  int round;
  for (round = 0; round < 400; round = round + 1) {
    for (i = 0; i < 50; i = i + 1) acc = (acc + i * 7) % 1000000;
    work_us(1000);
  }
  return acc;
}
|}
  in
  let retried = ref false and degraded = ref false in
  let print_report name (rep : Net.Cluster.migration_report) =
    if rep.Net.Cluster.rep_retries > 0 then retried := true;
    Printf.printf "  %-14s %-9d %-8d %-12.3f migrated\n" name
      rep.Net.Cluster.rep_attempts rep.Net.Cluster.rep_retries
      (1e3 *. rep.Net.Cluster.rep_backoff_s)
  in
  List.iter
    (fun (name, plan) ->
      let cluster =
        Kit.cluster ~nodes:2 ~seed:7
          ~faults:{ plan with Net.Faults.f_seed = 7 } ()
      in
      let pid = Net.Cluster.spawn cluster ~node_id:0 worker in
      let _ = Net.Cluster.run cluster ~max_rounds:25 in
      (match
         Net.Cluster.move cluster
           (Net.Cluster.Move.request ~reason:Net.Cluster.Move.Explicit
              (Net.Cluster.Move.Running pid) ~dest:1)
       with
      | Ok { Net.Cluster.Move.mv_report = Some rep; _ } -> print_report name rep
      | Ok { Net.Cluster.Move.mv_cutover = Some ticket; _ } -> (
        let pending () =
          match Net.Cluster.Move.cutover ticket with
          | Net.Cluster.Compiling _ -> true
          | Net.Cluster.Landed _ | Net.Cluster.Abandoned _ -> false
        in
        ignore (Net.Cluster.run cluster ~stop:(fun () -> not (pending ())));
        match Net.Cluster.Move.cutover ticket with
        | Net.Cluster.Landed rep -> print_report name rep
        | Net.Cluster.Abandoned e ->
          Printf.printf "  %-14s %-9s %-8s %-12s cut-over abandoned: %s\n" name
            "-" "-" "-" (Net.Cluster.migration_error_to_string e)
        | Net.Cluster.Compiling _ ->
          Printf.printf "  %-14s %-9s %-8s %-12s no cut-over\n" name "-" "-"
            "-")
      | Ok { Net.Cluster.Move.mv_report = None; mv_cutover = None; _ } ->
        Printf.printf "  %-14s %-9s %-8s %-12s no report\n" name "-" "-" "-"
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
  { Net.Detector.hb_interval_s = 0.0005; suspect_timeout_s = 0.002 }

(* heartbeat detection and k=2 replicated checkpoint storage *)
let f4_store c =
  { c with Net.Cluster.Config.detector = Some f4_detector; replication = 2 }

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

(* A resilient run's outcome.  A wedge is typed when the run's trace
   shows the resurrection that failed; any other wedge is untyped. *)
let outcome cluster ~completed ~wrong ~ranks =
  let typed =
    List.exists
      (fun (e : Obs.Trace.event) ->
        match e.Obs.Trace.kind with
        | Obs.Trace.Resurrect { ok = false; _ } -> true
        | _ -> false)
      (Obs.Trace.events (Net.Cluster.trace cluster))
  in
  if wrong then "WRONG DATA"
  else if completed = ranks then "golden"
  else if typed then "wedged (typed)"
  else "wedged (untyped)"

let f4 () =
  section "F4: failure detection by heartbeat, epoch-fenced \
           resurrection, replicated checkpoints (k=2)";
  let ranks = (grid_config 10).ranks in
  Printf.printf "  %-14s %-8s %-7s %-12s %-7s %-8s %-10s %s\n" "class"
    "time(s)" "avail" "suspect(F)" "fenced" "repairs" "suspect@(s)"
    "resurrect@(s)";
  let all_ok = ref true
  and false_fenced = ref false
  and detection_first = ref true in
  List.iter
    (fun (name, plan, nodes, spare) ->
      let cluster, completed, wrong, copies =
        grid_resilient ~nodes ~spare ~tweak:f4_store ~seed:7 plan
      in
      let single = Array.for_all (fun n -> n <= 1) copies in
      let full = completed = ranks in
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
        name (Net.Cluster.now cluster) completed ranks
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
  and typed_only = ref true in
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
      let cluster, completed, wrong, _ =
        grid_resilient ~tweak:f4_store ~seed plan
      in
      let outcome = outcome cluster ~completed ~wrong ~ranks in
      (* an untyped wedge counts against the verdict *)
      if wrong || outcome = "wedged (untyped)" then typed_only := false;
      if completed = ranks then any_full := true;
      let m = Net.Cluster.metrics cluster in
      let c n = Obs.Metrics.counter_value m n in
      let bad =
        c "faults.store_lost" + c "faults.store_torn" + c "faults.store_flip"
      in
      if bad > 0 then any_storage_fault := true;
      Printf.printf "  %-7d %-8.4f %d/%-5d %-9d %-9d %-9d %s\n" seed
        (Net.Cluster.now cluster) completed ranks bad
        (c "storage.repairs")
        (c "storage.corrupt_reads")
        outcome)
    [ 3; 7; 11; 20260807 ];
  print_newline ();
  verdict "replica writes were actually damaged by the seeded faults"
    !any_storage_fault;
  verdict "no seed ever produced wrong data (golden or typed wedge only)"
    !typed_only;
  verdict "at least one seed rode out crash + storage faults to golden"
    !any_full

(* F4s: F4's crash+flip class over cluster seeds 1-20, one line per
   seed; the only verdict is that none finishes with a wrong checksum.
   Wedges are recorded, not gated: each is a double flip of one chain
   segment, which only verifying checkpoints can remove (ROADMAP 7). *)
let f4s () =
  section "F4s: crash+flip (k=2) over cluster seeds 1-20";
  let ranks = (grid_config 10).ranks in
  let _, plan, nodes, spare =
    List.find (fun (name, _, _, _) -> name = "crash+flip") f4_classes
  in
  Printf.printf "  %-5s %-8s %-7s %-6s %-8s %s\n" "seed" "time(s)" "avail"
    "flips" "repairs" "outcome";
  let outcomes =
    List.init 20 (fun i ->
        let seed = i + 1 in
        let cluster, completed, wrong, _ =
          grid_resilient ~nodes ~spare ~tweak:f4_store ~seed plan
        in
        let outcome = outcome cluster ~completed ~wrong ~ranks in
        let c n = Obs.Metrics.counter_value (Net.Cluster.metrics cluster) n in
        Printf.printf "  %-5d %-8.4f %d/%-5d %-6d %-8d %s\n" seed
          (Net.Cluster.now cluster) completed ranks (c "faults.store_flip")
          (c "storage.repairs") outcome;
        outcome)
  in
  let count o = List.length (List.filter (( = ) o) outcomes) in
  Printf.printf "\n  golden %d, wedged (typed) %d, wedged (untyped) %d, \
                 wrong %d of 20\n\n"
    (count "golden") (count "wedged (typed)") (count "wedged (untyped)")
    (count "WRONG DATA");
  verdict "no seed finished with a wrong checksum" (count "WRONG DATA" = 0)
