(* Tests for the MCC facade and the Figure 2 grid application. *)

open Kit

(* ------------------------------------------------------------------ *)
(* Api                                                                 *)
(* ------------------------------------------------------------------ *)

let test_api_compile_run () =
  let fir =
    match Mcc.Api.compile_c "int main() { return 6 * 7; }" with
    | Ok fir -> fir
    | Error m -> Alcotest.failf "compile_c: %s" m
  in
  let out = Mcc.Api.run fir in
  check "reference backend" true (Mcc.Api.exit_code out = Ok 42);
  let out = Mcc.Api.run ~backend:Mcc.Api.Native fir in
  check "native backend" true (Mcc.Api.exit_code out = Ok 42);
  match Mcc.Api.compile_ml "let main = 40 + 2" with
  | Error m -> Alcotest.failf "compile_ml: %s" m
  | Ok fir ->
    check "ml program" true (Mcc.Api.exit_code (Mcc.Api.run fir) = Ok 42)

(* rand's bound may exceed the host RNG's 2^30 limit for [int]: the draw
   stays in range on both backends instead of raising out of the
   engine. *)
let test_api_rand_large_bound () =
  let bound = 1099511627776 in
  let fir =
    Mcc.Api.compile_exn
      (Mcc.Api.C (Printf.sprintf "int main() { return rand(%d); }" bound))
  in
  List.iter
    (fun backend ->
      match Mcc.Api.exit_code (Mcc.Api.run ~backend fir) with
      | Ok r -> check "draw in range" true (r >= 0 && r < bound)
      | Error m -> Alcotest.failf "rand(%d): %s" bound m)
    [ Mcc.Api.Reference; Mcc.Api.Native ]

let test_api_errors () =
  (match Mcc.Api.compile_c "int main() { return x; }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad C accepted");
  (match Mcc.Api.compile_ml "let main = 1 + true" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad ML accepted");
  let fir = Mcc.Api.compile_exn (Mcc.Api.C "int main() { return 1 / 0; }") in
  match Mcc.Api.exit_code (Mcc.Api.run fir) with
  | Error m -> check "trap reported" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "division by zero exited normally"

let test_api_checkpoint_resume () =
  let fir =
    Mcc.Api.compile_exn
      (Mcc.Api.C
         {|
int main() {
  int *a = alloc_int(10);
  int i;
  for (i = 0; i < 10; i = i + 1) a[i] = i + 1;
  migrate("checkpoint://self");
  int acc = 0;
  for (i = 0; i < 10; i = i + 1) acc = acc + a[i];
  return acc;
}
|})
  in
  let proc = Vm.Process.create fir in
  (match Vm.Interp.run proc with
  | Vm.Process.Migrating _ -> ()
  | _ -> Alcotest.fail "expected checkpoint request");
  let bytes = Mcc.Api.image_bytes proc in
  (* the image resumes to completion *)
  (match Mcc.Api.resume_and_run bytes with
  | Ok out -> check "resumed image completes" true (Mcc.Api.exit_code out = Ok 55)
  | Error m -> Alcotest.failf "resume failed: %s" m);
  (* the original can also continue (checkpoint semantics) *)
  Vm.Process.migration_failed proc;
  match Vm.Interp.run proc with
  | Vm.Process.Exited 55 -> ()
  | _ -> Alcotest.fail "original did not continue"

(* ------------------------------------------------------------------ *)
(* Grid application                                                    *)
(* ------------------------------------------------------------------ *)

let quick_config =
  { Mcc.Gridapp.ranks = 3; rows_per_rank = 4; cols = 8; timesteps = 12;
    interval = 4; work_us_per_step = 0 }

let fast_net () = Net.Simnet.create ~latency_us:5.0 ()

let all_checksums d config =
  Array.to_list (Mcc.Gridapp.checksums d)
  |> List.map (function
       | Some n -> n
       | None -> Alcotest.failf "a rank did not exit (%d ranks)" config.Mcc.Gridapp.ranks)

let test_grid_sources_compile () =
  (* every generated rank compiles and typechecks strictly against the
     cluster externs *)
  List.iter
    (fun r ->
      let fir = Mcc.Gridapp.compile_rank quick_config r in
      check "strict typecheck" true
        (Fir.Typecheck.well_typed ~strict:true
           ~externs:Net.Cluster.extern_signatures fir))
    [ 0; 1; 2 ]

let test_grid_matches_golden () =
  let golden = Array.to_list (Mcc.Gridapp.golden_checksums quick_config) in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 3; net = Some (fast_net ()) } in
  let d = Mcc.Gridapp.deploy cluster quick_config in
  let _ = Mcc.Gridapp.run d in
  Alcotest.(check (list int))
    "distributed = sequential golden model" golden
    (all_checksums d quick_config)

let test_grid_no_checkpoint_matches () =
  let config = { quick_config with Mcc.Gridapp.interval = 0 } in
  let golden = Array.to_list (Mcc.Gridapp.golden_checksums config) in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 3; net = Some (fast_net ()) } in
  let d = Mcc.Gridapp.deploy cluster config in
  let _ = Mcc.Gridapp.run d in
  Alcotest.(check (list int)) "baseline (no checkpoints) matches" golden
    (all_checksums d config)

let test_grid_single_rank () =
  let config =
    { Mcc.Gridapp.ranks = 1; rows_per_rank = 6; cols = 10; timesteps = 8;
      interval = 3; work_us_per_step = 0 }
  in
  let golden = Array.to_list (Mcc.Gridapp.golden_checksums config) in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 1; net = Some (fast_net ()) } in
  let d = Mcc.Gridapp.deploy cluster config in
  let _ = Mcc.Gridapp.run d in
  Alcotest.(check (list int)) "single rank" golden (all_checksums d config)

let test_grid_checkpoints_written () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 3; net = Some (fast_net ()) } in
  let d = Mcc.Gridapp.deploy cluster quick_config in
  let _ = Mcc.Gridapp.run d in
  let storage = Net.Cluster.storage cluster in
  List.iter
    (fun r ->
      check
        (Printf.sprintf "checkpoint for rank %d exists" r)
        true
        (Net.Storage.exists storage (Mcc.Gridapp.checkpoint_path r)))
    [ 0; 1; 2 ]

let failure_config =
  { Mcc.Gridapp.ranks = 3; rows_per_rank = 4; cols = 8; timesteps = 60;
    interval = 10; work_us_per_step = 200 }

(* Recovery at a checkpoint interval (F2b once wedged on MASM at 2 and
   5).  Every survivor rolls back; [cascade]: the cluster also forces a
   rollback (at interval 2 the node dies after the survivors' dependence
   on its open level committed). *)
let test_grid_recovers_from_failure (interval, cascade) () =
  let config = { failure_config with Mcc.Gridapp.interval } in
  let golden = Array.to_list (Mcc.Gridapp.golden_checksums config) in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 4; net = Some (fast_net ()) } in
  let d = Mcc.Gridapp.deploy ~spare:true cluster config in
  let victims =
    Mcc.Gridapp.fail_and_recover ~rounds_before_failure:10 d ~victim_node:1
      ~spare_node:3
  in
  check "a rank was killed" true (victims <> []);
  let _ = Mcc.Gridapp.run d in
  Alcotest.(check (list int))
    "post-recovery result matches the golden model" golden
    (all_checksums d config);
  (* the recovery machinery actually fired *)
  let has ?pid p =
    List.exists
      (fun e -> Option.fold ~none:true ~some:(( = ) e.Obs.Trace.pid) pid
                && p e.Obs.Trace.kind)
      (Obs.Trace.timeline (Net.Cluster.trace cluster))
  in
  check "node failure logged" true
    (has (function Obs.Trace.Node_fail -> true | _ -> false));
  check "resurrection logged" true
    (has (function Obs.Trace.Resurrect { ok; _ } -> ok | _ -> false));
  Array.iteri
    (fun r pid ->
      if not (List.mem r victims) then
        check (Printf.sprintf "survivor %d rolled back" r) true
          (has ~pid (function Obs.Trace.Spec_rollback _ -> true | _ -> false)))
    d.Mcc.Gridapp.d_pids;
  check "the cluster forced the survivors' rollback" cascade
    (has (function
      | Obs.Trace.Forced_rollback { level } -> level >= 0
      | _ -> false))

let test_grid_failure_without_checkpoints_is_fatal () =
  (* without the primitives there is no recovery: the survivors see
     MSG_ROLL and give up (Figure 2's motivation) *)
  let config = { failure_config with Mcc.Gridapp.interval = 0 } in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 4; net = Some (fast_net ()) } in
  let d = Mcc.Gridapp.deploy ~spare:true cluster config in
  (* let it start, then kill a node *)
  let _ = Net.Cluster.run cluster ~max_rounds:30 in
  Net.Cluster.fail_node cluster 1;
  let _ = Mcc.Gridapp.run ~max_rounds:200_000 d in
  let failed_ranks =
    List.length
      (List.filter
         (fun r ->
           match Mcc.Gridapp.rank_status d r with
           | Vm.Process.Exited n -> n < 0 (* the app's fatal-error exit *)
           | Vm.Process.Trapped _ -> true
           | _ -> false)
         [ 0; 1; 2 ])
  in
  check "at least the victim is lost" true (failed_ranks >= 1)

let test_grid_double_failure interval () =
  (* two successive failures with recovery in between: longevity in a
     faulty environment (the paper's stated goal); run at the default
     checkpoint interval and at 5, one of F2b's intervals *)
  let config =
    { Mcc.Gridapp.ranks = 2; rows_per_rank = 4; cols = 8; timesteps = 80;
      interval; work_us_per_step = 200 }
  in
  let golden = Array.to_list (Mcc.Gridapp.golden_checksums config) in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 4; net = Some (fast_net ()) } in
  let d = Mcc.Gridapp.deploy ~spare:true cluster config in
  let v1 =
    Mcc.Gridapp.fail_and_recover ~rounds_before_failure:10 d ~victim_node:0
      ~spare_node:3
  in
  check "first victim" true (v1 <> []);
  let v2 =
    Mcc.Gridapp.fail_and_recover ~rounds_before_failure:10 d ~victim_node:1
      ~spare_node:2
  in
  ignore v2;
  let _ = Mcc.Gridapp.run d in
  Alcotest.(check (list int))
    "correct after two failures" golden (all_checksums d config)

let suites =
  [
    ( "mcc.api",
      [
        Alcotest.test_case "compile and run" `Quick test_api_compile_run;
        Alcotest.test_case "errors surface" `Quick test_api_errors;
        Alcotest.test_case "rand takes bounds past 2^30" `Quick
          test_api_rand_large_bound;
        Alcotest.test_case "checkpoint and resume" `Quick
          test_api_checkpoint_resume;
      ] );
    ( "mcc.grid",
      [
        Alcotest.test_case "generated sources verify" `Quick
          test_grid_sources_compile;
        Alcotest.test_case "distributed = golden model" `Quick
          test_grid_matches_golden;
        Alcotest.test_case "baseline without checkpoints" `Quick
          test_grid_no_checkpoint_matches;
        Alcotest.test_case "single rank" `Quick test_grid_single_rank;
        Alcotest.test_case "checkpoints written" `Quick
          test_grid_checkpoints_written;
      ]
      @ List.map
          (fun ((interval, _) as case) ->
            Alcotest.test_case
              (Printf.sprintf "recovery from node failure, interval %d"
                 interval)
              `Quick
              (test_grid_recovers_from_failure case))
          [ failure_config.interval, true; 2, false; 5, true ]
      @ [
          Alcotest.test_case "failure without checkpoints is fatal" `Quick
            test_grid_failure_without_checkpoints_is_fatal;
          Alcotest.test_case "survives two failures" `Quick
            (test_grid_double_failure 10);
          Alcotest.test_case "survives two failures, interval 5" `Quick
            (test_grid_double_failure 5);
        ] );
  ]
