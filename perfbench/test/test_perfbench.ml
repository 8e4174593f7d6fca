(* Tests for the benchmark's own code: the order statistics, the result
   line, and a short run of every workload with one check broken on
   purpose, so the failure path is exercised. *)

open Perfbench

let floats = List.map float_of_int

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 3.0 (Stats.median (floats [ 5; 1; 3 ]));
  Alcotest.(check (float 0.0)) "even" 2.5 (Stats.median (floats [ 4; 1; 3; 2 ]));
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median []))

let test_percentile () =
  let xs = floats (List.init 100 (fun i -> 100 - i)) in
  Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 (Stats.percentile ~p:90.0 xs);
  Alcotest.(check (float 0.0)) "p100 is the max" 100.0
    (Stats.percentile ~p:100.0 xs);
  Alcotest.(check (float 0.0)) "tiny p is the min" 1.0 (Stats.percentile ~p:0.1 xs)

(* A tail percentile needs ten samples beyond it: p90 first resolves at
   100 samples, p99 at 1000. *)
let test_ten_beyond () =
  let n k = floats (List.init k Fun.id) in
  Alcotest.(check (option (float 0.0))) "p90 of 99 unresolved" None
    (Stats.percentile_resolved ~p:90.0 (n 99));
  Alcotest.(check (option (float 0.0))) "p90 of 100 resolved" (Some 89.0)
    (Stats.percentile_resolved ~p:90.0 (n 100));
  Alcotest.(check int) "beyond p90 of 100" 10 (Stats.beyond ~p:90.0 100);
  let highest k = Option.map fst (Stats.highest_resolved (n k)) in
  Alcotest.(check (option (float 0.0))) "11 samples: none" None (highest 11);
  Alcotest.(check (option (float 0.0))) "20 samples: p50" (Some 50.0) (highest 20);
  Alcotest.(check (option (float 0.0))) "100 samples: p90" (Some 90.0) (highest 100);
  Alcotest.(check (option (float 0.0))) "1000 samples: p99" (Some 99.0)
    (highest 1000)

let test_json_line () =
  Alcotest.(check string) "shape"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"ops_per_s\": \
     {\"value\": 12, \"unit\": \"1/s\"}}}"
    (Report.json_line ~correct:true ~attempted:3 ~failed:0
       [ Report.m "setup_s" "s" 0.5; Report.m "ops_per_s" "1/s" 12.0 ]);
  Alcotest.(check string) "every digit" "0.10000000000000001" (Report.number 0.1);
  Alcotest.check_raises "nan refused"
    (Invalid_argument "Report.number: non-finite metric value") (fun () ->
      ignore (Report.number nan))

let test_self_times () =
  Spans.reset ();
  Spans.on := true;
  Spans.span "outer" (fun () ->
      Spans.span "inner" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id))));
  Spans.on := false;
  let self = Spans.self_times () in
  let outer = List.assoc "outer" self and inner = List.assoc "inner" self in
  Alcotest.(check (list string)) "first-seen order" [ "outer"; "inner" ]
    (List.map fst self);
  Alcotest.(check bool) "outer self excludes inner" true
    (Float.abs (outer +. inner -. Spans.total "outer") < 1e-9);
  Spans.reset ()

(* A short batch of each workload: it passes its own check; the traced
   rebuild from public calls reproduces the library run loop's
   simulated outputs; and the check fails when broken on purpose. *)
let short name =
  match name with
  | "migrate" ->
    fun ~traced ?sabotage ~seed () ->
      Wl_migrate.batch ~warm_hops:2 ~traced ?sabotage ~seed ()
  | _ -> (Option.get (Runner.find name)).Runner.batch

let test_workload name () =
  let batch = short name in
  let ok = batch ~traced:false ~seed:5 () in
  Alcotest.(check int) "no failures" 0 ok.Report.failed;
  Alcotest.(check bool) "work done" true (ok.Report.ops > 0);
  let traced = batch ~traced:true ~seed:5 () in
  Alcotest.(check string) "traced rebuild, same simulated outputs"
    ok.Report.fingerprint traced.Report.fingerprint;
  Alcotest.(check bool) "spans recorded" true
    (List.assoc "trace.spans" traced.Report.layer > 0.0);
  let broken = batch ~traced:false ~sabotage:true ~seed:5 () in
  Alcotest.(check bool) "broken check counted" true (broken.Report.failed > 0);
  Alcotest.(check int) "attempted unchanged" ok.Report.attempted
    broken.Report.attempted

let test_dspec_zero name () =
  let b = (short name) ~traced:false ~seed:3 () in
  Alcotest.(check (float 0.0)) "dspec.opened" 0.0
    (List.assoc "dspec.opened" b.Report.layer)

(* The whole run of one workload: a broken check fails the outcome. *)
let test_run_fails () =
  let w = Option.get (Runner.find "serve") in
  let o = Runner.run w ~seed:2 ~seconds:0.0 ~trace:false ~sabotage:true () in
  Alcotest.(check bool) "incorrect" false o.Runner.correct;
  Alcotest.(check bool) "failures counted" true (o.Runner.failed > 0);
  let o = Runner.run w ~seed:2 ~seconds:0.0 ~trace:true () in
  Alcotest.(check bool) "traced run correct" true o.Runner.correct;
  Alcotest.(check (list string)) "per-layer names"
    (List.map fst Runner.per_layer)
    (List.map (fun x -> x.Report.name) o.Runner.metrics)

let () =
  let workloads = [ "serve"; "serve-spec"; "migrate"; "grid" ] in
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond ] );
      ( "report",
        [ Alcotest.test_case "json result line" `Quick test_json_line;
          Alcotest.test_case "span self times" `Quick test_self_times ] );
      ( "workload",
        List.map
          (fun n -> Alcotest.test_case ("short batch: " ^ n) `Quick (test_workload n))
          workloads
        @ List.map
            (fun n -> Alcotest.test_case ("no dspec activity: " ^ n) `Quick (test_dspec_zero n))
            [ "serve"; "grid" ]
        @ [ Alcotest.test_case "broken run is incorrect" `Quick test_run_fails ] ) ]
