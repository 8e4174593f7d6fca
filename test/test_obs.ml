(* Tests for the observability layer: the metrics registry (counters,
   gauges, bucketed histograms with quantile estimates) and the typed
   event trace (append-only log, simulated-time timeline, JSONL export). *)

open Kit

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counters_and_gauges () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "reqs" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  check_int "counter accumulates" 5 (Obs.Metrics.count c);
  (* registration is idempotent: same name, same cell *)
  let c' = Obs.Metrics.counter m "reqs" in
  Obs.Metrics.incr c';
  check_int "same name is the same counter" 6 (Obs.Metrics.count c);
  let g = Obs.Metrics.gauge m "depth" in
  Obs.Metrics.set g 3.5;
  check "gauge holds the last value" true
    (Obs.Metrics.gauge_value g = 3.5);
  check_int "registry-level counter read" 6
    (Obs.Metrics.counter_value m "reqs");
  check_int "unregistered counter reads zero" 0
    (Obs.Metrics.counter_value m "nope");
  check "mem" true (Obs.Metrics.mem m "reqs");
  check "names in registration order" true
    (Obs.Metrics.names m = [ "reqs"; "depth" ]);
  (* a name cannot change kind *)
  (try
     ignore (Obs.Metrics.gauge m "reqs");
     Alcotest.fail "kind mismatch must raise"
   with Invalid_argument _ -> ())

let test_histogram_quantiles () =
  let m = Obs.Metrics.create () in
  let h =
    Obs.Metrics.histogram
      ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0 |]
      m "lat"
  in
  check_int "empty count" 0 (Obs.Metrics.hist_count h);
  check "empty quantile" true (Obs.Metrics.quantile h 0.5 = 0.0);
  for i = 1 to 100 do
    Obs.Metrics.observe h (float_of_int i /. 10.0) (* 0.1 .. 10.0 *)
  done;
  check_int "count" 100 (Obs.Metrics.hist_count h);
  check "sum" true (abs_float (Obs.Metrics.hist_sum h -. 505.0) < 1e-9);
  check "mean" true (abs_float (Obs.Metrics.hist_mean h -. 5.05) < 1e-9);
  check "min observed" true (Obs.Metrics.hist_min h = 0.1);
  check "max observed" true (Obs.Metrics.hist_max h = 10.0);
  (* 10 observations <= 1.0, 10 more <= 2.0, 20 more <= 4.0, 40 more
     <= 8.0, rest in (8, 16]: the median falls in the (4, 8] bucket *)
  check "p50 lands in the right bucket" true
    (Obs.Metrics.quantile h 0.5 = 8.0);
  (* quantile estimates are clamped to the observed extrema *)
  check "p99 clamped to max" true (Obs.Metrics.quantile h 0.99 <= 10.0);
  check "p0 clamped to min" true (Obs.Metrics.quantile h 0.0 >= 0.1);
  check "monotone in q" true
    (Obs.Metrics.quantile h 0.5 <= Obs.Metrics.quantile h 0.9
    && Obs.Metrics.quantile h 0.9 <= Obs.Metrics.quantile h 0.99)

let test_render () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr (Obs.Metrics.counter m "a.count");
  Obs.Metrics.set (Obs.Metrics.gauge m "b.level") 2.0;
  Obs.Metrics.observe (Obs.Metrics.histogram m "c.hist") 1.0;
  let lines = String.split_on_char '\n' (Obs.Metrics.render m) in
  let lines = List.filter (fun l -> l <> "") lines in
  check_int "one line per metric" 3 (List.length lines);
  (* registration order, names first on each line *)
  let starts_with prefix line =
    String.length line >= String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  in
  check "render preserves registration order" true
    (match lines with
    | [ a; b; c ] ->
      starts_with "a.count" a && starts_with "b.level" b
      && starts_with "c.hist" c
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_keeps_every_event () =
  (* a commit, more events than any fixed window would hold, then an
     abort of the same transaction: the log must still hold the commit,
     so the audit sees the partial commit *)
  let tr = Obs.Trace.create () in
  let n = 70_000 in
  Obs.Trace.record tr ~time:0.0 ~pid:1
    (Obs.Trace.Dspec_commit { txn = 7; parts = [ 2 ] });
  for i = 1 to n do
    Obs.Trace.record tr ~time:(float_of_int i) Obs.Trace.Node_fail
  done;
  Obs.Trace.record tr ~time:(float_of_int (n + 1)) ~pid:1
    (Obs.Trace.Dspec_abort { txn = 7; parts = [ 2 ]; reason = "fence" });
  check_int "every event kept" (n + 2) (Obs.Trace.length tr);
  let events = Obs.Trace.events tr in
  let times = List.map (fun e -> e.Obs.Trace.time) events in
  check "oldest first" true (times = List.init (n + 2) float_of_int);
  check_str "the audit sees the commit"
    "partial commit: txn 7 both committed and aborted"
    (match Obs.Audit.partial_commits events with
    | Ok () -> "ok"
    | Error msg -> msg)

let test_timeline_sorting () =
  let tr = Obs.Trace.create () in
  (* two "nodes" recording interleaved but per-node monotone times *)
  Obs.Trace.record tr ~time:1.0 ~node:0 Obs.Trace.Cache_miss;
  Obs.Trace.record tr ~time:0.5 ~node:1 Obs.Trace.Cache_hit;
  Obs.Trace.record tr ~time:2.0 ~node:0 Obs.Trace.Cache_miss;
  Obs.Trace.record tr ~time:0.5 ~node:1 Obs.Trace.Cache_hit;
  let times =
    List.map (fun e -> e.Obs.Trace.time) (Obs.Trace.timeline tr)
  in
  check "timeline sorted" true (times = [ 0.5; 0.5; 1.0; 2.0 ]);
  (* the sort is stable: equal times keep recording order *)
  match Obs.Trace.timeline tr with
  | first :: second :: _ ->
    check "both ties are the node-1 hits" true
      (first.Obs.Trace.kind = Obs.Trace.Cache_hit
      && second.Obs.Trace.kind = Obs.Trace.Cache_hit)
  | _ -> Alcotest.fail "timeline too short"

let test_json_export () =
  let tr = Obs.Trace.create () in
  Obs.Trace.record tr ~time:0.25 ~node:1 ~pid:7 ~rank:3
    (Obs.Trace.Migrate_start { target = "node2"; bytes = 512 });
  Obs.Trace.record tr ~time:0.5 ~node:2
    (Obs.Trace.Spec_rollback { uids = [ 4; 3 ] });
  Obs.Trace.record tr ~time:0.75
    (Obs.Trace.Checkpoint { path = "a\"b"; bytes = 9 });
  (match Obs.Trace.events tr with
  | [ a; b; c ] ->
    check_str "labels are snake_case" "migrate_start"
      (Obs.Trace.kind_label a.Obs.Trace.kind);
    check_str "migrate_start json"
      "{\"t\":0.25,\"ev\":\"migrate_start\",\"node\":1,\"pid\":7,\
       \"rank\":3,\"target\":\"node2\",\"bytes\":512}"
      (Obs.Trace.event_to_json a);
    check_str "uid lists are arrays"
      "{\"t\":0.5,\"ev\":\"spec_rollback\",\"node\":2,\"uids\":[4,3]}"
      (Obs.Trace.event_to_json b);
    (* attribution fields are omitted when unknown; strings escaped *)
    check_str "escaping and omitted attribution"
      "{\"t\":0.75,\"ev\":\"checkpoint\",\"path\":\"a\\\"b\",\"bytes\":9}"
      (Obs.Trace.event_to_json c)
  | l -> Alcotest.failf "expected 3 events, got %d" (List.length l));
  let jsonl = Obs.Trace.to_jsonl tr in
  check_int "one newline-terminated line per event" 3
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)))

(* ------------------------------------------------------------------ *)
(* Audit                                                               *)
(* ------------------------------------------------------------------ *)

let test_partial_commit_audit () =
  let ev ?(pid = 1) time kind =
    { Obs.Trace.time; node = 0; pid; rank = 0; kind }
  in
  let commit txn = ev 0.1 (Obs.Trace.Dspec_commit { txn; parts = [ 2 ] }) in
  let abort txn reason =
    ev 0.2 (Obs.Trace.Dspec_abort { txn; parts = [ 2 ]; reason })
  in
  let rollback ?pid time =
    ev ?pid time (Obs.Trace.Spec_rollback { uids = [] })
  in
  let compensate txn =
    ev 0.3 (Obs.Trace.Dspec_compensate { txn; discarded = 1 })
  in
  List.iter
    (fun (what, events, expected) ->
      check_str what expected
        (match Obs.Audit.partial_commits events with
        | Ok () -> "ok"
        | Error msg -> msg))
    [
      ( "a resolved abort beside a commit",
        [ abort 1 "fence"; rollback 0.2; compensate 1; commit 2 ], "ok" );
      ("a dead coordinator's abort", [ abort 1 "coordinator_dead" ], "ok");
      ( "committed and aborted", [ commit 3; abort 3 "fence" ],
        "partial commit: txn 3 both committed and aborted" );
      ( "rollback only before the abort, or by another pid",
        [ rollback 0.1; abort 4 "crash_in_commit"; rollback ~pid:5 0.3;
          compensate 4 ],
        "txn 4 aborted (crash_in_commit) but coordinator pid 1 never rolled \
         back" );
      ( "no compensation", [ abort 6 "fence"; rollback 0.2 ],
        "txn 6 aborted without mailbox compensation" );
      (* node clocks are independent, so recording order is not time
         order: the latest rollback counts, wherever it was recorded *)
      ( "a later rollback recorded between earlier ones",
        [ rollback 0.1; rollback 0.3; rollback 0.1; abort 7 "fence";
          compensate 7 ],
        "ok" );
    ]

let suites =
  [
    ( "obs.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick
          test_counters_and_gauges;
        Alcotest.test_case "histogram quantiles" `Quick
          test_histogram_quantiles;
        Alcotest.test_case "render" `Quick test_render;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "keeps every event" `Quick test_keeps_every_event;
        Alcotest.test_case "timeline sorting" `Quick test_timeline_sorting;
        Alcotest.test_case "JSON export" `Quick test_json_export;
      ] );
    ( "obs.audit",
      [
        Alcotest.test_case "zero partial commits" `Quick
          test_partial_commit_audit;
      ] );
  ]
