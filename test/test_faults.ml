(* Tests for the fault-injection subsystem and the resilient migration
   protocol: plan-file parsing, seeded determinism of every fault
   decision, loss-as-retransmission on the message path, partition
   windows, stall/crash scheduling, idempotent receive of duplicated
   migration hops, bounded retry with backoff, graceful degradation when
   the retry budget is exhausted, and whole-grid completion (verified
   against the golden model) under combined fault classes.

   The cluster-level tests take their fault seed from MCC_FAULT_SEED
   when set, so CI can run the suite under several seeds; the
   reproducibility tests compare two runs under the SAME seed and hold
   for any value. *)

open Kit

(* ------------------------------------------------------------------ *)
(* Plan files                                                          *)
(* ------------------------------------------------------------------ *)

let sample_plan_text =
  "# demo fault plan\n\
   seed 7\n\
   loss 0.10\n\
   dup 0.05\n\
   jitter 0.0005\n\
   retransmit 0.001\n\
   crash_in_commit 0.25\n\
   partition 1 2 from 0.05 until 0.12\n\
   partition 0 3 from 0.2 until forever\n\
   stall 3 at 0.08 for 0.01\n\
   crash 1 at 0.15\n"

let test_plan_roundtrip () =
  match Net.Faults.parse_plan sample_plan_text with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok p ->
    check_int "seed" 7 p.Net.Faults.f_seed;
    check "loss" true (p.Net.Faults.f_loss = 0.10);
    check "crash_in_commit" true (p.Net.Faults.f_crash_in_commit = 0.25);
    check_int "partitions" 2 (List.length p.Net.Faults.f_partitions);
    check "one never heals" true
      (List.exists
         (fun w -> w.Net.Faults.p_until = infinity)
         p.Net.Faults.f_partitions);
    check_int "stalls" 1 (List.length p.Net.Faults.f_stalls);
    check_int "crashes" 1 (List.length p.Net.Faults.f_crashes);
    (match Net.Faults.parse_plan (Net.Faults.plan_to_string p) with
    | Error m -> Alcotest.failf "re-parse: %s" m
    | Ok p2 -> check "plan_to_string round-trips" true (p2 = p))

let expect_error what text =
  match Net.Faults.parse_plan text with
  | Ok _ -> Alcotest.failf "%s was accepted" what
  | Error _ -> ()

let test_plan_errors () =
  expect_error "loss out of range" "loss 1.5\n";
  expect_error "negative dup" "dup -0.1\n";
  expect_error "unknown directive" "lose 0.1\n";
  expect_error "truncated partition" "partition 0 1 from 0.0\n";
  expect_error "negative stall duration" "stall 0 at 1.0 for -0.5\n";
  expect_error "partition healing before it starts"
    "partition 0 1 from 0.5 until 0.2\n";
  expect_error "bad number" "loss zero\n";
  expect_error "crash_in_commit of 1 (would livelock every commit round)"
    "crash_in_commit 1.0\n"

let expect_line what line text =
  match Net.Faults.parse_plan text with
  | Ok _ -> Alcotest.failf "%s was accepted" what
  | Error m ->
    let prefix = Printf.sprintf "line %d:" line in
    check
      (Printf.sprintf "%s names line %d (got %S)" what line m)
      true
      (String.length m >= String.length prefix
      && String.sub m 0 (String.length prefix) = prefix)

(* every rejection names the offending line, including lines pushed down
   by comments and blanks *)
let test_plan_errors_report_lines () =
  expect_line "bad loss on line 1" 1 "loss 1.5\n";
  expect_line "bad dup after two good lines" 3 "seed 7\nloss 0.1\ndup -0.1\n";
  expect_line "unknown directive on line 2" 2 "loss 0.1\nlose 0.1\n";
  expect_line "comment and blank lines still count" 4
    "# header\n\nseed 3\ncrash_in_commit 1.0\n";
  expect_line "truncated partition on line 2" 2
    "seed 1\npartition 0 1 from 0.0\n"

(* NaN compares false with every bound, so a range check written as
   "v < 0.0" lets it through; each numeric field must reject it *)
let test_plan_rejects_nan () =
  List.iter
    (fun directive ->
      expect_line (directive ^ " with NaN") 2 ("seed 1\n" ^ directive ^ "\n"))
    [ "loss nan"; "dup nan"; "jitter nan"; "retransmit nan";
      "crash_in_commit nan"; "store_lost nan"; "store_torn nan";
      "store_flip nan"; "partition 0 1 from nan until 0.5";
      "partition 0 1 from 0.1 until nan"; "stall 1 at nan for 0.01";
      "stall 1 at 0.001 for nan"; "crash 1 at nan" ];
  let open Net.Faults in
  List.iter
    (fun (what, plan) ->
      match validate plan with
      | Ok _ -> Alcotest.failf "validate accepted a NaN %s" what
      | Error _ -> ())
    [ ("loss", { none with f_loss = nan });
      ("dup", { none with f_dup = nan });
      ("jitter", { none with f_jitter_s = nan });
      ("retransmit", { none with f_retransmit_s = nan });
      ("crash_in_commit", { none with f_crash_in_commit = nan });
      ("store_lost", { none with f_store_lost = nan });
      ("store_torn", { none with f_store_torn = nan });
      ("store_flip", { none with f_store_flip = nan });
      ( "partition start",
        { none with
          f_partitions = [ { pa = 0; pb = 1; p_from = nan; p_until = 0.5 } ]
        } );
      ( "partition end",
        { none with
          f_partitions = [ { pa = 0; pb = 1; p_from = 0.1; p_until = nan } ]
        } );
      ("stall time",
       { none with f_stalls = [ { s_node = 1; s_at = nan; s_for = 0.01 } ] });
      ("stall duration",
       { none with f_stalls = [ { s_node = 1; s_at = 0.001; s_for = nan } ] });
      ("crash time", { none with f_crashes = [ { c_node = 1; c_at = nan } ] })
    ]

(* a directive naming a node the cluster lacks would never fire: a
   negative id is a plan error on its line, one past the cluster's last
   node is rejected by the cluster, quoting the directive *)
let test_plan_rejects_missing_nodes () =
  let negative =
    [ "crash -1 at 0.001"; "stall -1 at 0.001 for 0.01";
      "partition -1 0 from 0.0 until 0.5"; "partition 0 -1 from 0.0 until 0.5" ]
  in
  List.iter
    (fun d -> expect_line (d ^ " (negative node)") 2 ("seed 1\n" ^ d ^ "\n"))
    negative;
  let open Net.Faults in
  List.iter
    (fun (what, plan) ->
      match validate plan with
      | Ok _ -> Alcotest.failf "validate accepted a negative %s node" what
      | Error _ -> ())
    [ ("crash", { none with f_crashes = [ { c_node = -1; c_at = 0.001 } ] });
      ("stall",
       { none with f_stalls = [ { s_node = -1; s_at = 0.001; s_for = 0.01 } ] });
      ( "partition",
        { none with
          f_partitions = [ { pa = 0; pb = -1; p_from = 0.0; p_until = 0.5 } ]
        } ) ];
  List.iter
    (fun d ->
      match parse_plan d with
      | Error m -> Alcotest.failf "%S: %s" d m
      | Ok plan -> (
        match
          Net.Cluster.create_cfg
            { Net.Cluster.Config.default with node_count = 4; faults = plan }
        with
        | _ -> Alcotest.failf "a 4-node cluster accepted %S" d
        | exception Invalid_argument m ->
          check (Printf.sprintf "%S is quoted (got %S)" d m) true
            (contains m d)))
    [ "crash 4 at 0.001"; "stall 9 at 0.001 for 0.01";
      "partition 0 9 from 0 until 0.5"; "partition 4 0 from 0 until 0.5" ]

let test_plan_seed_override () =
  match Net.Faults.parse_plan ~seed:42 "seed 7\nloss 0.2\n" with
  | Ok p -> check_int "CLI seed overrides the file's" 42 p.Net.Faults.f_seed
  | Error m -> Alcotest.failf "parse: %s" m

(* ------------------------------------------------------------------ *)
(* Fault runtime, unit level                                           *)
(* ------------------------------------------------------------------ *)

let lossy_plan =
  { Net.Faults.none with
    f_seed = env_seed;
    f_loss = 0.3;
    f_dup = 0.2;
    f_jitter_s = 0.001;
    f_retransmit_s = 0.002 }

let test_delivery_determinism () =
  let draws () =
    let t = Net.Faults.create ~salt:5 lossy_plan in
    List.init 200 (fun i ->
        Net.Faults.on_message t
          ~now:(float_of_int i *. 0.001)
          ~src:0 ~dst:1)
  in
  check "same plan + salt, same decisions" true (draws () = draws ());
  List.iter
    (fun d ->
      check "loss delays, never drops" true (not d.Net.Faults.d_dropped);
      check "delay is non-negative" true (d.Net.Faults.d_delay_s >= 0.0))
    (draws ());
  check "some transmissions were lost" true
    (List.exists (fun d -> d.Net.Faults.d_retransmits > 0) (draws ()));
  check "some messages were duplicated" true
    (List.exists (fun d -> d.Net.Faults.d_duplicate) (draws ()))

let test_no_faults_for_loopback () =
  let t = Net.Faults.create lossy_plan in
  let d = Net.Faults.on_message t ~now:0.0 ~src:2 ~dst:2 in
  check "loopback is never faulted" true
    ((not d.Net.Faults.d_dropped)
    && d.Net.Faults.d_delay_s = 0.0
    && not d.Net.Faults.d_duplicate)

let test_partition_windows () =
  let plan =
    { Net.Faults.none with
      f_partitions =
        [
          { Net.Faults.pa = 0; pb = 1; p_from = 0.0; p_until = 0.5 };
          { Net.Faults.pa = 0; pb = 2; p_from = 0.0; p_until = infinity };
        ] }
  in
  let t = Net.Faults.create plan in
  let d = Net.Faults.on_message t ~now:0.1 ~src:0 ~dst:1 in
  check "healing partition delays to the heal time" true
    ((not d.Net.Faults.d_dropped) && d.Net.Faults.d_delay_s >= 0.399);
  let d = Net.Faults.on_message t ~now:0.1 ~src:1 ~dst:0 in
  check "partitions are symmetric" true (d.Net.Faults.d_delay_s >= 0.399);
  let d = Net.Faults.on_message t ~now:0.1 ~src:2 ~dst:0 in
  check "permanent partition drops" true d.Net.Faults.d_dropped;
  let d = Net.Faults.on_message t ~now:0.6 ~src:0 ~dst:1 in
  check "after heal the link is clean" true
    ((not d.Net.Faults.d_dropped) && d.Net.Faults.d_delay_s = 0.0);
  check "partitioned query" true
    (Net.Faults.partitioned t ~now:0.2 ~a:1 ~b:0);
  check "heal_time reported" true
    (Net.Faults.heal_time t ~now:0.2 ~a:0 ~b:1 = Some 0.5);
  check "heal_time is None when never healing" true
    (Net.Faults.heal_time t ~now:0.2 ~a:0 ~b:2 = None)

let test_stall_crash_fire_once () =
  let plan =
    { Net.Faults.none with
      f_stalls = [ { Net.Faults.s_node = 1; s_at = 0.1; s_for = 0.05 } ];
      f_crashes = [ { Net.Faults.c_node = 2; c_at = 0.2 } ] }
  in
  let t = Net.Faults.create plan in
  check "stall not due yet" true
    (Net.Faults.take_stall t ~node:1 ~now:0.05 = None);
  check "stall on another node never fires" true
    (Net.Faults.take_stall t ~node:0 ~now:9.0 = None);
  check "stall fires when due" true
    (Net.Faults.take_stall t ~node:1 ~now:0.2 = Some 0.05);
  check "stall fires exactly once" true
    (Net.Faults.take_stall t ~node:1 ~now:0.3 = None);
  check "crash on another node never fires" false
    (Net.Faults.take_crash t ~node:1 ~now:0.3);
  check "crash fires when due" true
    (Net.Faults.take_crash t ~node:2 ~now:0.25);
  check "crash fires exactly once" false
    (Net.Faults.take_crash t ~node:2 ~now:0.3)

(* ------------------------------------------------------------------ *)
(* Idempotent receive (Migrate.Server.receive)                         *)
(* ------------------------------------------------------------------ *)

let image_bytes () =
  let proc = Vm.Process.create (compile_c "int main() { return 9; }") in
  (Migrate.Pack.pack_running proc).Migrate.Pack.p_bytes

let test_idempotent_receive () =
  let bytes = image_bytes () in
  let server = Migrate.Server.(create_cfg Config.default Vm.Arch.cisc32) in
  let first =
    match Migrate.Server.receive ~key:"img#1" server bytes with
    | Ok (Migrate.Server.Fresh o) -> o
    | Ok (Migrate.Server.Duplicate _) ->
      Alcotest.fail "first delivery reported as duplicate"
    | Error m -> Alcotest.failf "receive: %s" m
  in
  (match Migrate.Server.receive ~key:"img#1" server bytes with
  | Ok (Migrate.Server.Duplicate o) ->
    check_int "duplicate returns the original pid" first.Migrate.Server.o_pid
      o.Migrate.Server.o_pid
  | Ok (Migrate.Server.Fresh _) ->
    Alcotest.fail "retransmitted hop double-spawned"
  | Error m -> Alcotest.failf "receive: %s" m);
  (* a DIFFERENT hop of byte-identical bytes is a fresh delivery *)
  (match Migrate.Server.receive ~key:"img#2" server bytes with
  | Ok (Migrate.Server.Fresh o) ->
    check "distinct hop gets a distinct pid" true
      (o.Migrate.Server.o_pid <> first.Migrate.Server.o_pid)
  | Ok (Migrate.Server.Duplicate _) ->
    Alcotest.fail "distinct hop wrongly deduplicated"
  | Error m -> Alcotest.failf "receive: %s" m);
  check_int "one duplicate counted" 1
    (Obs.Metrics.counter_value
       (Migrate.Server.metrics server)
       "server.duplicates")

(* the server remembers its last 64 accepted deliveries *)
let test_dedup_memory_bounded () =
  let bytes = image_bytes () in
  let server =
    Migrate.Server.(
      create_cfg
        { Config.default with
          cache = Some (Migrate.Codecache.create ~capacity:1 ()) }
        Vm.Arch.cisc32)
  in
  let fresh key =
    match Migrate.Server.receive ~key server bytes with
    | Ok (Migrate.Server.Fresh _) -> true
    | Ok (Migrate.Server.Duplicate _) -> false
    | Error m -> Alcotest.failf "receive: %s" m
  in
  for k = 1 to 64 do
    let key = Printf.sprintf "k%d" k in
    check (key ^ " fresh") true (fresh key)
  done;
  check "k2 still remembered" false (fresh "k2");
  check "k65 fresh, evicts k1" true (fresh "k65");
  check "k1 was forgotten" true (fresh "k1");
  check "k65 still remembered" false (fresh "k65")

(* ------------------------------------------------------------------ *)
(* Resilient migration protocol on the cluster                         *)
(* ------------------------------------------------------------------ *)

let summing_worker =
  compile_c
    {|
int main() {
  int *data = alloc_int(50);
  int i;
  for (i = 0; i < 50; i = i + 1) data[i] = i * 7;
  int acc = 0;
  int round;
  for (round = 0; round < 400; round = round + 1) {
    for (i = 0; i < 50; i = i + 1) acc = (acc + data[i]) % 1000000;
  }
  return acc;
}
|}

let expected_sum =
  let proc = Vm.Process.create summing_worker in
  match Vm.Interp.run proc with
  | Vm.Process.Exited n -> n
  | _ -> Alcotest.fail "reference run failed"

let test_migrate_retry_through_partition () =
  (* the link to the target is partitioned when the hop starts and heals
     at 0.05 s: the protocol must retry with backoff until it gets
     through, and the process must observe nothing *)
  let plan =
    { Net.Faults.none with
      f_seed = env_seed;
      f_partitions =
        [ { Net.Faults.pa = 0; pb = 1; p_from = 0.0; p_until = 0.05 } ] }
  in
  let cluster = mk_cluster ~nodes:2 plan in
  let pid = Net.Cluster.spawn cluster ~node_id:0 summing_worker in
  let _ = Net.Cluster.run cluster ~max_rounds:25 in
  (match move_running cluster ~pid ~node_id:1 with
  | Error e ->
    Alcotest.failf "migration failed: %s"
      (Net.Cluster.migration_error_to_string e)
  | Ok rep ->
    check "the hop was retried" true (rep.Net.Cluster.rep_attempts >= 2);
    check "backoff was waited" true (rep.Net.Cluster.rep_backoff_s > 0.0);
    check_int "retries = attempts - 1"
      (rep.Net.Cluster.rep_attempts - 1)
      rep.Net.Cluster.rep_retries;
    let _ = Net.Cluster.run cluster in
    check "successor finished with the same result" true
      (status_of cluster rep.Net.Cluster.rep_pid
      = Vm.Process.Exited expected_sum));
  check "retries were counted" true
    (Obs.Metrics.counter_value (Net.Cluster.metrics cluster)
       "migrate.retries"
    >= 1);
  check "the retry is in the typed trace" true
    (List.exists
       (fun e ->
         match e.Obs.Trace.kind with
         | Obs.Trace.Migrate_retry { reason = "partitioned"; _ } -> true
         | _ -> false)
       (Obs.Trace.timeline (Net.Cluster.trace cluster)))

let test_unreachable_resumes_locally () =
  (* the partition never heals: the retry budget runs out and the
     process keeps running where it was, invisibly *)
  let plan =
    { Net.Faults.none with
      f_seed = env_seed;
      f_partitions =
        [ { Net.Faults.pa = 0; pb = 1; p_from = 0.0; p_until = infinity } ]
    }
  in
  let cluster = mk_cluster ~nodes:2 plan in
  let pid = Net.Cluster.spawn cluster ~node_id:0 summing_worker in
  let _ = Net.Cluster.run cluster ~max_rounds:25 in
  (match move_running cluster ~pid ~node_id:1 with
  | Error (Net.Cluster.Unreachable { attempts; reason }) ->
    check_int "every attempt in the budget was used"
      Net.Cluster.Config.default_retry.Net.Cluster.Config.max_attempts
      attempts;
    check "reason says partitioned" true (reason = "partitioned")
  | Error e ->
    Alcotest.failf "expected Unreachable, got %s"
      (Net.Cluster.migration_error_to_string e)
  | Ok _ -> Alcotest.fail "migration through a dead link succeeded");
  let _ = Net.Cluster.run cluster in
  check "the process completed locally" true
    (status_of cluster pid = Vm.Process.Exited expected_sum);
  (match Net.Cluster.migrations cluster with
  | [ mr ] -> check "recorded as a failed migration" false mr.Net.Cluster.mr_ok
  | l -> Alcotest.failf "expected 1 migration record, got %d" (List.length l))

let test_duplicated_hop_is_deduplicated () =
  (* every migration hop also arrives a second time; the target daemon
     must dedup instead of double-spawning *)
  let plan =
    { Net.Faults.none with f_seed = env_seed; f_dup = 0.999999 }
  in
  let cluster = mk_cluster ~nodes:2 plan in
  let pid = Net.Cluster.spawn cluster ~node_id:0 summing_worker in
  let _ = Net.Cluster.run cluster ~max_rounds:25 in
  (match move_running cluster ~pid ~node_id:1 with
  | Error e ->
    Alcotest.failf "migration failed: %s"
      (Net.Cluster.migration_error_to_string e)
  | Ok rep ->
    let _ = Net.Cluster.run cluster in
    check "exactly one successor ran to the right answer" true
      (status_of cluster rep.Net.Cluster.rep_pid
      = Vm.Process.Exited expected_sum));
  check_int "source + one successor, nothing double-spawned" 2
    (List.length (Net.Cluster.statuses cluster));
  let daemon = (Net.Cluster.node cluster 1).Net.Cluster.daemon in
  check "the daemon saw and absorbed the duplicate" true
    (Obs.Metrics.counter_value
       (Migrate.Server.metrics daemon)
       "server.duplicates"
    >= 1);
  check "dup_delivery is in the typed trace" true
    (List.exists
       (fun e ->
         match e.Obs.Trace.kind with
         | Obs.Trace.Dup_delivery _ -> true
         | _ -> false)
       (Obs.Trace.timeline (Net.Cluster.trace cluster)))

(* ------------------------------------------------------------------ *)
(* Whole-grid runs under faults, against the golden model              *)
(* ------------------------------------------------------------------ *)

let grid_cfg =
  { Mcc.Gridapp.ranks = 3; rows_per_rank = 4; cols = 8; timesteps = 12;
    interval = 4; work_us_per_step = 0 }

let run_grid ?(nodes = 3) ?(spare = false) ?(resilient = false) plan =
  let cluster = mk_cluster ~nodes ~seed:env_seed plan in
  let d = Mcc.Gridapp.deploy ~spare cluster grid_cfg in
  let _ =
    if resilient then Mcc.Gridapp.run_resilient d else Mcc.Gridapp.run d
  in
  (cluster, Mcc.Gridapp.checksums d)

let check_golden sums =
  Array.iteri
    (fun r s ->
      match s with
      | Some n ->
        check_int (Printf.sprintf "rank %d checksum" r)
          (Mcc.Gridapp.golden_checksums grid_cfg).(r)
          n
      | None -> Alcotest.failf "rank %d never finished" r)
    sums

(* exactly one copy of each rank completed: a duplicated or retried hop
   (or a resurrection) never left two live holders *)
let check_single_holder cluster =
  for r = 0 to grid_cfg.Mcc.Gridapp.ranks - 1 do
    let exited =
      List.filter
        (fun (_, rank, _, status) ->
          rank = Some r
          && match status with Vm.Process.Exited _ -> true | _ -> false)
        (Net.Cluster.statuses cluster)
    in
    check_int (Printf.sprintf "one exited copy of rank %d" r) 1
      (List.length exited)
  done

let grid_faults =
  { Net.Faults.none with
    f_seed = env_seed;
    f_loss = 0.10;
    f_dup = 0.05;
    f_jitter_s = 0.00002;
    f_retransmit_s = 0.0001 }

let test_grid_under_loss () =
  let cluster, sums = run_grid grid_faults in
  check_golden sums;
  check_single_holder cluster;
  check "retransmissions actually happened" true
    (Obs.Metrics.counter_value (Net.Cluster.metrics cluster)
       "faults.retransmits"
    > 0)

let test_trace_reproducible () =
  (* identical seed + plan => byte-identical JSONL traces *)
  let trace_of () =
    let cluster, sums = run_grid grid_faults in
    check_golden sums;
    Obs.Trace.to_jsonl (Net.Cluster.trace cluster)
  in
  let t1 = trace_of () and t2 = trace_of () in
  check "trace is non-trivial" true (String.length t1 > 1000);
  Alcotest.(check string) "byte-identical traces" t1 t2

let test_grid_partition_then_heal () =
  let plan =
    { grid_faults with
      f_partitions =
        [ { Net.Faults.pa = 0; pb = 1; p_from = 0.0005; p_until = 0.001 } ]
    }
  in
  let cluster, sums = run_grid plan in
  check_golden sums;
  check_single_holder cluster

let test_grid_crash_and_stall_recovery () =
  (* acceptance scenario: 10 % loss, a healing two-node partition, a
     stall, and a node crash — the grid still terminates with the golden
     checksums and exactly one live copy of each rank.  The crash lands
     between the first checkpoint round (step 4) and completion; rank 1
     is resurrected from its checkpoint on the spare node. *)
  let work_cfg = { grid_cfg with Mcc.Gridapp.work_us_per_step = 500 } in
  let golden = Mcc.Gridapp.golden_checksums work_cfg in
  let plan =
    { Net.Faults.none with
      f_seed = env_seed;
      f_loss = 0.10;
      f_retransmit_s = 0.0001;
      f_partitions =
        [ { Net.Faults.pa = 0; pb = 1; p_from = 0.0004; p_until = 0.0008 } ];
      f_stalls = [ { Net.Faults.s_node = 2; s_at = 0.002; s_for = 0.0005 } ];
      f_crashes = [ { Net.Faults.c_node = 1; c_at = 0.004 } ] }
  in
  let cluster = mk_cluster ~nodes:4 ~seed:env_seed plan in
  let d = Mcc.Gridapp.deploy ~spare:true cluster work_cfg in
  let _ = Mcc.Gridapp.run_resilient d in
  Array.iteri
    (fun r s ->
      match s with
      | Some n -> check_int (Printf.sprintf "rank %d checksum" r) golden.(r) n
      | None -> Alcotest.failf "rank %d never finished" r)
    (Mcc.Gridapp.checksums d);
  for r = 0 to work_cfg.Mcc.Gridapp.ranks - 1 do
    let exited =
      List.filter
        (fun (_, rank, _, status) ->
          rank = Some r
          && match status with Vm.Process.Exited _ -> true | _ -> false)
        (Net.Cluster.statuses cluster)
    in
    check_int (Printf.sprintf "one exited copy of rank %d" r) 1
      (List.length exited)
  done;
  let m = Net.Cluster.metrics cluster in
  check "the crash fired" true
    (Obs.Metrics.counter_value m "faults.crashes" = 1
    && Obs.Metrics.counter_value m "cluster.node_failures" = 1);
  check "the stall fired" true
    (Obs.Metrics.counter_value m "faults.stalls" = 1);
  check "the resurrection was counted" true
    (Obs.Metrics.counter_value m "cluster.resurrections" >= 1)

(* ------------------------------------------------------------------ *)
(* Seeded storage faults                                               *)
(* ------------------------------------------------------------------ *)

let test_storage_faults_seeded () =
  (* obj_read/obj_write failures draw from the fault-plan RNG, never the
     global Random state: the same seed reproduces the same pattern *)
  let prog =
    compile_c
      {|
int main() {
  int *buf = alloc_int(4);
  int ok = 0; int i;
  for (i = 0; i < 32; i = i + 1) {
    if (obj_write(1, buf, 4) == 4) ok = ok + 1;
  }
  return ok;
}
|}
  in
  let run_one () =
    let cluster =
      mk_cluster ~nodes:1 ~seed:env_seed
        { Net.Faults.none with f_seed = env_seed }
    in
    Net.Cluster.set_object cluster 1 "AAAA";
    Net.Cluster.set_object_failure_probability cluster 0.5;
    let pid = Net.Cluster.spawn cluster ~node_id:0 prog in
    let _ = Net.Cluster.run cluster in
    match status_of cluster pid with
    | Vm.Process.Exited n -> n
    | Vm.Process.Trapped m -> Alcotest.failf "prog trapped: %s" m
    | _ -> Alcotest.fail "prog did not exit"
  in
  let a = run_one () and b = run_one () in
  check_int "same seed, same storage-fault pattern" a b;
  check "some writes failed and some succeeded" true (a > 0 && a < 32)

(* ------------------------------------------------------------------ *)
(* Replicated checkpoint storage                                       *)
(* ------------------------------------------------------------------ *)

let mk_storage ?(replication = 2) ?(nodes = 3) ?(plan = Net.Faults.none) () =
  let net = Net.Simnet.create ~latency_us:5.0 () in
  let metrics = Obs.Metrics.create () in
  let faults = Net.Faults.create ~salt:env_seed ~metrics plan in
  let storage =
    Net.Storage.create ~replication ~nodes ~faults ~metrics net
  in
  (storage, metrics)

let test_replica_survives_node_loss () =
  (* full replication: every node holds a copy; losing one node's store
     leaves the data readable and intact *)
  let storage, _ = mk_storage ~replication:3 ~nodes:3 () in
  let data = "checkpoint-payload-0123456789" in
  let dt = Net.Storage.write storage "ck" data in
  check "write charged transfer time" true (dt > 0.0);
  check_int "all replicas verify" 3 (Net.Storage.good_replicas storage "ck");
  Net.Storage.fail_node storage 0;
  check_int "one replica died with its node" 2
    (Net.Storage.good_replicas storage "ck");
  (match Net.Storage.read storage "ck" with
  | Some (got, _) -> Alcotest.(check string) "bytes intact" data got
  | None -> Alcotest.fail "read failed with two good replicas")

let test_torn_write_read_repair () =
  (* half the replica writes are torn: some path ends up with exactly
     one good copy — a read must digest-verify, serve the good copy and
     repair the torn replica; a path with NO good copy must fail the
     read rather than return corrupt bytes *)
  let plan =
    { Net.Faults.none with f_seed = env_seed; f_store_torn = 0.5 }
  in
  let storage, metrics = mk_storage ~replication:2 ~nodes:3 ~plan () in
  let data i = Printf.sprintf "payload-%04d-0123456789abcdef" i in
  let paths = List.init 64 (fun i -> (Printf.sprintf "p%02d" i, data i)) in
  List.iter (fun (p, d) -> ignore (Net.Storage.write storage p d)) paths;
  let with_goodness n =
    List.filter (fun (p, _) -> Net.Storage.good_replicas storage p = n) paths
  in
  (match with_goodness 1 with
  | [] -> Alcotest.fail "no path ended up with exactly one good replica"
  | (p, d) :: _ -> (
    match Net.Storage.read storage p with
    | Some (got, _) ->
      Alcotest.(check string) "read served the verifying copy" d got;
      check_int "read-repair restored full redundancy" 2
        (Net.Storage.good_replicas storage p)
    | None -> Alcotest.fail "read failed with a good replica present"));
  check "repairs were counted" true
    (Obs.Metrics.counter_value metrics "storage.repairs" >= 1);
  (match with_goodness 0 with
  | [] -> Alcotest.fail "no path ended up with zero good replicas"
  | (p, _) :: _ ->
    check "no verifying copy: read refuses rather than serve torn bytes"
      true
      (Net.Storage.read storage p = None));
  check "corrupt reads were counted" true
    (Obs.Metrics.counter_value metrics "storage.corrupt_reads" >= 1)

let test_bit_flip_never_served () =
  (* every replica write takes a bit flip: the digest check must reject
     both copies — a flipped checkpoint is never returned as data *)
  let plan =
    { Net.Faults.none with f_seed = env_seed; f_store_flip = 1.0 }
  in
  let storage, metrics = mk_storage ~replication:2 ~nodes:2 ~plan () in
  ignore (Net.Storage.write storage "ck" "bytes-that-matter-0123456789");
  check "flipped replicas exist but do not verify" true
    (Net.Storage.exists storage "ck"
    && Net.Storage.good_replicas storage "ck" = 0);
  check "read returns nothing rather than flipped bytes" true
    (Net.Storage.read storage "ck" = None);
  check "corrupt reads counted" true
    (Obs.Metrics.counter_value metrics "storage.corrupt_reads" >= 1);
  check "flips drew from the seeded fault RNG" true
    (Obs.Metrics.counter_value metrics "faults.store_flip" >= 1)

let test_single_replica_loss_is_typed_error () =
  (* k = 1 and the only replica write is lost: resurrection must fail
     with the existing typed error, never resurrect from thin air *)
  let plan =
    { Net.Faults.none with f_seed = env_seed; f_store_lost = 1.0 }
  in
  let cluster = mk_cluster ~nodes:2 ~seed:env_seed ~replication:1 plan in
  let storage = Net.Cluster.storage cluster in
  let dt = Net.Storage.write storage "ck" "lost-forever" in
  check "the write itself was charged" true (dt > 0.0);
  check "the only replica was lost" false (Net.Storage.exists storage "ck");
  check "lost writes counted" true (counter cluster "faults.store_lost" >= 1);
  match Net.Cluster.resurrect cluster ~node_id:0 ~path:"ck" with
  | Ok _ -> Alcotest.fail "resurrected from a lost checkpoint"
  | Error m -> check "typed error, not wrong data" true (String.length m > 0)

let test_wire_epoch_roundtrip () =
  (* the incarnation epoch rides the wire but is NOT part of the image's
     identity: two incarnations of a rank share their baseline digest,
     so delta negotiation survives resurrection *)
  let proc, _ =
    Test_migrate.run_to_migration (Test_migrate.migrating_sum 24)
  in
  let packed = Migrate.Pack.pack_request ~with_binary:false ~epoch:3 proc in
  let im = packed.Migrate.Pack.p_image in
  check_int "pack stamps the incarnation epoch" 3 im.Migrate.Wire.i_epoch;
  let im' = Migrate.Wire.decode (Migrate.Wire.encode im) in
  check_int "epoch survives the wire round trip" 3 im'.Migrate.Wire.i_epoch;
  Alcotest.(check string) "epoch is incarnation metadata, not identity"
    (Migrate.Wire.image_digest im)
    (Migrate.Wire.image_digest { im with Migrate.Wire.i_epoch = 7 })

(* ------------------------------------------------------------------ *)
(* Heartbeat failure detection and epoch fencing                       *)
(* ------------------------------------------------------------------ *)

(* Timings for crash detection: coarse heartbeats, a timeout a few
   multiples of the interval — suspicion matures during the quiescent
   pumping after survivors park on the dead rank. *)
let crash_detector =
  { Net.Detector.hb_interval_s = 0.0005;
    suspect_timeout_s = 0.002;
    hb_bytes = 8 }

let work_cfg = { grid_cfg with Mcc.Gridapp.work_us_per_step = 500 }

let check_golden_cfg cfg sums =
  let golden = Mcc.Gridapp.golden_checksums cfg in
  Array.iteri
    (fun r s ->
      match s with
      | Some n -> check_int (Printf.sprintf "rank %d checksum" r) golden.(r) n
      | None -> Alcotest.failf "rank %d never finished" r)
    sums

let test_heartbeat_crash_detection () =
  (* no omniscient crash knowledge: node 1 dies and the ONLY signal is
     its missed heartbeats.  Rank 1 must be resurrected (bumped epoch)
     on suspicion and the grid must still reach the golden checksums —
     with its checkpoint replicas surviving the loss of node 1's local
     store *)
  let plan =
    { Net.Faults.none with
      f_seed = env_seed;
      f_crashes = [ { Net.Faults.c_node = 1; c_at = 0.004 } ] }
  in
  let cluster =
    mk_cluster ~nodes:4 ~seed:env_seed ~detector:crash_detector
      ~replication:2 plan
  in
  let d = Mcc.Gridapp.deploy ~spare:true cluster work_cfg in
  let _ = Mcc.Gridapp.run_resilient d in
  check_golden_cfg work_cfg (Mcc.Gridapp.checksums d);
  check_single_holder cluster;
  check "heartbeats actually flowed" true
    (counter cluster "detector.heartbeats" > 0);
  check "the crash was suspected from silence alone" true
    (counter cluster "detector.suspicions" >= 1);
  check "rank 1 came back under a bumped incarnation epoch" true
    (Net.Cluster.rank_epoch cluster 1 >= 1);
  check "the resurrection was counted" true
    (counter cluster "cluster.resurrections" >= 1)

(* Timings for false suspicion: interval and timeout well under one grid
   step's busy time, so survivors' clocks creep past the silence window
   while a stalled peer is merely slow. *)
let stall_detector =
  { Net.Detector.hb_interval_s = 0.00005;
    suspect_timeout_s = 0.0002;
    hb_bytes = 8 }

let false_suspicion_run seed =
  (* 3 nodes, 3 ranks, NO spare: every observer is busy, so unanimity
     can mature mid-run.  Node 2 stalls long past the suspicion timeout
     after checkpoints exist; it is not dead, so the detector's
     suspicion is FALSE — resurrection bumps rank 2's epoch and the
     stalled original must be fenced when it wakes. *)
  let plan =
    { Net.Faults.none with
      f_seed = seed;
      f_stalls = [ { Net.Faults.s_node = 2; s_at = 0.0045; s_for = 0.05 } ]
    }
  in
  let cluster =
    mk_cluster ~nodes:3 ~seed ~detector:stall_detector ~replication:2
      plan
  in
  let d = Mcc.Gridapp.deploy cluster work_cfg in
  let _ = Mcc.Gridapp.run_resilient d in
  (cluster, d)

let test_false_suspicion_fencing () =
  List.iter
    (fun seed ->
      let cluster, d = false_suspicion_run seed in
      check_golden_cfg work_cfg (Mcc.Gridapp.checksums d);
      check_single_holder cluster;
      check
        (Printf.sprintf "seed %d: the stalled node was falsely suspected"
           seed)
        true
        (counter cluster "detector.false_suspicions" >= 1);
      check
        (Printf.sprintf "seed %d: the zombie incarnation was fenced" seed)
        true
        (counter cluster "fence.rejections" >= 1);
      (* suspicion can cascade past the stalled node itself — a parked
         observer jumping its clock over the stall window makes slower
         peers look silent too — so WHICH rank gets resurrected varies
         by seed; fencing guarantees every resurrection bumped an
         epoch and left one live copy *)
      check
        (Printf.sprintf "seed %d: a resurrection happened under detection"
           seed)
        true
        (counter cluster "cluster.resurrections" >= 1);
      check
        (Printf.sprintf "seed %d: some rank runs under a bumped epoch" seed)
        true
        (List.exists
           (fun r -> Net.Cluster.rank_epoch cluster r >= 1)
           [ 0; 1; 2 ]))
    [ env_seed; env_seed + 9 ]

let test_detector_trace_deterministic () =
  (* detection, fencing and replicated storage draw only from the seeded
     RNG and the simulated clocks: the same seed must reproduce the
     false-suspicion story byte for byte *)
  let run () =
    let cluster, d = false_suspicion_run env_seed in
    check_golden_cfg work_cfg (Mcc.Gridapp.checksums d);
    cluster
  in
  let c1 = run () and c2 = run () in
  let has pred c =
    List.exists
      (fun e -> pred e.Obs.Trace.kind)
      (Obs.Trace.timeline (Net.Cluster.trace c))
  in
  check "suspicion is in the typed trace" true
    (has (function Obs.Trace.Suspect _ -> true | _ -> false) c1);
  check "fencing is in the typed trace" true
    (has (function Obs.Trace.Fenced _ -> true | _ -> false) c1);
  let t1 = Obs.Trace.to_jsonl (Net.Cluster.trace c1)
  and t2 = Obs.Trace.to_jsonl (Net.Cluster.trace c2) in
  check "trace is non-trivial" true (String.length t1 > 1000);
  Alcotest.(check string) "byte-identical detector traces" t1 t2

(* ------------------------------------------------------------------ *)
(* Scheduler equivalence: indexed residents vs the legacy scan          *)
(* ------------------------------------------------------------------ *)

(* The indexed scheduler (per-node resident lists, indexed mailbox
   wake-ups) must be OBSERVABLY identical to the legacy per-round scan
   it replaced: byte-identical typed traces, an identical metrics
   registry and the golden checksums, under fault-injected grid runs
   across multiple seeds.  [legacy_scan_sched] keeps the old path
   executable precisely so this stays checkable from one build. *)

let sched_eq_seeds = [ env_seed; env_seed + 31 ]

let run_grid_sched ~legacy ~seed ~cfg ~nodes ~spare ~resilient plan =
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        node_count = nodes;
        seed;
        net = Some (Net.Simnet.create ~latency_us:5.0 ());
        faults = plan;
        legacy_scan_sched = legacy }
  in
  let d = Mcc.Gridapp.deploy ~spare cluster cfg in
  let _ =
    if resilient then Mcc.Gridapp.run_resilient d else Mcc.Gridapp.run d
  in
  (cluster, Mcc.Gridapp.checksums d)

let check_sched_equivalent ~name ~cfg ~nodes ~spare ~resilient plan_of =
  List.iter
    (fun seed ->
      let plan = plan_of seed in
      let golden = Mcc.Gridapp.golden_checksums cfg in
      let observe legacy =
        let cluster, sums =
          run_grid_sched ~legacy ~seed ~cfg ~nodes ~spare ~resilient plan
        in
        Array.iteri
          (fun r s ->
            match s with
            | Some n ->
              check_int (Printf.sprintf "%s: rank %d checksum" name r)
                golden.(r) n
            | None -> Alcotest.failf "%s: rank %d never finished" name r)
          sums;
        ( Obs.Trace.to_jsonl (Net.Cluster.trace cluster),
          Obs.Metrics.render (Net.Cluster.metrics cluster) )
      in
      let trace_scan, metrics_scan = observe true in
      let trace_idx, metrics_idx = observe false in
      check (Printf.sprintf "%s seed %d: trace is non-trivial" name seed)
        true
        (String.length trace_scan > 1000);
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d: byte-identical traces" name seed)
        trace_scan trace_idx;
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d: identical metrics" name seed)
        metrics_scan metrics_idx)
    sched_eq_seeds

let test_sched_equivalence_loss () =
  (* the F3 regime: loss + duplication + jitter over the whole grid *)
  check_sched_equivalent ~name:"loss" ~cfg:grid_cfg ~nodes:3 ~spare:false
    ~resilient:false (fun seed ->
      { Net.Faults.none with
        f_seed = seed;
        f_loss = 0.10;
        f_dup = 0.05;
        f_jitter_s = 0.00002;
        f_retransmit_s = 0.0001 })

let test_sched_equivalence_crash () =
  (* the F4 regime: loss, a healing partition, a stall and a node
     crash, recovered by resurrection on the spare *)
  let cfg = { grid_cfg with Mcc.Gridapp.work_us_per_step = 500 } in
  check_sched_equivalent ~name:"crash" ~cfg ~nodes:4 ~spare:true
    ~resilient:true (fun seed ->
      { Net.Faults.none with
        f_seed = seed;
        f_loss = 0.10;
        f_retransmit_s = 0.0001;
        f_partitions =
          [ { Net.Faults.pa = 0; pb = 1; p_from = 0.0004; p_until = 0.0008 }
          ];
        f_stalls =
          [ { Net.Faults.s_node = 2; s_at = 0.002; s_for = 0.0005 } ];
        f_crashes = [ { Net.Faults.c_node = 1; c_at = 0.004 } ] })

let suites =
  [
    ( "faults.plan",
      [
        Alcotest.test_case "parse + render round-trip" `Quick
          test_plan_roundtrip;
        Alcotest.test_case "malformed plans are rejected" `Quick
          test_plan_errors;
        Alcotest.test_case "rejections report line numbers" `Quick
          test_plan_errors_report_lines;
        Alcotest.test_case "NaN is rejected in files and in code" `Quick
          test_plan_rejects_nan;
        Alcotest.test_case "nodes outside the cluster are rejected" `Quick
          test_plan_rejects_missing_nodes;
        Alcotest.test_case "CLI seed overrides the file" `Quick
          test_plan_seed_override;
      ] );
    ( "faults.unit",
      [
        Alcotest.test_case "seeded decisions are deterministic" `Quick
          test_delivery_determinism;
        Alcotest.test_case "loopback is never faulted" `Quick
          test_no_faults_for_loopback;
        Alcotest.test_case "partition windows delay, drop and heal" `Quick
          test_partition_windows;
        Alcotest.test_case "stalls and crashes fire exactly once" `Quick
          test_stall_crash_fire_once;
      ] );
    ( "faults.idempotent_receive",
      [
        Alcotest.test_case "duplicate hops return the original outcome"
          `Quick test_idempotent_receive;
        Alcotest.test_case "dedup memory is a bounded FIFO" `Quick
          test_dedup_memory_bounded;
      ] );
    ( "faults.migration",
      [
        Alcotest.test_case "retry with backoff through a partition" `Quick
          test_migrate_retry_through_partition;
        Alcotest.test_case "unreachable target: resume locally" `Quick
          test_unreachable_resumes_locally;
        Alcotest.test_case "duplicated hop never double-spawns" `Quick
          test_duplicated_hop_is_deduplicated;
      ] );
    ( "faults.grid",
      [
        Alcotest.test_case "grid completes under loss + dup + jitter"
          `Quick test_grid_under_loss;
        Alcotest.test_case "same seed, byte-identical traces" `Quick
          test_trace_reproducible;
        Alcotest.test_case "partition-then-heal completes" `Quick
          test_grid_partition_then_heal;
        Alcotest.test_case "crash + stall: resurrect and finish" `Quick
          test_grid_crash_and_stall_recovery;
      ] );
    ( "faults.sched_equivalence",
      [
        Alcotest.test_case "loss grid: scan = indexed, 2 seeds" `Quick
          test_sched_equivalence_loss;
        Alcotest.test_case "crash grid: scan = indexed, 2 seeds" `Quick
          test_sched_equivalence_crash;
      ] );
    ( "faults.storage",
      [
        Alcotest.test_case "storage faults are seeded" `Quick
          test_storage_faults_seeded;
      ] );
    ( "faults.replicated_storage",
      [
        Alcotest.test_case "replica survives losing a node's store" `Quick
          test_replica_survives_node_loss;
        Alcotest.test_case "torn write: digest-verify and read-repair"
          `Quick test_torn_write_read_repair;
        Alcotest.test_case "bit flip is never served as data" `Quick
          test_bit_flip_never_served;
        Alcotest.test_case "k=1 lost replica: typed error" `Quick
          test_single_replica_loss_is_typed_error;
        Alcotest.test_case "incarnation epoch rides the wire" `Quick
          test_wire_epoch_roundtrip;
      ] );
    ( "faults.detector",
      [
        Alcotest.test_case "crash detected by missed heartbeats" `Quick
          test_heartbeat_crash_detection;
        Alcotest.test_case "false suspicion: fenced, exactly one copy"
          `Quick test_false_suspicion_fencing;
        Alcotest.test_case "same seed, byte-identical detector traces"
          `Quick test_detector_trace_deterministic;
      ] );
  ]
