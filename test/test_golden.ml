(* Golden digests: the MD5 of the JSONL trace and of the rendered metrics
   registry for fixed-seed cluster scenarios.  A cluster refactor that
   claims "behaviour unchanged" keeps every digest.  Together the
   scenarios reach every migration, failure, receive and
   speculation-abort path of [Net.Cluster] and the placement-policy
   tick.  None reads MCC_FAULT_SEED.

   OCaml 5 changed the stdlib [Random] algorithm, so fault draws (and
   hence traces) differ between OCaml 4.14 and 5.x.  The digests are
   pinned for OCaml >= 5; on older compilers each scenario runs twice
   and the two runs must agree byte for byte instead. *)

open Kit

let none = Net.Faults.none
let run ?max_rounds c = ignore (Net.Cluster.run ?max_rounds c)
let spawn ?rank c node prog = Net.Cluster.spawn c ?rank ~node_id:node prog

let fst3 (c, _, _) = c

let cut_link a b seed =
  { none with
    f_seed = seed;
    f_partitions =
      [ { Net.Faults.pa = a; pb = b; p_from = 0.0; p_until = infinity } ] }

(* program migrate: a cold hop, then delta hops *)
let program_migrate_ok () =
  let c = mk_cluster ~nodes:2 ~seed:5 none in
  ignore (spawn c 0 (compile_c Test_delta.bouncing_worker));
  run c;
  c

(* program migrate into a link that never heals: the retry budget runs
   out, the process pays for the attempts and resumes locally *)
let program_migrate_exhausted () =
  let c = mk_cluster ~nodes:2 (cut_link 0 1 3) in
  ignore
    (spawn ~rank:2 c 0 (Test_net.migrate_then_finish ~target:"mcc://node1"));
  run c;
  c

(* refused hops: dead target, own node, unknown host, unparseable *)
let program_migrate_refused () =
  let c = mk_cluster none in
  Net.Cluster.fail_node c 1;
  List.iteri
    (fun rank target ->
      ignore (spawn ~rank c 0 (Test_net.migrate_then_finish ~target)))
    [ "mcc://node1"; "mcc://node0"; "mcc://nosuch"; "not a target" ];
  run c;
  c

(* Move.Running: into a dead link (Unreachable at the code offer), a
   move that compiles ahead and cuts over, and a delta hop back (which
   compiles ahead too: the source node never held the code) *)
let move_running () =
  let c = mk_cluster (cut_link 0 2 4) in
  let pid = spawn c 0 Test_faults.summing_worker in
  let move pid dest = move_running c ~pid ~node_id:dest in
  let landed = function
    | Ok rep -> rep.Net.Cluster.rep_pid
    | Error e -> Alcotest.fail (Net.Cluster.migration_error_to_string e)
  in
  run ~max_rounds:25 c;
  (match move pid 2 with
  | Error (Net.Cluster.Unreachable _) -> ()
  | _ -> Alcotest.fail "expected Unreachable");
  let pid = landed (move pid 1) in
  run ~max_rounds:25 c;
  ignore (landed (move pid 0));
  run c;
  c

(* serving under loss + duplication while services are re-homed *)
let serve_rehome () =
  let c =
    mk_cluster ~seed:11
      { none with
        f_seed = 11; f_loss = 0.05; f_dup = 0.02; f_jitter_s = 0.000005;
        f_retransmit_s = 0.00005 }
  in
  let d =
    Mcc.Gridapp.Serve.deploy c
      { Mcc.Gridapp.Serve.clients = 3; services = 2; requests_per_client = 40;
        work_us = 20; skew = false; speculative = false }
  in
  let r = Mcc.Gridapp.Serve.run ~migrate_every_s:0.0005 ~migrations:3 d in
  check "exactly once" true (Mcc.Gridapp.Serve.exactly_once d r);
  c

(* checkpoint chains, a node crash with roll notices, resurrection on the
   spare *)
let grid ~seed () =
  let c = mk_cluster ~nodes:4 ~seed (Test_faults.crash_plan seed) in
  ignore (Test_faults.run_grid_checked c ~cfg:Test_faults.work_cfg ~spare:true);
  c

(* a stalled node is falsely suspected; resurrection retires the stalled
   incarnation *)
let false_suspicion () = fst (Test_faults.false_suspicion_run 11)

(* object and file writes in nested levels: the inner commit folds the
   undo logs into the outer level, whose abort undoes them *)
let undo_logs () =
  let c = mk_cluster ~nodes:1 none in
  let pid =
    spawn c 0
      (compile_c
         {|
int main() {
  int *buf = alloc_int(4);
  buf[0] = 65; buf[1] = 66; buf[2] = 67; buf[3] = 68;
  fs_write("acct", buf, 2);
  obj_write(1, buf, 4);
  int outer = speculate();
  if (outer > 0) {
    buf[0] = 90;
    obj_write(1, buf, 4);
    int inner = speculate();
    if (inner > 0) {
      buf[1] = 91;
      obj_write(1, buf, 4);
      obj_write(2, buf, 2);
      fs_write("acct", buf, 2);
      fs_write("fresh", buf, 1);
      commit(inner);
    }
    abort(outer);
  }
  int *back = alloc_int(4);
  fs_read("acct", back, 2);
  return back[0] + back[1] + fs_size("fresh");
}
|})
  in
  run c;
  check "writes undone" true
    (status_of c pid = Vm.Process.Exited 130
    && Net.Cluster.get_object c 1 = Some "ABCD"
    && Net.Cluster.get_object c 2 = None);
  c

(* the coordinator rolls its region back: "coordinator_rolled_back" *)
let dspec_rolled_back () = fst3 (Test_dspec.run_coord_rollback ())

(* a participant crashes between prepare-ack and commit receipt *)
let dspec_crash_in_commit () = fst3 (Test_dspec.run_f5 11)

(* the coordinator's node dies while a joined participant waits on the
   pre-commit barrier: "coordinator_dead" *)
let dspec_coordinator_dead () = fst3 (Test_dspec.run_coord_crash ())

(* a participant's rank is resurrected between its join and the prepare
   round: "fence"; the retry round commits against the new incarnation *)
let dspec_fence () =
  let c = mk_cluster none in
  let coord =
    spawn ~rank:0 c 0
      (compile_c
         {|
int main() {
  float *buf = alloc_float(2);
  int specid; int txn; int rc; int tries; int got;
  tries = 0;
  specid = speculate();
  if (specid < 0) { specid = 0 - specid; tries = 1; }
  txn = dspec_open();
  msg_send(1, 5, buf, 1);
  if (tries == 0) {
    got = msg_try_recv(2, 7, buf, 1);
    while (got == 0 - 1) { got = msg_try_recv(2, 7, buf, 1); }
  }
  rc = dspec_commit(txn);
  if (rc < 0) { abort(specid); }
  commit(specid);
  return txn;
}
|})
  in
  ignore
    (spawn ~rank:1 c 1
       (compile_c
          {|
int main() {
  float *buf = alloc_float(2);
  int got;
  migrate("checkpoint://dspec_p1");
  got = msg_try_recv(0, 5, buf, 1);
  while (got < 0) { got = msg_try_recv(0, 5, buf, 1); }
  return 0;
}
|}));
  run ~max_rounds:200 c;
  (match Net.Cluster.resurrect c ~rank:1 ~node_id:2 ~path:"dspec_p1" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  ignore
    (spawn ~rank:2 c 1
       (compile_c "int main() { return msg_send(0, 7, alloc_float(1), 1); }"));
  run c;
  check "retry committed" true
    (status_of c coord = Vm.Process.Exited 2);
  c

(* the placement policy re-homes services packed onto one node, under
   duplicated hops and a forwarder TTL shorter than a moved notice's
   flight: balance ticks, deduplicated hop deliveries, expired
   forwarders *)
let balanced_serve () =
  let c =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        node_count = 3;
        seed = 7;
        net = Some (Net.Simnet.create ~latency_us:5.0 ());
        faults = { none with f_seed = 7; f_dup = 0.5 };
        forward_ttl_s = 0.000001;
        balance = true }
  in
  let d =
    Mcc.Gridapp.Serve.deploy ~placement:(`Pack 1) c
      { Mcc.Gridapp.Serve.clients = 4; services = 3; requests_per_client = 30;
        work_us = 100; skew = true; speculative = false }
  in
  (* the run is shorter than a compile: every node holds every service's
     code, so the policy's moves land at once and their hops duplicate *)
  seed_services c d;
  let r = Mcc.Gridapp.Serve.run ~migrate_every_s:0.0005 ~migrations:2 d in
  check "exactly once" true (Mcc.Gridapp.Serve.exactly_once d r);
  c

(* a sender checkpoints to a replicated store, sends, and dies with its
   node; a wildcard receiver observes the roll, the resurrection's read
   repairs a lost replica, and the dead incarnation's queued message is
   purged as stale before the successor's copy is received.  A third
   rank sends across a link that never heals. *)
let stale_traffic () =
  let c =
    mk_cluster ~nodes:4 ~seed:3 ~replication:3
      { (cut_link 0 3 3) with f_store_lost = 0.4 }
  in
  let receiver =
    spawn ~rank:0 c 0
      (compile_c
         {|
int main() {
  float *buf = alloc_float(2);
  int i; int acc; int got; int rolls;
  acc = 0;
  for (i = 0; i < 50000; i = i + 1) { acc = (acc + i) % 1000; }
  rolls = 0;
  got = msg_try_recv_any(5, buf, 1);
  while (got < 0) {
    if (got == 0 - 2) { rolls = rolls + 1; }
    got = msg_try_recv_any(5, buf, 1);
  }
  msg_send(1, 6, buf, 1);
  return rolls + (int)buf[0];
}
|})
  in
  ignore
    (spawn ~rank:1 c 1
       (compile_c
          {|
int main() {
  float *buf = alloc_float(2);
  int got;
  migrate("checkpoint://stale_p1");
  buf[0] = 20.0;
  msg_send(0, 5, buf, 1);
  got = msg_try_recv(0, 6, buf, 1);
  while (got < 0) { got = msg_try_recv(0, 6, buf, 1); }
  return got;
}
|}));
  ignore
    (spawn ~rank:2 c 3
       (compile_c "int main() { return msg_send(0, 9, alloc_float(1), 1); }"));
  run ~max_rounds:200 c;
  Net.Cluster.fail_node c 1;
  (match Net.Cluster.resurrect c ~rank:1 ~node_id:2 ~path:"stale_p1" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  run c;
  check "one roll, then the successor's message" true
    (status_of c receiver = Vm.Process.Exited 21);
  c

(* name, scenario, evidence the trace must contain, trace MD5, metrics MD5 *)
let golden =
  [
    ( "program migrate: cold + delta hops", program_migrate_ok,
      [ "\"ok\":true" ],
      "354b201ea98ceab4a96fc1896db58f41", "355f460022499f591edfa536eb9ac2a3" );
    ( "program migrate: retries exhausted", program_migrate_exhausted,
      [ "migrate_retry"; "\"ok\":false" ],
      "125434faeea46f778a724672b61875ba", "ec7b6112738e1968d2d95b23038c5f90" );
    ( "program migrate: refused targets", program_migrate_refused,
      [ "\"target\":\"node1\",\"bytes\":0"; "not a target" ],
      "e69f0f7835f71670532f86de2b280e62", "e1e18ba8b57bd5331e9cf2ad20ba751f" );
    ( "Move.Running: unreachable, ok, delta back", move_running,
      [ "\"ok\":false"; "\"ok\":true" ],
      "23202e10cd6561c5489761393c07710d", "d80145f5008357ce8ae3aff375768ee9" );
    ( "serve re-homing", serve_rehome,
      [ "msg_forward"; "recipient_moved" ],
      "9fababf3e422ad5a60a8898b26455d93", "6d234741fdc274790aad0e0b2ba4c6c7" );
    ( "grid: crash, checkpoint chain, resurrection",
      grid ~seed:11,
      [ "node_fail"; "checkpoint"; "msg_roll"; "resurrect" ],
      "2d6e238e7f4f1282cfdf407ab3f671cc", "2e32d834454047c9afecce43a85655bc" );
    ( "grid on seed 23: crash, resurrection", grid ~seed:23,
      [ "node_fail"; "resurrect" ],
      "96bf72f251157c67544a315ae920cc97", "93c0b136a4ec132e2f5eec8f0047855e" );
    ( "false suspicion retires the zombie", false_suspicion,
      [ "suspect"; "\"what\":\"schedule\"" ],
      "5fb30e21bfd1b2a199bc3ce558823eff", "a68efa6048c5efe208db7c4c0d9abcda" );
    ( "obj/fs undo across nested levels", undo_logs,
      [ "spec_rollback" ],
      "b515e0101c2ba4b3f7b4ee8cd3d3ac4b", "5b99a3cea1cfaad0a36250e54764b59f" );
    ( "dspec abort: coordinator_rolled_back", dspec_rolled_back,
      [ "coordinator_rolled_back"; "dspec_compensate" ],
      "fe73de8a863d7b8e56e394f84a39a3b3", "b43ae32bab6b267ac24cd100b5b656b7" );
    ( "dspec abort: coordinator_dead", dspec_coordinator_dead,
      [ "coordinator_dead"; "forced_rollback" ],
      "457c79b732b139db6a70d8b7aafd20df", "f4c2b4e998354711ed9517ea67a27e56" );
    ( "dspec abort: crash_in_commit", dspec_crash_in_commit,
      [ "crash_in_commit" ],
      "6d6e9f9fc9b2e2ee74cc53c63d1d048c", "cc6a71674d0301cfb70984cc35724dd5" );
    ( "dspec abort: fence", dspec_fence,
      [ "\"reason\":\"fence\"" ],
      "627d423411b1196da84e066a357b8114", "4792356edab6bc90627bc9edacbb6e47" );
    ( "balance ticks, dup hops, expired forwarders", balanced_serve,
      [ "balance_tick"; "dup_delivery"; "forward_expired" ],
      "120cb3497278394763d40aa1c2c29f64", "5b2f445fccd42c159aad998a85b25710" );
    ( "stale traffic, wildcard roll, drop, read repair", stale_traffic,
      [ "msg_drop"; "storage_repair"; "\"what\":\"stale_msg\"";
        "\"src\":-1" ],
      "abfff4d0402673c08655d79a2150c870", "64c090f1acd8c124db2406b6d77b7981" );
  ]

let md5 s = Digest.to_hex (Digest.string s)

let observe scenario =
  let c = scenario () in
  ( Obs.Trace.to_jsonl (Net.Cluster.trace c),
    Obs.Metrics.render (Net.Cluster.metrics c) )

(* A scenario whose digest differs leaves its JSONL trace and rendered
   registry in the working directory, as golden-<name>.jsonl and
   golden-<name>.metrics, so the change can be read as a line diff
   against the same files from a good build. *)
let dump name trace metrics =
  let slug =
    String.split_on_char '-'
      (String.map
         (function
           | ('a' .. 'z' | '0' .. '9') as ch -> ch
           | 'A' .. 'Z' as ch -> Char.lowercase_ascii ch
           | _ -> '-')
         name)
    |> List.filter (fun w -> w <> "")
    |> String.concat "-"
  in
  let write ext contents =
    let file = Printf.sprintf "golden-%s.%s" slug ext in
    Out_channel.with_open_bin file (fun oc -> output_string oc contents);
    Filename.concat (Sys.getcwd ()) file
  in
  write "jsonl" trace, write "metrics" metrics

let test_case (name, scenario, evidence, trace_md5, metrics_md5) =
  Alcotest.test_case name `Quick (fun () ->
      let trace, metrics = observe scenario in
      List.iter
        (fun sub ->
          check ("trace has " ^ sub) true (contains trace sub))
        evidence;
      if int_of_string (String.sub Sys.ocaml_version 0 1) >= 5 then begin
        let got_trace = md5 trace and got_metrics = md5 metrics in
        if got_trace <> trace_md5 || got_metrics <> metrics_md5 then begin
          let trace_file, metrics_file = dump name trace metrics in
          Alcotest.failf
            "digest differs: trace %s (pinned %s), metrics %s (pinned %s); \
             wrote %s and %s"
            got_trace trace_md5 got_metrics metrics_md5 trace_file
            metrics_file
        end
      end
      else begin
        let check = Alcotest.(check string) in
        let trace', metrics' = observe scenario in
        check "trace reproducible" trace trace';
        check "metrics reproducible" metrics metrics'
      end)

let suites = [ ("golden", List.map test_case golden) ]
