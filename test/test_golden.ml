(* Golden digests: the MD5 of the JSONL trace and of the rendered metrics
   registry for fixed-seed cluster scenarios.  A cluster refactor that
   claims "behaviour unchanged" keeps every digest.  Together the
   scenarios reach every migration, failure, receive and
   speculation-abort path of [Net.Cluster] and the placement-policy
   tick, and one runs on the legacy scan scheduler.  None reads MCC_FAULT_SEED.

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

(* Move.Running: into a dead link (Unreachable), a landing move, and a
   delta hop back *)
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
    Mcc.Gridapp.Serve.deploy ~engine:`Masm c
      { Mcc.Gridapp.Serve.clients = 3; services = 2; requests_per_client = 40;
        work_us = 20; skew = false; speculative = false }
  in
  let r = Mcc.Gridapp.Serve.run ~migrate_every_s:0.0005 ~migrations:3 d in
  check "exactly once" true (Mcc.Gridapp.Serve.exactly_once d r);
  c

(* checkpoint chains, a node crash with roll notices, resurrection on the
   spare; on the indexed and on the legacy scan scheduler *)
let grid ~legacy ~seed () =
  let plan =
    { none with
      f_seed = seed;
      f_loss = 0.10;
      f_retransmit_s = 0.0001;
      f_partitions =
        [ { Net.Faults.pa = 0; pb = 1; p_from = 0.0004; p_until = 0.0008 } ];
      f_stalls = [ { Net.Faults.s_node = 2; s_at = 0.002; s_for = 0.0005 } ];
      f_crashes = [ { Net.Faults.c_node = 1; c_at = 0.004 } ] }
  in
  fst
    (Test_faults.run_grid_sched ~legacy ~seed ~cfg:Test_faults.work_cfg
       ~nodes:4 ~spare:true ~resilient:true plan)

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
        balance = { Net.Balance.Config.default with enabled = true } }
  in
  let d =
    Mcc.Gridapp.Serve.deploy ~engine:`Masm ~placement:(`Pack 1) c
      { Mcc.Gridapp.Serve.clients = 4; services = 3; requests_per_client = 30;
        work_us = 100; skew = true; speculative = false }
  in
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
      "2ad5c843722f3ce1ee7ee09d9382b369", "4a4f0540b7791d95d2f73307c4ebe45e" );
    ( "program migrate: retries exhausted", program_migrate_exhausted,
      [ "migrate_retry"; "\"ok\":false" ],
      "765d46b6a25422bda2a8dd081436e5c6", "577353f026a37eb02c691a953c464290" );
    ( "program migrate: refused targets", program_migrate_refused,
      [ "\"target\":\"node1\",\"bytes\":0"; "not a target" ],
      "782552ebb8f45f3cbc086c035050a9da", "fb2ed2e2e4d345de7f403ebd23a8ac87" );
    ( "Move.Running: unreachable, ok, delta back", move_running,
      [ "\"ok\":false"; "\"ok\":true" ],
      "bfb27bae27e715d08284dc68c7de10b5", "da7cf62de2bdb26a2acf065392aa2b05" );
    ( "serve re-homing", serve_rehome,
      [ "msg_forward"; "recipient_moved" ],
      "3069e34831263883ea77a8d172094d3e", "0438f149072316d2f6fb670af762ece5" );
    ( "grid: crash, checkpoint chain, resurrection",
      grid ~legacy:false ~seed:11,
      [ "node_fail"; "checkpoint"; "msg_roll"; "resurrect" ],
      "7423c9c21c6db03767c1447b2e2c8411", "3386c5c8c11da7684893051120c548b2" );
    ( "grid on the legacy scan scheduler", grid ~legacy:true ~seed:23,
      [ "node_fail"; "resurrect" ],
      "0d749659725f5d87097689fed276abe8", "6568ad3938b7b9bc6deafd25c9afd584" );
    ( "false suspicion retires the zombie", false_suspicion,
      [ "suspect"; "\"what\":\"schedule\"" ],
      "c243e747226ce92fe80473cfc475f664", "5a4231b636a31cf54a8f7df41327f9c8" );
    ( "obj/fs undo across nested levels", undo_logs,
      [ "spec_rollback" ],
      "f8b9abb1c2e79d6035915a21c29118ec", "3b2f01ac28683ac5ee9482d9b10ca39d" );
    ( "dspec abort: coordinator_rolled_back", dspec_rolled_back,
      [ "coordinator_rolled_back"; "dspec_compensate" ],
      "2264357f8b1dde296e555b516ab4431b", "b47190af5e1a985d27cdf3ef6bee962f" );
    ( "dspec abort: coordinator_dead", dspec_coordinator_dead,
      [ "coordinator_dead"; "forced_rollback" ],
      "0f00ba4502c344dea8943271a13b9f52", "3ab67ac5996aeec29348864ac567fd0b" );
    ( "dspec abort: crash_in_commit", dspec_crash_in_commit,
      [ "crash_in_commit" ],
      "b79d04a092756387582d57bc28092a93", "5b68a56c7e69ba5d40d6085ea2912ff5" );
    ( "dspec abort: fence", dspec_fence,
      [ "\"reason\":\"fence\"" ],
      "b1c6dcb5f4ce60f3c171c0fb9d608ba2", "b21320cc42a1dcfdaf33dce5bf646318" );
    ( "balance ticks, dup hops, expired forwarders", balanced_serve,
      [ "balance_tick"; "dup_delivery"; "forward_expired" ],
      "d92f9f9013f29e3e9f2908ff54a55c0b", "ea8e1cc4acb386d71bc1c1d3007e51dd" );
    ( "stale traffic, wildcard roll, drop, read repair", stale_traffic,
      [ "msg_drop"; "storage_repair"; "\"what\":\"stale_msg\"";
        "\"src\":-1" ],
      "94a91fbd093b0412271104cdc80f4233", "a8e92985c67482d36dea3f539e790737" );
  ]

let md5 s = Digest.to_hex (Digest.string s)

let observe scenario =
  let c = scenario () in
  ( Obs.Trace.to_jsonl (Net.Cluster.trace c),
    Obs.Metrics.render (Net.Cluster.metrics c) )

let test_case (name, scenario, evidence, trace_md5, metrics_md5) =
  Alcotest.test_case name `Quick (fun () ->
      let trace, metrics = observe scenario in
      List.iter
        (fun sub ->
          check ("trace has " ^ sub) true (contains trace sub))
        evidence;
      let check = Alcotest.(check string) in
      if int_of_string (String.sub Sys.ocaml_version 0 1) >= 5 then begin
        check "trace digest" trace_md5 (md5 trace);
        check "metrics digest" metrics_md5 (md5 metrics)
      end
      else begin
        let trace', metrics' = observe scenario in
        check "trace reproducible" trace trace';
        check "metrics reproducible" metrics metrics'
      end)

let suites = [ ("golden", List.map test_case golden) ]
