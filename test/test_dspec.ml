(* Tests for the distributed-speculation coordinator: 2PC commit over
   epoch-pinned participants, distributed rollback with mailbox
   compensation, coordinator-death and coordinator-rollback aborts, and
   the headline property — speculative exactly-once serving under
   loss + duplication + crash_in_commit fault plans with services
   migrating mid-region.

   Cluster-level tests take their fault seed from MCC_FAULT_SEED when
   set (CI rotates it); every faulty scenario runs TWICE under the same
   seed and the JSONL traces must be byte-identical.  The fault-free
   coordinator-rollback and coordinator-crash runs below are pinned by
   the golden suite's trace digests instead. *)

open Kit

(* ------------------------------------------------------------------ *)
(* Trace audit: zero partial commits                                   *)
(* ------------------------------------------------------------------ *)

(* The audit the bench's F5 acceptance relies on ({!Obs.Audit}),
   exercised here at test scale. *)
let audit_no_partial_commits events =
  match Obs.Audit.partial_commits events with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let abort_reasons events =
  List.filter_map
    (fun (ev : Obs.Trace.event) ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Dspec_abort { reason; _ } -> Some reason
      | _ -> None)
    events

(* ------------------------------------------------------------------ *)
(* Transaction table lookups, no cluster                               *)
(* ------------------------------------------------------------------ *)

(* The lookups as a full scan of every transaction [find] knows, in
   ascending id order: what they must agree with however few of the
   transactions are still undecided. *)
let scan_all t ~opened =
  List.filter_map (Net.Dspec.find t) (List.init opened (fun i -> i + 1))

let is_open (x : Net.Dspec.txn) = x.Net.Dspec.x_state = Net.Dspec.Open

let is_uncompensated_abort (x : Net.Dspec.txn) =
  match x.Net.Dspec.x_state with
  | Net.Dspec.Aborted _ -> not x.Net.Dspec.x_compensated
  | Net.Dspec.Open | Net.Dspec.Committed -> false

let rooted ~coord_pid ~root_uid (x : Net.Dspec.txn) =
  x.Net.Dspec.x_coord_pid = coord_pid && x.Net.Dspec.x_root_uid = root_uid

let id (x : Net.Dspec.txn) = x.Net.Dspec.x_id

let pids = 5
let uids = 4

let check_lookups t ~opened ~step =
  let all = scan_all t ~opened in
  let check_id_opt what expect got =
    Alcotest.(check (option int))
      (Printf.sprintf "step %d: %s" step what)
      (Option.map id expect) (Option.map id got)
  in
  for coord_pid = 0 to pids - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "step %d: open_coordinated_by %d" step coord_pid)
      (List.map id
         (List.filter
            (fun x -> is_open x && x.Net.Dspec.x_coord_pid = coord_pid)
            all))
      (List.map id (Net.Dspec.open_coordinated_by t ~pid:coord_pid));
    for root_uid = 0 to uids - 1 do
      let key = rooted ~coord_pid ~root_uid in
      check_id_opt
        (Printf.sprintf "open_with_root %d/%d" coord_pid root_uid)
        (List.find_opt (fun x -> is_open x && key x) all)
        (Net.Dspec.open_with_root t ~coord_pid ~root_uid);
      check_id_opt
        (Printf.sprintf "aborted_with_root %d/%d" coord_pid root_uid)
        (List.find_opt (fun x -> is_uncompensated_abort x && key x) all)
        (Net.Dspec.aborted_with_root t ~coord_pid ~root_uid)
    done
  done;
  check_int
    (Printf.sprintf "step %d: undecided" step)
    (List.length
       (List.filter (fun x -> is_open x || is_uncompensated_abort x) all))
    (Net.Dspec.undecided t)

(* Two open transactions at the same coordinator level: the smaller id
   answers, and decided transactions stay visible to [find]. *)
let test_lookup_smallest_id_and_decided () =
  let t = Net.Dspec.create () in
  let opn () =
    Net.Dspec.open_txn t ~coord_pid:1 ~root_uid:5 ~coord_laddr:(-1)
  in
  let a = opn () in
  let b = opn () in
  let lookup () =
    Option.map id (Net.Dspec.open_with_root t ~coord_pid:1 ~root_uid:5)
  in
  Alcotest.(check (option int)) "smaller id wins" (Some (id a)) (lookup ());
  check_int "both undecided" 2 (Net.Dspec.undecided t);
  Net.Dspec.commit t a;
  Alcotest.(check (option int)) "next open answers" (Some (id b)) (lookup ());
  Net.Dspec.abort t b "fence";
  let c = opn () in
  Net.Dspec.abort t c "fence";
  let claim () =
    Option.map id (Net.Dspec.aborted_with_root t ~coord_pid:1 ~root_uid:5)
  in
  Alcotest.(check (option int)) "oldest abort claimed first" (Some (id b))
    (claim ());
  Net.Dspec.compensate t b ~discarded:0;
  Alcotest.(check (option int)) "then the next" (Some (id c)) (claim ());
  Net.Dspec.compensate t c ~discarded:1;
  check_int "all decided" 0 (Net.Dspec.undecided t);
  (match Net.Dspec.find t (id a) with
  | Some x ->
    check "committed still found" true
      (x.Net.Dspec.x_state = Net.Dspec.Committed)
  | None -> Alcotest.fail "committed txn lost");
  match Net.Dspec.find t (id b) with
  | Some x -> check "compensated still found" true x.Net.Dspec.x_compensated
  | None -> Alcotest.fail "compensated txn lost"

(* The table past its first allocation (16 slots): [find] answers every
   id opened, decided or not, and [None] for 0 and the next id; a
   re-instantiated pid is rewritten in decided and live transactions
   alike, as coordinator and as participant. *)
let test_table_growth_and_rebind () =
  let t = Net.Dspec.create () in
  let n = 40 in
  let txns =
    Array.init n (fun i ->
        let x =
          Net.Dspec.open_txn t ~coord_pid:(if i mod 2 = 0 then 7 else 8)
            ~root_uid:i ~coord_laddr:(-1)
        in
        Net.Dspec.register x ~pid:(if i mod 2 = 0 then 8 else 7) ~rank:3
          ~epoch:0;
        x)
  in
  Array.iteri
    (fun i x ->
      match i mod 4 with
      | 0 -> Net.Dspec.commit t x
      | 1 -> Net.Dspec.abort t x "fence"
      | 2 ->
        Net.Dspec.abort t x "fence";
        Net.Dspec.compensate t x ~discarded:0
      | _ -> ())
    txns;
  Array.iteri
    (fun i x ->
      match Net.Dspec.find t (i + 1) with
      | Some y when y == x -> ()
      | Some _ | None -> Alcotest.failf "find %d lost its transaction" (i + 1))
    txns;
  check "no transaction 0" true (Net.Dspec.find t 0 = None);
  check "none past the last id" true (Net.Dspec.find t (n + 1) = None);
  Net.Dspec.rebind_pid t ~old_pid:7 ~new_pid:17 ~uid_map:[ (4, 104) ]
    ~rank:5 ~epoch:2;
  Array.iteri
    (fun i x ->
      let part = List.hd x.Net.Dspec.x_parts in
      if i mod 2 = 0 then begin
        check_int "coordinator rebound" 17 x.Net.Dspec.x_coord_pid;
        check_int "root uid translated where mapped"
          (if i = 4 then 104 else i) x.Net.Dspec.x_root_uid;
        check_int "participant untouched" 8 part.Net.Dspec.p_pid
      end
      else begin
        check_int "coordinator untouched" 8 x.Net.Dspec.x_coord_pid;
        check "participant rebound with its rank and epoch" true
          (part.Net.Dspec.p_pid = 17 && part.Net.Dspec.p_rank = 5
          && part.Net.Dspec.p_epoch = 2)
      end)
    txns;
  check_int "the live ones still undecided" (n / 2) (Net.Dspec.undecided t)

(* A seeded random walk over every transition on one table, with the
   lookups checked against the full scan after each step.  Coordinator
   pids and root uids come from small ranges, so transactions collide
   on (coord_pid, root_uid) and re-keying hits live and decided ones. *)
let test_lookups_match_full_scan () =
  let rng = Random.State.make [| env_seed; 0xd5 |] in
  let int n = Random.State.int rng n in
  let t = Net.Dspec.create () in
  let opened = ref 0 in
  let open_one () =
    ignore
      (Net.Dspec.open_txn t ~coord_pid:(int pids) ~root_uid:(int uids)
         ~coord_laddr:(-1));
    incr opened
  in
  let some_txn () =
    match Net.Dspec.find t (1 + int !opened) with
    | Some x -> x
    | None -> Alcotest.fail "opened txn not found"
  in
  for step = 1 to 600 do
    (if !opened = 0 then open_one ()
     else
       match int 10 with
       | 0 | 1 | 2 -> open_one ()
       | 3 ->
         Net.Dspec.register (some_txn ()) ~pid:(int pids) ~rank:(int 4)
           ~epoch:(int 3)
       | 4 -> Net.Dspec.commit t (some_txn ())
       | 5 | 6 -> Net.Dspec.abort t (some_txn ()) "fence"
       | 7 -> Net.Dspec.compensate t (some_txn ()) ~discarded:(int 3)
       | 8 ->
         Net.Dspec.adopt (some_txn ()) ~coord_pid:(int pids)
           ~root_uid:(if int 2 = 0 then None else Some (int uids))
       | _ ->
         Net.Dspec.rebind_pid t ~old_pid:(int pids) ~new_pid:(int pids)
           ~uid_map:[ (int uids, int uids) ] ~rank:(int 4) ~epoch:(int 3));
    check_lookups t ~opened:!opened ~step
  done;
  check "the walk opened many transactions" true (!opened > 100)

(* ------------------------------------------------------------------ *)
(* Fault-free speculative serving                                      *)
(* ------------------------------------------------------------------ *)

let serve_cfg =
  { Mcc.Serve.clients = 3; services = 2; requests_per_client = 20;
    work_us = 20; skew = false; speculative = true }

let test_fault_free_speculative_serving () =
  let cluster = mk_cluster ~nodes:3 Net.Faults.none in
  let d = Mcc.Serve.deploy cluster serve_cfg in
  let r = Mcc.Serve.run d in
  let total =
    serve_cfg.Mcc.Serve.clients
    * serve_cfg.Mcc.Serve.requests_per_client
  in
  check "exactly-once" true (Mcc.Serve.exactly_once d r);
  check_int "one commit per unique request" total
    (counter cluster "dspec.commits");
  check_int "no aborts without faults" 0 (counter cluster "dspec.aborts");
  check_int "every opened txn resolved" (counter cluster "dspec.opened")
    (counter cluster "dspec.commits" + counter cluster "dspec.aborts");
  check_int "one prepare round per txn" (counter cluster "dspec.opened")
    (counter cluster "dspec.prepares");
  check_int "nothing left undecided" 0
    (Net.Dspec.undecided (Net.Cluster.dspec cluster));
  audit_no_partial_commits (Obs.Trace.events (Net.Cluster.trace cluster))

(* ------------------------------------------------------------------ *)
(* Coordinator rollback: abort + mailbox compensation                  *)
(* ------------------------------------------------------------------ *)

(* The coordinator opens a txn, sends a stamped message, and aborts its
   region before the participant consumes it (the participant is pinned
   in work_us long past the abort): the txn must abort with
   "coordinator_rolled_back" and compensation must un-deliver the
   message.  The retry round then commits cleanly through the 2PC. *)
let coord_rollback_src =
  {|
int main() {
  float *buf = alloc_float(2);
  int specid; int txn; int rc; int tries;
  tries = 0;
  specid = speculate();
  if (specid < 0) { specid = 0 - specid; tries = 1; }
  buf[0] = 7.0;
  txn = dspec_open();
  msg_send(1, 5, buf, 1);
  if (tries == 0) { abort(specid); }
  rc = dspec_commit(txn);
  if (rc == 0) { commit(specid); }
  if (rc < 0) { return 0 - 1; }
  return txn;
}
|}

let part_consume_src =
  {|
int main() {
  float *buf = alloc_float(2);
  int got; int cs; int fin;
  work_us(1000);
  cs = speculate();
  if (cs < 0) { cs = 0 - cs; }
  got = msg_try_recv(0, 5, buf, 1);
  while (got == 0 - 1) { got = msg_try_recv(0, 5, buf, 1); }
  if (got == 0 - 2) { abort(cs); }
  fin = spec_pending();
  while (fin == 1) { fin = spec_pending(); }
  commit(cs);
  return (int)buf[0];
}
|}

let run_coord_rollback () =
  let cluster = mk_cluster ~nodes:2 Net.Faults.none in
  let coord =
    Net.Cluster.spawn cluster ~rank:0 ~node_id:0 (compile_c coord_rollback_src)
  in
  let part =
    Net.Cluster.spawn cluster ~rank:1 ~node_id:1 (compile_c part_consume_src)
  in
  ignore (Net.Cluster.run cluster ~max_rounds:200_000);
  cluster, coord, part

let test_coordinator_rollback_compensates () =
  let cluster, coord, part = run_coord_rollback () in
  check "coordinator exited with the retry txn" true
    (Net.Cluster.exit_code cluster coord = Some 2);
  check "participant saw the retried payload" true
    (Net.Cluster.exit_code cluster part = Some 7);
  check_int "first txn aborted" 1 (counter cluster "dspec.aborts");
  check_int "retry txn committed" 1 (counter cluster "dspec.commits");
  check_int "the stamped message was un-delivered" 1
    (counter cluster "dspec.compensated");
  (match Net.Dspec.find (Net.Cluster.dspec cluster) 1 with
  | Some txn ->
    check "txn 1 state" true
      (txn.Net.Dspec.x_state = Net.Dspec.Aborted "coordinator_rolled_back")
  | None -> Alcotest.fail "txn 1 not found");
  (match Net.Dspec.find (Net.Cluster.dspec cluster) 2 with
  | Some txn ->
    check "txn 2 state" true (txn.Net.Dspec.x_state = Net.Dspec.Committed)
  | None -> Alcotest.fail "txn 2 not found");
  check "abort reason recorded" true
    (List.mem "coordinator_rolled_back"
       (abort_reasons (Obs.Trace.events (Net.Cluster.trace cluster))));
  audit_no_partial_commits (Obs.Trace.events (Net.Cluster.trace cluster))

(* ------------------------------------------------------------------ *)
(* Coordinator crash: the participant must not wait forever            *)
(* ------------------------------------------------------------------ *)

(* The coordinator opens a txn, the participant JOINS it by consuming
   the stamped message and spins on the pre-commit barrier; then the
   coordinator's node dies.  The txn must abort with
   "coordinator_dead" and the cascade must force-roll the joined
   participant off the doomed region. *)
let coord_crash_src =
  {|
int main() {
  float *buf = alloc_float(2);
  int specid; int txn; int got;
  specid = speculate();
  if (specid < 0) { specid = 0 - specid; }
  buf[0] = 42.0;
  txn = dspec_open();
  msg_send(1, 5, buf, 1);
  got = msg_try_recv(1, 9, buf, 1);
  while (got == 0 - 1) { got = msg_try_recv(1, 9, buf, 1); }
  commit(specid);
  return txn;
}
|}

let part_join_src =
  {|
int main() {
  float *buf = alloc_float(2);
  int got; int cs; int fin;
  cs = speculate();
  if (cs < 0) { cs = 0 - cs; }
  got = msg_try_recv(0, 5, buf, 1);
  while (got == 0 - 1) { got = msg_try_recv(0, 5, buf, 1); }
  if (got == 0 - 2) { abort(cs); }
  fin = spec_pending();
  while (fin == 1) { fin = spec_pending(); }
  commit(cs);
  return (int)buf[0];
}
|}

let run_coord_crash () =
  let cluster = mk_cluster ~nodes:2 Net.Faults.none in
  let coord =
    Net.Cluster.spawn cluster ~rank:0 ~node_id:0 (compile_c coord_crash_src)
  in
  let part =
    Net.Cluster.spawn cluster ~rank:1 ~node_id:1 (compile_c part_join_src)
  in
  (* run until the participant is spinning on the barrier (the
     coordinator parks on a tag that never arrives; the budget bounds
     the participant's spin) *)
  ignore (Net.Cluster.run cluster ~max_rounds:2_000);
  Net.Cluster.fail_node cluster 0;
  ignore (Net.Cluster.run cluster ~max_rounds:2_000);
  cluster, coord, part

let test_coordinator_crash_aborts () =
  let cluster, _coord, part = run_coord_crash () in
  check_int "txn aborted" 1 (counter cluster "dspec.aborts");
  check_int "nothing committed" 0 (counter cluster "dspec.commits");
  (match Net.Dspec.find (Net.Cluster.dspec cluster) 1 with
  | Some txn ->
    check "txn 1 state" true
      (txn.Net.Dspec.x_state = Net.Dspec.Aborted "coordinator_dead")
  | None -> Alcotest.fail "txn 1 not found");
  check "abort reason recorded" true
    (List.mem "coordinator_dead"
       (abort_reasons (Obs.Trace.events (Net.Cluster.trace cluster))));
  (* the joined participant was rolled off the doomed region *)
  let forced =
    List.exists
      (fun (ev : Obs.Trace.event) ->
        ev.Obs.Trace.pid = part
        &&
        match ev.Obs.Trace.kind with
        | Obs.Trace.Forced_rollback _ -> true
        | _ -> false)
      (Obs.Trace.events (Net.Cluster.trace cluster))
  in
  check "participant force-rolled" true forced

(* ------------------------------------------------------------------ *)
(* Participant crash in the commit round, under full fault plans       *)
(* ------------------------------------------------------------------ *)

let f5_plan seed =
  { Net.Faults.none with
    f_seed = seed;
    f_loss = 0.05;
    f_dup = 0.05;
    f_crash_in_commit = 0.35 }

(* The headline: speculative exactly-once serving with services
   migrating mid-region while the commit round loses participants to
   crash_in_commit.  Every abort must replay to a clean commit; the
   dedup state must never double-serve. *)
let run_f5 seed =
  let cluster = mk_cluster ~nodes:3 (f5_plan seed) in
  let d = Mcc.Serve.deploy cluster serve_cfg in
  let r =
    Mcc.Serve.run ~migrate_every_s:0.002 ~migrations:4 d
  in
  cluster, d, r

let test_speculative_serving_under_faults () =
  let cluster, d, r = run_f5 env_seed in
  let total =
    serve_cfg.Mcc.Serve.clients
    * serve_cfg.Mcc.Serve.requests_per_client
  in
  check "exactly-once under faults" true (Mcc.Serve.exactly_once d r);
  check_int "one commit per unique request" total
    (counter cluster "dspec.commits");
  check "commit rounds were crashed" true (counter cluster "dspec.aborts" > 0);
  check "crashed acks were fenced" true
    (counter cluster "dspec.fence_rejections" > 0);
  check_int "every opened txn resolved" (counter cluster "dspec.opened")
    (counter cluster "dspec.commits" + counter cluster "dspec.aborts");
  check_int "every abort compensated, nothing left undecided" 0
    (Net.Dspec.undecided (Net.Cluster.dspec cluster));
  audit_no_partial_commits (Obs.Trace.events (Net.Cluster.trace cluster))

let test_faulty_serving_reproducible () =
  let trace () =
    let cluster, _, _ = run_f5 env_seed in
    Obs.Trace.to_jsonl (Net.Cluster.trace cluster)
  in
  Alcotest.(check string) "same seed, byte-identical traces" (trace ())
    (trace ())

let suites =
  [
    ( "dspec",
      [
        Alcotest.test_case "lookups: smallest id, decided still found"
          `Quick test_lookup_smallest_id_and_decided;
        Alcotest.test_case "table grows past 16, rebind reaches every txn"
          `Quick test_table_growth_and_rebind;
        Alcotest.test_case "lookups match a full scan (random walk)" `Quick
          test_lookups_match_full_scan;
        Alcotest.test_case "fault-free speculative serving" `Quick
          test_fault_free_speculative_serving;
        Alcotest.test_case "coordinator rollback compensates mailboxes"
          `Quick test_coordinator_rollback_compensates;
        Alcotest.test_case "coordinator crash aborts the txn" `Quick
          test_coordinator_crash_aborts;
        Alcotest.test_case "exactly-once under crash_in_commit + migration"
          `Quick test_speculative_serving_under_faults;
        Alcotest.test_case "faulty serving: byte-identical traces" `Quick
          test_faulty_serving_reproducible;
      ] );
  ]
