(* Tests for the load-aware placement policy engine and the unified
   move API it drives.

   Planner units exercise Net.Balance in isolation (convergence within
   a bounded number of periods, the tolerance band and repulsion margin
   that forbid ping-pong, the per-node move budget, affinity-steered
   destination choice, decay/rekey of the affinity matrix).  Cluster
   integration runs the skewed serving workload on a 64-node cluster
   with the engine on and off.  The reason-equivalence suite asserts
   that Move.reason is pure accounting: the same scenario driven with
   reasons Explicit / Policy / Rehome — and the resurrect convenience
   wrapper vs a hand-built Image request — produces byte-identical
   event traces.

   Fault-plan scenarios take their seed from MCC_FAULT_SEED when set,
   so CI can run the suite under several seeds. *)

open Kit

(* ------------------------------------------------------------------ *)
(* Planner units                                                       *)
(* ------------------------------------------------------------------ *)

let mk_load ?(alive = true) ?(runnable = 0) ?(mailbox = 0) node cycles =
  { Net.Balance.nl_node = node;
    nl_alive = alive;
    nl_runnable = runnable;
    nl_cycles_per_s = cycles;
    nl_mailbox = mailbox }

let no_ranks _ = None

(* Simulate the cluster's sample/plan/apply loop on a synthetic load
   vector until the planner goes quiet; returns (periods, total moves,
   final loads, final candidates). *)
let converge b ~loads ~candidates ~max_periods =
  let loads = Array.copy loads in
  let candidates = ref candidates in
  let periods = ref 0 in
  let moves = ref 0 in
  let quiet = ref false in
  while (not !quiet) && !periods < max_periods do
    incr periods;
    let props =
      Net.Balance.plan b ~loads ~candidates:!candidates
        ~node_of_rank:no_ranks
    in
    if props = [] then quiet := true
    else
      List.iter
        (fun (p : Net.Balance.proposal) ->
          incr moves;
          let c =
            List.find
              (fun (c : Net.Balance.candidate) ->
                c.Net.Balance.cd_pid = p.Net.Balance.pr_pid)
              !candidates
          in
          loads.(p.pr_from) <-
            { (loads.(p.pr_from)) with
              nl_cycles_per_s =
                loads.(p.pr_from).Net.Balance.nl_cycles_per_s
                -. c.Net.Balance.cd_load };
          loads.(p.pr_to) <-
            { (loads.(p.pr_to)) with
              nl_cycles_per_s =
                loads.(p.pr_to).Net.Balance.nl_cycles_per_s
                +. c.Net.Balance.cd_load };
          candidates :=
            List.map
              (fun (c : Net.Balance.candidate) ->
                if c.Net.Balance.cd_pid = p.pr_pid then
                  { c with Net.Balance.cd_node = p.pr_to }
                else c)
              !candidates)
        props
  done;
  (!periods, !moves, loads, !candidates)

(* A fully packed node vs idle peers: the planner spreads the load and
   then goes quiet, within a handful of periods and without a candidate
   ever bouncing. *)
let test_planner_convergence () =
  let b = Net.Balance.create () in
  let loads = Array.init 8 (fun n -> mk_load n (if n = 0 then 80. else 0.)) in
  let candidates =
    List.init 8 (fun i ->
        { Net.Balance.cd_pid = 100 + i; cd_node = 0; cd_load = 10. })
  in
  let periods, moves, loads, _ = converge b ~loads ~candidates ~max_periods:20 in
  check "planner went quiet within 20 periods" true (periods < 20);
  (* 8 jobs of equal weight over 8 nodes: the balanced fixed point
     needs at least 7 departures; bouncing would need more than 14 *)
  check "enough moves to balance" true (moves >= 7);
  check "no ping-pong inflation" true (moves <= 14);
  let gap, mean =
    Net.Balance.spread b ~loads
  in
  check "final spread inside the tolerance band" true
    (gap <= (Net.Balance.tolerance *. mean) +. 1e-9)

(* Out-of-band spread where no individual move clears the hysteresis
   margin: the planner must stay silent rather than oscillate — and the
   mirrored layout must be silent too (no A<->B trade exists). *)
let test_planner_tolerance_band () =
  let b = Net.Balance.create () in
  let silent loads candidates =
    Net.Balance.plan b ~loads ~candidates ~node_of_rank:no_ranks = []
  in
  (* inside the band: equal loads, nothing to do *)
  check "equal loads are in-band" true
    (silent
       [| mk_load 0 10.; mk_load 1 10. |]
       [ { Net.Balance.cd_pid = 1; cd_node = 0; cd_load = 5. } ]);
  (* out of band (gap 4 > 0.25 * mean 8) but the only candidate is too
     heavy: 6 + 5*1.25 = 12.25 > 10 — moving it would just reverse the
     imbalance and invite the reverse move next period *)
  check "hysteresis margin blocks the oscillating move" true
    (silent
       [| mk_load 0 10.; mk_load 1 6. |]
       [ { Net.Balance.cd_pid = 1; cd_node = 0; cd_load = 5. } ]);
  check "mirror layout equally silent" true
    (silent
       [| mk_load 0 6.; mk_load 1 10. |]
       [ { Net.Balance.cd_pid = 1; cd_node = 1; cd_load = 5. } ]);
  (* zero measured load never moves, however wide the spread *)
  check "zero-load candidates are not moved" true
    (silent
       [| mk_load 0 10.; mk_load 1 0. |]
       [ { Net.Balance.cd_pid = 1; cd_node = 0; cd_load = 0. } ])

let test_planner_budget () =
  let b = Net.Balance.create () in
  (* two nodes: arrivals at node 1 are capped at move_budget = 2 even
     though six candidates qualify *)
  let candidates =
    List.init 6 (fun i ->
        { Net.Balance.cd_pid = 200 + i; cd_node = 0; cd_load = 10. })
  in
  let props =
    Net.Balance.plan b
      ~loads:[| mk_load 0 60.; mk_load 1 0. |]
      ~candidates ~node_of_rank:no_ranks
  in
  check_int "one period moves at most the budget" 2 (List.length props);
  List.iter
    (fun (p : Net.Balance.proposal) ->
      check_int "all to the idle node" 1 p.Net.Balance.pr_to)
    props;
  (* four nodes: departures from node 0 are capped too *)
  let props =
    Net.Balance.plan b
      ~loads:[| mk_load 0 60.; mk_load 1 0.; mk_load 2 0.; mk_load 3 0. |]
      ~candidates ~node_of_rank:no_ranks
  in
  check_int "departure budget caps the round" 2 (List.length props)

let test_planner_attraction () =
  let b = Net.Balance.create () in
  (* rank 7 lives on node 2; the candidate talks to rank 7 constantly *)
  for _ = 1 to 5 do
    Net.Balance.note_comm b ~pid:500 ~peer_rank:7
  done;
  let node_of_rank r = if r = 7 then Some 2 else None in
  let plan b =
    Net.Balance.plan b
      ~loads:[| mk_load 0 20.; mk_load 1 0.; mk_load 2 0. |]
      ~candidates:[ { Net.Balance.cd_pid = 500; cd_node = 0; cd_load = 10. } ]
      ~node_of_rank
  in
  (match plan b with
  | [ p ] ->
    check_int "affinity steers to the partner's node" 2 p.Net.Balance.pr_to
  | l -> Alcotest.failf "expected one proposal, got %d" (List.length l));
  (* a planner with no affinity: ties now break toward the lower node
     id *)
  match plan (Net.Balance.create ()) with
  | [ p ] ->
    check_int "without affinity, lower node id wins the tie" 1
      p.Net.Balance.pr_to
  | l -> Alcotest.failf "expected one proposal, got %d" (List.length l)

let test_affinity_decay_rekey () =
  let b = Net.Balance.create () in
  for _ = 1 to 4 do
    Net.Balance.note_comm b ~pid:1 ~peer_rank:3
  done;
  Net.Balance.note_comm b ~pid:1 ~peer_rank:9;
  check "rows are sorted by peer rank" true
    (Net.Balance.affinity b ~pid:1 = [ (3, 4.); (9, 1.) ]);
  Net.Balance.decay b;
  check "decay halves every cell" true
    (Net.Balance.affinity b ~pid:1 = [ (3, 2.); (9, 0.5) ]);
  Net.Balance.rekey b ~old_pid:1 ~new_pid:42;
  check "old pid row gone" true (Net.Balance.affinity b ~pid:1 = []);
  check "successor inherits the row" true
    (Net.Balance.affinity b ~pid:42 = [ (3, 2.); (9, 0.5) ]);
  (* no fresh traffic: decay alone drops the row once its cells fall
     below 1e-6 (2 * 0.5^21 < 1e-6) *)
  for _ = 1 to 21 do
    Net.Balance.decay b
  done;
  check "decay clears a silent row" true
    (Net.Balance.affinity b ~pid:42 = [])

(* ------------------------------------------------------------------ *)
(* Cluster integration: the engine on a 64-node cluster                *)
(* ------------------------------------------------------------------ *)

let serve_cluster ~nodes ~seed ~balance_on =
  Net.Cluster.create_cfg
    { Net.Cluster.Config.default with
      node_count = nodes;
      seed;
      net = Some (Net.Simnet.create ~latency_us:5.0 ());
      balance = balance_on }

let t2_cfg =
  { Mcc.Serve.clients = 8; services = 6; requests_per_client = 150;
    work_us = 40; skew = true; speculative = false }

let test_policy_rebalances_64_nodes () =
  let cluster = serve_cluster ~nodes:64 ~seed:env_seed ~balance_on:true in
  let d = Mcc.Serve.deploy ~placement:(`Pack 2) cluster t2_cfg in
  let r = Mcc.Serve.run d in
  check "exactly-once under policy moves" true
    (Mcc.Serve.exactly_once d r);
  let m = Net.Cluster.metrics cluster in
  check "the engine sampled" true
    (Obs.Metrics.counter_value m "balance.ticks" >= 2);
  check "the packed placement triggered policy moves" true
    (Obs.Metrics.counter_value m "balance.moves" >= 1);
  (* convergence, not churn: the skewed stream shifts its hot service
     six times over the run, so a tracking engine lands on the order of
     one move per phase — churn would move every period, far more
     often than it samples *)
  check "move count tracks the phases, it does not churn" true
    (Obs.Metrics.counter_value m "balance.moves"
    < Obs.Metrics.counter_value m "balance.ticks");
  check "the engine quiesced before the run ended" true
    (Obs.Metrics.gauge_read m "balance.last_move_s"
    <= 0.9 *. Net.Cluster.now cluster);
  (* the workload kept flowing across every policy move *)
  check "requests were forwarded through the moves" true
    (r.Mcc.Serve.rp_forwarded >= 0)

let test_policy_off_never_moves () =
  let cluster = serve_cluster ~nodes:64 ~seed:env_seed ~balance_on:false in
  let d = Mcc.Serve.deploy ~placement:(`Pack 2) cluster t2_cfg in
  let r = Mcc.Serve.run d in
  check "exactly-once with the engine off" true
    (Mcc.Serve.exactly_once d r);
  let m = Net.Cluster.metrics cluster in
  check_int "disabled engine never ticks" 0
    (Obs.Metrics.counter_value m "balance.ticks");
  check_int "disabled engine never moves" 0
    (Obs.Metrics.counter_value m "balance.moves")

(* ------------------------------------------------------------------ *)
(* No stranded messages: the Image path inherits the rank mailbox      *)
(* ------------------------------------------------------------------ *)

(* The forwarder-install + mailbox-drain happens inside the unified
   move commit, so a resurrection-initiated move must deliver traffic
   queued at the rank while its holder was down. *)
let test_image_move_inherits_mailbox () =
  let receiver =
    compile_c
      {|
int main() {
  migrate("suspend://bal_r1");
  int *buf = alloc_int(1);
  int r = msg_try_recv_int(0, 9, buf, 1);
  while (r == 0 - 1) { r = msg_try_recv_int(0, 9, buf, 1); }
  return buf[0];
}
|}
  in
  let sender =
    compile_c
      {|
int main() {
  int *buf = alloc_int(1);
  buf[0] = 654;
  return msg_send_int(1, 9, buf, 1);
}
|}
  in
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with node_count = 2 }
  in
  let rpid = Net.Cluster.spawn cluster ~rank:1 ~node_id:1 receiver in
  let _ = Net.Cluster.run cluster in
  check "receiver suspended" true
    (status_of cluster rpid = Vm.Process.Exited 0);
  let spid = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 sender in
  let _ = Net.Cluster.run cluster in
  check "send to the dormant rank queued" true
    (status_of cluster spid = Vm.Process.Exited 0);
  match
    Net.Cluster.move cluster
      (Net.Cluster.Move.request ~reason:Net.Cluster.Move.Resurrect
         (Net.Cluster.Move.Image
            { path = "bal_r1"; rank = Some 1 })
         ~dest:0)
  with
  | Error e ->
    Alcotest.failf "image move failed: %s"
      (Net.Cluster.migration_error_to_string e)
  | Ok o ->
    let _ = Net.Cluster.run cluster in
    check "successor drained the rank mailbox" true
      (status_of cluster o.Net.Cluster.Move.mv_pid = Vm.Process.Exited 654)

(* ------------------------------------------------------------------ *)
(* Reason equivalence: Move.reason is accounting, not behaviour        *)
(* ------------------------------------------------------------------ *)

let lossy_plan seed =
  { Net.Faults.none with
    f_seed = seed;
    f_loss = 0.10;
    f_dup = 0.05;
    f_jitter_s = 0.00002;
    f_retransmit_s = 0.0001 }

(* Each round charges 1 ms of work: the worker outlasts the compile its
   destination runs ahead of the move, so the move cuts over. *)
let crunch_worker =
  compile_c
    {|
int main() {
  int acc = 0;
  int round;
  int i;
  for (round = 0; round < 400; round = round + 1) {
    for (i = 0; i < 50; i = i + 1) acc = (acc + i * 7) % 1000000;
    work_us(1000);
  }
  return acc % 100;
}
|}

(* One mid-run migration of a compute worker under a loss/dup plan,
   driven with a given reason; returns the full event trace. *)
let running_trace ~seed reason =
  let cluster = mk_cluster ~nodes:2 ~seed (lossy_plan seed) in
  let pid = Net.Cluster.spawn cluster ~node_id:0 crunch_worker in
  let _ = Net.Cluster.run cluster ~max_rounds:25 in
  (match
     Net.Cluster.move cluster
       (Net.Cluster.Move.request ~reason
          (Net.Cluster.Move.Running pid) ~dest:1)
   with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "move failed: %s" (Net.Cluster.migration_error_to_string e));
  let _ = Net.Cluster.run cluster in
  Obs.Trace.to_jsonl (Net.Cluster.trace cluster)

let test_equivalence_running () =
  List.iter
    (fun seed ->
      let explicit = running_trace ~seed Net.Cluster.Move.Explicit in
      let policy = running_trace ~seed Net.Cluster.Move.Policy in
      let rehome = running_trace ~seed Net.Cluster.Move.Rehome in
      check
        (Printf.sprintf "seed %d: Policy trace == Explicit trace" seed)
        true (policy = explicit);
      check
        (Printf.sprintf "seed %d: Rehome trace == Explicit trace" seed)
        true (rehome = explicit);
      check "the scenario actually migrated (a move landed)" true
        (let contains s sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length s
             && (String.sub s i n = sub || go (i + 1))
           in
           go 0
         in
         contains explicit "\"ok\":true,\"cache_hit\""))
    [ env_seed; env_seed + 31 ]

(* The resurrect convenience wrapper vs a hand-built Image request:
   identical traces AND identical metrics — the wrapper routes through
   the same move path, bumping the same counters. *)
let checkpointing_worker =
  compile_c
    {|
int main() {
  int acc = 0;
  int i;
  for (i = 0; i < 100; i = i + 1) acc = (acc + i * 3) % 1000;
  migrate("checkpoint://bal_ck");
  for (i = 0; i < 100; i = i + 1) acc = (acc + i) % 1000;
  return acc % 10;
}
|}

let image_run ~seed ~wrapper =
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with node_count = 2; seed }
  in
  let pid = Net.Cluster.spawn cluster ~node_id:0 checkpointing_worker in
  let _ = Net.Cluster.run cluster in
  check "original finished" true
    (match status_of cluster pid with Vm.Process.Exited _ -> true | _ -> false);
  let res =
    if wrapper then
      Net.Cluster.resurrect cluster ~node_id:1 ~path:"bal_ck"
    else
      match
        Net.Cluster.move cluster
          (Net.Cluster.Move.request ~reason:Net.Cluster.Move.Resurrect
             (Net.Cluster.Move.Image { path = "bal_ck"; rank = None })
             ~dest:1)
      with
      | Ok o -> Ok o.Net.Cluster.Move.mv_pid
      | Error e -> Error (Net.Cluster.migration_error_to_string e)
  in
  (match res with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "resurrection failed: %s" m);
  let _ = Net.Cluster.run cluster in
  ( Obs.Trace.to_jsonl (Net.Cluster.trace cluster),
    Obs.Metrics.render (Net.Cluster.metrics cluster) )

let test_equivalence_image () =
  List.iter
    (fun seed ->
      let t_wrap, m_wrap = image_run ~seed ~wrapper:true in
      let t_move, m_move = image_run ~seed ~wrapper:false in
      check (Printf.sprintf "seed %d: wrapper trace == Image trace" seed)
        true (t_wrap = t_move);
      check
        (Printf.sprintf "seed %d: wrapper metrics == Image metrics" seed)
        true (m_wrap = m_move))
    [ env_seed; env_seed + 31 ]

(* The serving workload with one mid-traffic service re-homing, driven
   with reason Rehome vs Explicit under a loss/dup plan: byte-identical
   traces and a completed run either way. *)
let serve_trace ~seed reason =
  let cluster = mk_cluster ~seed (lossy_plan seed) in
  let cfg =
    { Mcc.Serve.clients = 3; services = 2; requests_per_client = 30;
      work_us = 20; skew = false; speculative = false }
  in
  let d = Mcc.Serve.deploy cluster cfg in
  let moved = ref false in
  let guard = ref 0 in
  while (not (Mcc.Serve.all_exited d)) && !guard < 40 do
    incr guard;
    let _ =
      Net.Cluster.run cluster ~max_rounds:2_000_000 ~stop:(fun () ->
          Mcc.Serve.all_exited d
          || ((not !moved) && Net.Cluster.now cluster >= 0.0004))
    in
    if (not !moved) && Net.Cluster.now cluster >= 0.0004 then begin
      moved := true;
      let pid = d.Mcc.Serve.sv_service_pids.(0) in
      match Net.Cluster.entry_of_pid cluster pid with
      | Some e when e.Net.Cluster.proc.Vm.Process.status = Vm.Process.Running
        ->
        let dest = (e.Net.Cluster.node_id + 1) mod 3 in
        (match
           Net.Cluster.move cluster
             (Net.Cluster.Move.request ~reason
                (Net.Cluster.Move.Running pid) ~dest)
         with
        | Ok o ->
          d.Mcc.Serve.sv_service_pids.(0) <-
            o.Net.Cluster.Move.mv_pid
        | Error e ->
          Alcotest.failf "re-home failed: %s"
            (Net.Cluster.migration_error_to_string e))
      | _ -> ()
    end
  done;
  check "serve run completed" true (Mcc.Serve.all_exited d);
  Obs.Trace.to_jsonl (Net.Cluster.trace cluster)

let test_equivalence_serve () =
  List.iter
    (fun seed ->
      let rehome = serve_trace ~seed Net.Cluster.Move.Rehome in
      let explicit = serve_trace ~seed Net.Cluster.Move.Explicit in
      check
        (Printf.sprintf "seed %d: serve Rehome trace == Explicit trace" seed)
        true (rehome = explicit))
    [ env_seed; env_seed + 31 ]

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Policy moves that compile ahead, under duplicated hops              *)
(* ------------------------------------------------------------------ *)

(* The balance engine's moves on nodes that hold no service's code:
   each policy move offers the FIR, its destination compiles ahead
   while the service keeps serving, and the cut-over lands later.
   Every hop is delivered twice (dup 1.0), so each landing must absorb
   its duplicate: every accepted policy move lands exactly once, binds
   its service once, and the stream stays exactly-once.  (Golden
   "balance ticks, dup hops, expired forwarders" seeds every node, so
   its moves never compile ahead.) *)
let test_policy_compile_ahead_under_dup () =
  let services = 3 in
  let c =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        node_count = 3;
        seed = 7;
        net = Some (Net.Simnet.create ~latency_us:5.0 ());
        faults = { Net.Faults.none with f_seed = env_seed; f_dup = 1.0 };
        balance = true }
  in
  (* 4 ms a request: the services outlive a compile ahead *)
  let d =
    Mcc.Serve.deploy ~placement:(`Pack 1) c
      { Mcc.Serve.clients = 4; services; requests_per_client = 60;
        work_us = 4000; skew = true; speculative = false }
  in
  let r = Mcc.Serve.run d in
  check "exactly once" true (Mcc.Serve.exactly_once d r);
  let m = Net.Cluster.metrics c in
  let policy = Obs.Metrics.counter_value m "move.policy" in
  let landed = landed_moves c in
  let count p =
    List.length
      (List.filter
         (fun (e : Obs.Trace.event) -> p e.Obs.Trace.kind)
         (Obs.Trace.events (Net.Cluster.trace c)))
  in
  check "the engine moved services" true (policy >= 1);
  check_int "every policy move landed, once" policy landed;
  check_int "each landing compiled ahead" landed
    (count (function
      | Obs.Trace.Migrate_done { ok = true; cache_hit = false; compile_s; _ }
        ->
        compile_s > 0.0
      | _ -> false));
  check_int "each landing's hop was duplicated" landed
    (count (function Obs.Trace.Dup_delivery _ -> true | _ -> false));
  check_int "each landing bound its service once" (services + landed)
    (count (function Obs.Trace.Service_bind _ -> true | _ -> false))

let suites =
  [
    ( "balance-planner",
      [
        Alcotest.test_case "converges and goes quiet" `Quick
          test_planner_convergence;
        Alcotest.test_case "tolerance band forbids ping-pong" `Quick
          test_planner_tolerance_band;
        Alcotest.test_case "per-node move budget" `Quick test_planner_budget;
        Alcotest.test_case "affinity steers the destination" `Quick
          test_planner_attraction;
        Alcotest.test_case "affinity decay / rekey / forget" `Quick
          test_affinity_decay_rekey;
      ] );
    ( "balance-cluster",
      [
        Alcotest.test_case "policy rebalances a packed 64-node cluster"
          `Quick test_policy_rebalances_64_nodes;
        Alcotest.test_case "disabled engine never ticks or moves" `Quick
          test_policy_off_never_moves;
        Alcotest.test_case "image move inherits the rank mailbox" `Quick
          test_image_move_inherits_mailbox;
        Alcotest.test_case "policy moves compile ahead under dup hops" `Quick
          test_policy_compile_ahead_under_dup;
      ] );
    ( "balance-equivalence",
      [
        Alcotest.test_case "Running subject: reason is accounting only"
          `Quick test_equivalence_running;
        Alcotest.test_case "Image subject: wrapper == hand-built request"
          `Quick test_equivalence_image;
        Alcotest.test_case "serving workload: Rehome == Explicit" `Quick
          test_equivalence_serve;
      ] );
  ]
