(* The perf meters that perfcheck gates, each one [Kit.meter]: rows for
   BENCH_<id>.json, verdicts, and a speedup-ratio spec, plus S1, the
   scheduler's cost report, which is gated by a count rather than a
   ratio.

   S1 drives a many-process ping-pong through Simnet/Cluster and
   reports scheduler events (quanta) per wall-clock second and the
   entries the scheduler visited per round; its verdict is that the
   visits track the live entries.  V1 runs compute/branch/memory
   kernels to completion on the MASM emulator in [Baseline] and
   [Compiled] modes (plus the FIR interpreter for scale) and reports
   MIPS.  T1, T2 and F5 are one serving meter over [Mcc.Serve] in
   three settings. *)

module Serve = Mcc.Serve

(* ================================================================== *)
(* S1                                                                  *)
(* ================================================================== *)

(* One side of a ping-pong pair: [starts = 1] sends first.  The poll
   loop is the cluster's park/wake path — the receiver parks on
   (peer, k) and the scheduler wakes it once a matching message in
   its mailbox is due. *)
let pingpong_source ~rounds ~peer ~starts =
  Printf.sprintf
    {|
int main() {
  float *b = alloc_float(4);
  int k; int got;
  for (k = 0; k < %d; k = k + 1) {
    if (%d == 1) { msg_send(%d, k, b, 4); }
    got = msg_try_recv(%d, k, b, 4);
    while (got == 0 - 1) { got = msg_try_recv(%d, k, b, 4); }
    if (got < 0) { return 1; }
    if (%d == 0) { msg_send(%d, k, b, 4); }
  }
  return 0;
}
|}
    rounds starts peer peer peer starts peer

(* An S1 case: [pairs] ping-pong pairs over [nodes] nodes, pair [p]
   playing [rounds_of_pair p] rounds.  Two regimes:

   - "pingpong": staggered completions (pair p plays 20+p rounds) — a
     mixed population whose work shrinks as pairs finish;
   - "longtail": a few hundred short-lived pairs plus ONE long-running
     pair (a service process outliving a burst of batch jobs).  After
     the burst drains, a scheduler that walked every entry ever placed
     would pay for the dead ones on every round of the survivor's life;
     the resident lists have purged them. *)
type s1_case = {
  s1_name : string;
  s1_pairs : int;
  s1_nodes : int;
  s1_rounds_of_pair : int -> int;
}

let s1_cases =
  [
    { s1_name = "pingpong"; s1_pairs = 96; s1_nodes = 12;
      s1_rounds_of_pair = (fun p -> 20 + p) };
    { s1_name = "longtail"; s1_pairs = 384; s1_nodes = 16;
      s1_rounds_of_pair = (fun p -> if p = 0 then 1500 else 8) };
  ]

(* A node's turn takes its entries at most five times (fault floor,
   wake, runnable set, and an idle node's next event and second wake). *)
let s1_visit_bound = 5

(* ((quanta, rounds, visits, sim), live entries summed over rounds, wall)
   of one run.  The live sum walks every entry each round, so only an
   untimed run takes it ([count_live]). *)
let s1_run case ~count_live =
  let cluster = Kit.cluster ~nodes:case.s1_nodes ~seed:7 () in
  for p = 0 to case.s1_pairs - 1 do
    let rounds = case.s1_rounds_of_pair p in
    let spawn_side ~rank ~peer ~starts =
      ignore
        (Net.Cluster.spawn cluster ~rank
           ~node_id:(rank mod case.s1_nodes)
           (Minic.Driver.compile_exn (pingpong_source ~rounds ~peer ~starts)))
    in
    spawn_side ~rank:(2 * p) ~peer:((2 * p) + 1) ~starts:1;
    spawn_side ~rank:((2 * p) + 1) ~peer:(2 * p) ~starts:0
  done;
  let live_sum = ref 0 in
  let stop () =
    if count_live then
      List.iter
        (fun (_, _, _, st) ->
          match st with
          | Vm.Process.Exited _ | Trapped _ -> ()
          | _ -> incr live_sum)
        (Net.Cluster.statuses cluster);
    false
  in
  let _, wall_s = Kit.wall (fun () -> ignore (Net.Cluster.run ~stop cluster)) in
  if
    List.exists
      (fun (_, _, _, st) -> st <> Vm.Process.Exited 0)
      (Net.Cluster.statuses cluster)
  then failwith "s1: a process did not exit 0";
  let c = Obs.Metrics.counter_value (Net.Cluster.metrics cluster) in
  ( ( c "sched.quanta", c "sched.rounds", Net.Cluster.sched_visits cluster,
      Net.Cluster.now cluster ),
    !live_sum,
    wall_s )

(* The median wall of three timed runs after a warm-up, then one
   untimed run that sums the live entries.  The simulation is
   deterministic: both must agree on quanta, rounds, visits and
   simulated time. *)
let s1_row case =
  let (quanta, rounds, visits, sim_s), _, wall_s =
    Kit.warm_median
      (fun (_, _, w) -> w)
      (fun () -> s1_run case ~count_live:false)
  in
  let counted, live_sum, _ = s1_run case ~count_live:true in
  if counted <> (quanta, rounds, visits, sim_s) then
    failwith "s1: runs diverged";
  ( Kit.
      [ "case", str case.s1_name; "quanta", int quanta; "rounds", int rounds;
        "visits_per_round", num 1 (float_of_int visits /. float_of_int rounds);
        "visits_per_live", num 2 (float_of_int visits /. float_of_int live_sum);
        "wall_s", num 6 wall_s; "sim_s", num 6 sim_s;
        "events_per_sec", num 1 (float_of_int quanta /. wall_s) ],
    visits <= s1_visit_bound * live_sum )

let s1 () =
  Kit.section "S1: scheduler events/sec and entries visited";
  Printf.printf
    "visits_per_live is the entries the scheduler visited over the live \
     entries\nsummed over rounds: at most %d when each node's turn walks \
     only its\nresident list.\n\n"
    s1_visit_bound;
  let rows, ok = List.split (List.map s1_row s1_cases) in
  Kit.table rows;
  print_newline ();
  Kit.verdict
    (Printf.sprintf "visits <= %dx live entries over rounds (both cases)"
       s1_visit_bound)
    (List.for_all Fun.id ok)

(* ================================================================== *)
(* V1                                                                  *)
(* ================================================================== *)

let v1_kernels =
  [
    ( "compute",
      {|
int main() {
  float s = 0.0; int i;
  for (i = 0; i < 300000; i = i + 1) {
    s = s + (float)(i % 7) * 0.5 - (float)(i % 3) * 0.25;
    s = s * 0.999 + 1.0;
  }
  return (int)s % 101;
}
|} );
    ( "branch",
      {|
int main() {
  int acc = 0; int i;
  for (i = 0; i < 300000; i = i + 1) {
    if (i % 2 == 0) { acc = acc + 1; }
    else { if (i % 3 == 0) { acc = acc + 2; } else { acc = acc - 1; } }
    if (acc > 1000) { acc = acc - 1000; }
  }
  return acc % 101;
}
|} );
    ( "memory",
      {|
int main() {
  int n = 4096;
  float *a = alloc_float(n);
  int i; int k;
  for (i = 0; i < n; i = i + 1) { a[i] = (float)(i % 17); }
  for (k = 0; k < 60; k = k + 1) {
    for (i = 0; i < n - 1; i = i + 1) {
      a[i] = a[i + 1] * 0.5 + a[i] * 0.5;
    }
  }
  return (int)a[7] % 101;
}
|} );
  ]

let v1_exit = function
  | Vm.Process.Exited n -> n
  | _ -> failwith "v1: kernel did not run to completion"

(* one-time translation per kernel, timed once so the translate row can
   report it: codegen -> link -> closure-compile.  Link and compile are
   deliberately OUTSIDE the timed emulation loop below — they are paid
   once per image (and cached in Migrate.Codecache on the migration
   path), so folding them into per-run wall time would misattribute a
   setup cost to steady-state MIPS. *)
let v1_translate fir =
  let masm = Vm.Codegen.compile ~arch:Vm.Arch.cisc32 fir in
  let linked, link_s = Kit.wall (fun () -> Vm.Link.link masm) in
  let compiled, compile_s = Kit.wall (fun () -> Vm.Compile.compile linked) in
  masm, compiled, link_s *. 1000., compile_s *. 1000.

(* Baseline and Compiled are timed in interleaved pairs, B C B C ...,
   after one warm-up run each, so a slow spell of the host lands on
   both legs of a pair rather than on one mode's block of runs. *)
let v1_pairs = 5

(* (instrs, wall_s, exit, cycles) of each mode, from the pair whose
   Baseline/Compiled wall ratio is the median of the pairs': the rows'
   ratio, which the gate reads, is that median *)
let v1_emulate ~masm ~compiled fir =
  let run mode =
    let proc = Vm.Process.create ~arch:Vm.Arch.cisc32 ~seed:11 fir in
    let emu = Vm.Emulator.create ~mode ~compiled masm proc in
    let status, w = Kit.wall (fun () -> Vm.Emulator.run emu) in
    Vm.Emulator.instructions emu, w, v1_exit status, proc.Vm.Process.cycles
  in
  let pair () =
    let b = run Vm.Emulator.Baseline in
    b, run Vm.Emulator.Compiled
  in
  ignore (pair ());
  Kit.median_by
    (fun ((_, w_base, _, _), (_, w_comp, _, _)) -> w_base /. w_comp)
    (List.init v1_pairs (fun _ -> pair ()))

let v1_interp fir =
  Kit.warm_median fst (fun () ->
      let proc = Vm.Process.create ~arch:Vm.Arch.cisc32 ~seed:11 fir in
      let status, w = Kit.wall (fun () -> Vm.Interp.run proc) in
      w, v1_exit status)

let v1_row ~case ~mode ~instrs ~wall_s ~mips =
  Kit.
    [ "bench", str "v1"; "case", str case; "mode", str mode;
      "instrs", int instrs; "wall_s", num 6 wall_s; "mips", num 3 mips ]

let v1_rows (case, src) =
  let fir = Minic.Driver.compile_exn src in
  let masm, compiled, link_ms, compile_ms = v1_translate fir in
  let (i_base, w_base, x_base, c_base), (i_comp, w_comp, x_comp, c_comp) =
    v1_emulate ~masm ~compiled fir
  in
  if i_comp <> i_base || x_comp <> x_base || c_comp <> c_base then
    failwith ("v1: Compiled and Baseline diverged on " ^ case);
  let w_interp, x_interp = v1_interp fir in
  if x_interp <> x_base then failwith ("v1: interpreter diverged on " ^ case);
  let timed mode wall_s =
    v1_row ~case ~mode ~instrs:i_base ~wall_s
      ~mips:(float_of_int i_base /. wall_s /. 1e6)
  in
  [ timed "interp" w_interp; timed "baseline" w_base; timed "compiled" w_comp;
    (* the one-time translation cost; wall_s is link + compile, and the
       translate mode never takes part in a ratio *)
    v1_row ~case ~mode:"translate" ~instrs:0
      ~wall_s:((link_ms +. compile_ms) /. 1000.)
      ~mips:0.0
    @ Kit.
        [ "link_ms", num 3 link_ms; "compile_ms", num 3 compile_ms;
          "passthrough", int compiled.Vm.Compile.c_passthrough ] ]

(* the closure-compiled tier's win over the reference loop: a fusion
   regression drags it below the gate *)
let v1_ratio = { Kit.slow = "baseline"; fast = "compiled"; cost = "wall_s" }

let v1 =
  { Kit.id = "v1";
    ratio = v1_ratio;
    run =
      (fun () ->
        Kit.section "V1: emulator MIPS (baseline vs closure-compiled)";
        Printf.printf
          "compute/branch/memory kernels run to completion; instrs is the \
           retired\nMASM instruction count (the interpreter row reuses it for \
           scale).\nBaseline and Compiled run in %d interleaved pairs \
           (B C B C ...); their rows are\nthe pair with the median \
           Baseline/Compiled ratio.  They are checked to produce\n\
           identical exits, instruction counts and cycle counts.  Link \
           and\nclosure-compile run once, outside the timed loop; the \
           translate row records\nthat one-time cost and the tail sites \
           compiled as pass-through.\n\n"
          v1_pairs;
        let rows = List.concat_map v1_rows v1_kernels in
        ( rows,
          [ ( "compiled >= 1.5x baseline on every kernel",
              List.for_all (fun (_, x) -> x >= 1.5)
                (Kit.ratios v1_ratio rows) );
            (* a count: losing pass-through fails whatever the clock says *)
            ( "every kernel compiles a pass-through tail site",
              List.for_all
                (fun r ->
                  Kit.text r "mode" <> "translate"
                  || Kit.text r "passthrough" <> "0")
                rows ) ] )) }

(* ================================================================== *)
(* The serving meter: T1, T2 and F5                                    *)
(* ================================================================== *)

(* Closed-loop clients fire requests at registered services addressed by
   logical address, under a seeded fault plan, twice per seed: an "off"
   and an "on" mode.  The meter says what "on" turns on (re-homings,
   the balance engine, speculative handlers), which extra counters its
   rows carry, and its verdicts.  Every run must be exactly-once. *)

type sample = {
  case : string;
  mode : string;
  on : bool;
  wall : float;
  sim : float;
  report : Serve.report;
  exact : bool;
  stats : (string * float) list;  (* the meter's probe at the end *)
}

type serving = {
  id : string;
  title : string;
  intro : string;  (* after the clients/requests/services/nodes line *)
  cfg : Serve.config;  (* [speculative] holds only in the "on" mode *)
  nodes : int;
  seeds : int list;
  case_prefix : string;
  plan : Net.Faults.plan;  (* reseeded per run *)
  balance : bool;  (* the "on" mode enables the balance engine *)
  placement : [ `Spread | `Pack of int ];
  migrations : int * int;
      (* re-home requests, off and on; each is armed 4 simulated ms
         after the previous request.  A destination without the code
         compiles it (~0.1 s) while the service keeps serving, then the
         move cuts over; a re-move of a service still waiting for its
         cut-over is refused *)
  modes : string * string;  (* off, on *)
  probe : Net.Cluster.t -> (string * float) list;
  columns : (string * (sample -> string)) list;  (* after "requests" *)
  verdicts : (string * (sample list -> bool)) list;
  cost : string;
      (* the ratio off/on compares "wall_s" or "sim_s": a policy's or a
         protocol's cost is a property of the modelled cluster, not of
         host wall clock *)
}

let serve_run m ~seed ~on =
  let cluster =
    Kit.cluster ~nodes:m.nodes ~seed
      ~faults:{ m.plan with Net.Faults.f_seed = seed }
      ~tweak:(fun c -> { c with balance = m.balance && on })
      ()
  in
  let cfg = { m.cfg with speculative = m.cfg.speculative && on } in
  let d = Serve.deploy ~placement:m.placement cluster cfg in
  let report, wall =
    Kit.wall (fun () ->
        Serve.run ~migrate_every_s:0.004
          ~migrations:(if on then snd m.migrations else fst m.migrations)
          d)
  in
  { case = Printf.sprintf "%s-s%d" m.case_prefix seed;
    mode = (if on then snd m.modes else fst m.modes);
    on;
    wall;
    sim = Net.Cluster.now cluster;
    report;
    exact = Serve.exactly_once d report;
    stats = m.probe cluster }

let stat s name = List.assoc name s.stats
let count s name = int_of_float (stat s name)

(* the rate is requests per unit of the ratio's clock *)
let serve_row m s =
  let rate, per =
    if m.cost = "wall_s" then "req_per_sec", s.wall
    else "req_per_sim_sec", s.sim
  in
  Kit.[ "bench", str m.id; "case", str s.case; "mode", str s.mode;
        "requests", int s.report.rp_requests ]
  @ List.map (fun (k, f) -> k, f s) m.columns
  @ Kit.[ "wall_s", num 6 s.wall; "sim_s", num 6 s.sim;
          rate, num 1 (float_of_int s.report.rp_requests /. per) ]

(* A wall-clock ratio (T1) is timed in interleaved pairs per seed, off
   on off on ..., so a slow spell of the host lands on both legs of a
   pair rather than on one mode's run; the seed's rows are the pair with
   the median off/on wall ratio, which the gate reads.  The simulated
   outputs are deterministic, so every pair must give the same rows but
   for the wall columns.  A simulated-time ratio runs once per seed. *)
let wall_pairs = 5

let seed_samples m seed =
  let pairs =
    List.init
      (if m.cost = "wall_s" then wall_pairs else 1)
      (fun _ -> serve_run m ~seed ~on:false, serve_run m ~seed ~on:true)
  in
  let simulated s =
    List.filter
      (fun (k, _) -> k <> "wall_s" && k <> "req_per_sec")
      (serve_row m s)
  in
  let first_off, first_on = List.hd pairs in
  List.iter
    (fun (off, on) ->
      if
        simulated off <> simulated first_off
        || simulated on <> simulated first_on
        || off.exact <> first_off.exact || on.exact <> first_on.exact
      then
        failwith
          (Printf.sprintf "%s: timed pairs diverged on %s" m.id off.case))
    pairs;
  let off, on = Kit.median_by (fun (off, on) -> off.wall /. on.wall) pairs in
  [ off; on ]

let serving m =
  { Kit.id = m.id;
    ratio = { Kit.slow = fst m.modes; fast = snd m.modes; cost = m.cost };
    run =
      (fun () ->
        Kit.section m.title;
        let c = m.cfg in
        Printf.printf
          "%d closed-loop clients x %d requests (= %d total) at %d services \
           on %d nodes.\n%s\n"
          c.clients c.requests_per_client
          (c.clients * c.requests_per_client)
          c.services m.nodes m.intro;
        let samples = List.concat_map (seed_samples m) m.seeds in
        ( List.map (serve_row m) samples,
          ( Printf.sprintf
              "every request served exactly once (%d runs, %d seeds)"
              (List.length samples) (List.length m.seeds),
            List.for_all (fun s -> s.exact) samples )
          :: List.map (fun (name, f) -> name, f samples) m.verdicts )) }

(* column and verdict helpers *)
let report_int name f = name, fun s -> Kit.int (f s.report)
let report_ms name f = name, fun s -> Kit.num 4 (f s.report)
let stat_int name = name, fun s -> Kit.int (count s name)
let stat_num name = name, fun s -> Kit.num 6 (stat s name)
let migrations = report_int "migrations" (fun r -> r.Serve.rp_migrations)
let p50 = report_ms "p50_ms" (fun r -> r.Serve.rp_p50_ms)
let p99 = report_ms "p99_ms" (fun r -> r.Serve.rp_p99_ms)
let every_on f samples = List.for_all f (List.filter (fun s -> s.on) samples)

(* the run's [prefix ^ name] counters, keyed by [name] *)
let counters prefix names cluster =
  let m = Net.Cluster.metrics cluster in
  List.map
    (fun k -> k, float_of_int (Obs.Metrics.counter_value m (prefix ^ k)))
    names

(* accepted re-homes that landed, and those whose destination already
   held the service's compiled code when the move was requested *)
let moves_probe =
  counters "cluster." [ "migrations_ok"; "migration_cache_hits" ]

let landed = "landed", fun s -> Kit.int (count s "migrations_ok")
let cache_hits = stat_int "migration_cache_hits"

(* --- T1 ----------------------------------------------------------- *)

(* Request serving under live-traffic migration: N closed-loop clients
   fire >= 10^5 requests at K registered services under message loss +
   duplication, while the services are re-homed mid-traffic ("migrate"
   mode) or left in place ("static" mode).  In migrate mode the senders
   must demonstrably rebind (Recipient_moved notices consumed, forwarder
   relays observed and then quiescing); a run whose moves stopped
   landing would degenerate to the static row and still pass the ratio
   gate.  Ratio = wall static / wall migrate: a regression on the
   forward/rebind serving path inflates the migrate wall. *)
let t1_cfg =
  { Serve.clients = 8; services = 4; requests_per_client = 12_500;
    work_us = 5; skew = false; speculative = false }

let t1 =
  serving
    { id = "t1";
      title = "T1: request serving under live-traffic migration (registry)";
      intro =
        Printf.sprintf
          "Services are addressed by logical address, with 5%% loss + 2%%\n\
           duplication; the migrate rows request a re-home of a service\n\
           round-robin every 4 simulated ms while requests are in flight.\n\
           A destination without the service's code compiles it while the\n\
           service keeps serving, then the move cuts over (\"landed\").\n\
           Latency quantiles come from the cluster's app.latency_seconds\n\
           histogram.  Each seed runs static and migrate in %d interleaved\n\
           pairs, all with the same simulated rows; the rows shown are the\n\
           pair with the median static/migrate wall ratio.\n"
          wall_pairs;
      cfg = t1_cfg;
      nodes = 6;
      seeds = [ 11; 23 ];
      case_prefix = "serve";
      plan =
        { Net.Faults.none with
          f_loss = 0.05; f_dup = 0.02; f_jitter_s = 0.000005;
          f_retransmit_s = 0.00005 };
      balance = false;
      placement = `Spread;
      migrations = 0, 10;
      modes = "static", "migrate";
      probe = moves_probe;
      columns =
        [ migrations;
          landed;
          cache_hits;
          report_int "forwarded" (fun r -> r.Serve.rp_forwarded);
          report_int "rebinds" (fun r -> r.Serve.rp_rebinds);
          p50;
          report_ms "p90_ms" (fun r -> r.Serve.rp_p90_ms);
          p99;
          report_ms "mean_ms" (fun r -> r.Serve.rp_mean_ms) ];
      verdicts =
        [ ( "migrations landed mid-traffic on every migrate run",
            every_on (fun s -> count s "migrations_ok" > 0) );
          ( "senders rebound after each move (forwarders relayed, then \
             notices consumed)",
            every_on (fun s ->
                s.report.rp_forwarded > 0 && s.report.rp_rebinds > 0) ) ];
      cost = "wall_s" }

(* --- T2 ----------------------------------------------------------- *)

(* The placement-policy meter.  The request stream is SKEWED — 4 of
   every 5 requests chase a hot service whose identity shifts every
   phase — and the services start from the deliberately bad placement
   (`Pack 1`: all K crammed onto node 0 of a 64-node cluster).  The
   "off" rows leave them there; the "on" rows let the balance engine
   discover the pile-up from its gauges and spread it via Cluster.Move
   (reason Policy).  The policy must (a) converge — a bounded burst of
   moves early, then silence, no ping-pong as the hot service shifts —
   and (b) beat the packed placement on simulated completion time,
   paying back the cold compile each first visit to a node costs.
   Ratio = sim off / sim on: a regressed planner (churn, failed
   convergence) drags it below the gate. *)
let t2_cfg =
  { Serve.clients = 16; services = 6; requests_per_client = 600;
    work_us = 400; skew = true; speculative = false }

let t2 =
  serving
    { id = "t2";
      title = "T2: load-aware rebalancing of a skewed serving workload";
      intro =
        Printf.sprintf
          "ALL services start packed onto node 0, with a phase-shifting hot\n\
           service taking 4/5 of the stream, under 2%% loss + 1%%\n\
           duplication.  The \"on\" rows enable the balance engine (period\n\
           %gs, tolerance %g, budget %d/node); every policy move goes\n\
           through Cluster.Move and must preserve exactly-once.\n"
          Net.Balance.period_s Net.Balance.tolerance Net.Balance.move_budget;
      cfg = t2_cfg;
      nodes = 64;
      seeds = [ 11; 23 ];
      case_prefix = "skew";
      plan =
        { Net.Faults.none with
          f_loss = 0.02; f_dup = 0.01; f_jitter_s = 0.000002;
          f_retransmit_s = 0.00005 };
      balance = true;
      placement = `Pack 1;
      migrations = 0, 0;
      modes = "off", "on";
      probe =
        (fun cluster ->
          counters "balance." [ "ticks"; "proposals"; "moves" ] cluster
          @ moves_probe cluster
          @ List.map
              (fun k ->
                let m = Net.Cluster.metrics cluster in
                k, Obs.Metrics.gauge_read m ("balance." ^ k))
              [ "spread"; "last_move_s" ]);
      columns =
        [ stat_int "ticks"; stat_int "proposals"; stat_int "moves"; landed;
          stat_num "spread"; stat_num "last_move_s"; p50; p99 ];
      verdicts =
        [ ( "policy moved services off the packed node; static rows never \
             moved",
            fun ss ->
              List.for_all
                (fun s ->
                  if s.on then count s "moves" > 0 else count s "moves" = 0)
                ss );
          (* moves quiesce in the first half of the run and stay well
             below the tick count (a ping-ponging policy moves every
             period) *)
          ( "policy converged: moves quiesced in the first half, no \
             per-period ping-pong",
            every_on (fun s ->
                stat s "last_move_s" <= 0.5 *. s.sim
                && count s "moves" < count s "ticks") );
          (* the same request load in less simulated time than the
             packed placement, per seed *)
          ( "policy-on beat the packed placement on simulated time (both \
             seeds)",
            fun ss ->
              every_on
                (fun on ->
                  List.exists
                    (fun off ->
                      (not off.on) && off.case = on.case && on.sim < off.sim)
                    ss)
                ss ) ];
      cost = "sim_s" }

(* --- F5 ----------------------------------------------------------- *)

(* The distributed-speculation meter.  The "on" rows run the handlers
   SPECULATIVELY: the service replies before its dedup state is durable
   and commits through the epoch-fenced 2PC (dspec_open / dspec_commit),
   with services re-homed mid-region, under loss + duplication +
   crash_in_commit (a participant crashing between its prepare-ack and
   the commit receipt, voiding the ack by epoch bump).  Every crashed
   round must abort, roll every participant back, compensate the
   mailboxes, replay, and still serve each request exactly once.  The
   "off" rows run the same plan non-speculatively (crash_in_commit
   never draws without commit rounds), so the sim-time ratio isolates
   what the protocol costs — abort storms, fence thrash or slow
   compensation drag it below the gate. *)
let f5_cfg =
  { Serve.clients = 8; services = 4; requests_per_client = 1_500;
    work_us = 5; skew = false; speculative = true }

let f5_counters =
  [ "opened"; "prepares"; "commits"; "aborts"; "fence_rejections";
    "compensated" ]

let f5 =
  serving
    { id = "f5";
      title = "F5: speculative exactly-once serving under fault plans";
      intro =
        "The \"on\" rows serve SPECULATIVELY: reply before the dedup write\n\
         is durable, commit via the epoch-fenced 2PC, with 10 service\n\
         re-home requests 4 simulated ms apart (a miss compiles ahead\n\
         and cuts over), under 5% loss + 2% dup + 20%\n\
         crash_in_commit (a participant crashes between prepare-ack and\n\
         commit receipt; the epoch bump voids its ack).  Every abort must\n\
         roll all participants back, compensate mailboxes, replay — and\n\
         still serve each request exactly once.\n";
      cfg = f5_cfg;
      nodes = 6;
      seeds = [ 11; 23 ];
      case_prefix = "spec";
      plan =
        { Net.Faults.none with
          f_loss = 0.05; f_dup = 0.02; f_crash_in_commit = 0.2 };
      balance = false;
      placement = `Spread;
      migrations = 10, 10;
      modes = "off", "on";
      probe =
        (fun cluster ->
          moves_probe cluster
          @ counters "dspec." f5_counters cluster
          @ [ ( "undecided",
                float_of_int
                  (Net.Dspec.undecided (Net.Cluster.dspec cluster)) );
              (* zero partial commits over the whole trace (see Obs.Audit) *)
              ( "audit_ok",
                if Result.is_ok
                     (Obs.Audit.partial_commits
                        (Obs.Trace.events (Net.Cluster.trace cluster)))
                then 1.0
                else 0.0 ) ]);
      columns =
        (migrations :: landed :: cache_hits :: List.map stat_int f5_counters)
        @ [ p50; p99 ];
      verdicts =
        [ ( "services re-homed mid-region on every speculative run",
            every_on (fun s -> count s "migrations_ok" > 0) );
          (* exact conservation: every opened transaction resolved one
             way, one commit per unique request, and none left undecided
             (every abort compensated) *)
          ( "protocol counters conserve: prepares/aborts/fences nonzero, \
             opened = commits + aborts, one commit per unique request, \
             none left undecided",
            every_on (fun s ->
                let c = count s in
                c "prepares" > 0
                && c "commits" = f5_cfg.clients * f5_cfg.requests_per_client
                && c "aborts" > 0
                && c "fence_rejections" > 0
                && c "opened" = c "commits" + c "aborts"
                && c "undecided" = 0) );
          ( "trace audit: zero partial commits (aborts disjoint from \
             commits; every abort rolled back and compensated)",
            every_on (fun s -> count s "audit_ok" = 1) ) ];
      cost = "sim_s" }

(* perfcheck's meters, in order *)
let all = [ v1; t1; t2; f5 ]
