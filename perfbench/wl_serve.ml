(* Workloads [serve] and [serve-spec]: the T1 / F5 request-serving shape.

   8 closed-loop clients send 150 requests each (1 200 in all) over
   [svc_send] to 4 registered services on 6 nodes, under 5 % message
   loss and 2 % duplication, while the services are re-homed 10 times
   (one [Cluster.Move] with reason [Rehome] every 4 simulated ms).
   [serve-spec] is the same traffic with speculative handlers committing
   through [Net.Dspec], and 20 % [crash_in_commit] in the plan (it never
   draws without commit rounds, so [serve] carries it too and the two
   differ only in [speculative]).

   The request count decides which regime [serve-spec] measures: its
   host cost grows faster than linearly (1 200 / 2 400 / 4 800 requests
   took 0.25 / 1.27 / 5.6 s at seed 11 with quanta per request flat).
   1 200 is the largest size at which one run still covers a few dozen
   batches, each with its own fault draws: the cost of one batch varies
   by a quarter between seeds, so fewer batches would not give a steady
   median.  The superlinear term is already present at this size. *)

module Serve = Mcc.Gridapp.Serve
module Cluster = Net.Cluster

let nodes = 6
let migrations = 10
let migrate_every_s = 0.004

let config ~speculative =
  { Serve.clients = 8; services = 4; requests_per_client = 150; work_us = 5;
    skew = false; speculative }

let plan seed =
  { Net.Faults.none with
    Net.Faults.f_seed = seed;
    f_loss = 0.05;
    f_dup = 0.02;
    f_crash_in_commit = 0.2 }

let cluster seed =
  Cluster.create_cfg
    { Cluster.Config.default with
      node_count = nodes;
      seed;
      net = Some (Net.Simnet.create ~latency_us:5.0 ());
      faults = plan seed }

let exit_code cluster pid =
  match Cluster.entry_of_pid cluster pid with
  | Some e -> (
    match e.Cluster.proc.Vm.Process.status with
    | Vm.Process.Exited n -> Some n
    | _ -> None)
  | None -> None

(* [Serve.deploy] rebuilt from its public parts, so compile and spawn
   are timed apart.  Same calls in the same order: same pids, ranks and
   placement. *)
let deploy_traced cluster cfg =
  let n = Cluster.node_count cluster in
  let compile src =
    Spans.span "minic.compile" (fun () ->
        match Minic.Driver.compile src with
        | Ok fir -> fir
        | Error e -> failwith (Minic.Driver.error_to_string e))
  in
  let spawn ~rank fir =
    Spans.span "cluster.spawn" (fun () ->
        Cluster.spawn cluster ~engine:`Masm ~rank ~node_id:(rank mod n) fir)
  in
  let clients =
    Array.init cfg.Serve.clients (fun r ->
        spawn ~rank:r (compile (Serve.client_source cfg r)))
  in
  let services =
    Array.init cfg.Serve.services (fun k ->
        spawn ~rank:(cfg.Serve.clients + k) (compile (Serve.service_source cfg k)))
  in
  let laddrs =
    Array.map (fun pid -> Cluster.register_service cluster ~pid) services
  in
  { Serve.sv_config = cfg; sv_cluster = cluster; sv_client_pids = clients;
    sv_service_pids = services; sv_laddrs = laddrs }

(* [Serve.run] rebuilt from [Cluster.run ~stop] and [Cluster.move] so
   the scheduler, the run loop's stop predicate and each move are timed
   apart.  Every scheduler slice and the move that ends it share a span
   id. *)
let run_traced d =
  let cluster = d.Serve.sv_cluster in
  let moved = ref 0 and skipped = ref 0 and total = ref 0 in
  let max_rounds = 20_000_000 in
  let next_at = ref (Cluster.now cluster +. migrate_every_s) in
  let more_moves () = !moved + !skipped < migrations && nodes > 1 in
  let continue_ = ref true in
  while !continue_ do
    let budget = max_rounds - !total in
    if budget <= 0 then continue_ := false
    else begin
      Spans.new_group ();
      let stop () =
        Spans.span "gridapp.stop" (fun () ->
            Serve.all_exited d
            || (more_moves () && Cluster.now cluster >= !next_at))
      in
      total :=
        !total
        + Spans.span "cluster.run" (fun () ->
              Cluster.run cluster ~max_rounds:budget ~stop);
      if Serve.all_exited d then continue_ := false
      else if more_moves () && Cluster.now cluster >= !next_at then begin
        let k = (!moved + !skipped) mod d.Serve.sv_config.Serve.services in
        let pid = d.Serve.sv_service_pids.(k) in
        (match Cluster.entry_of_pid cluster pid with
        | Some e when e.Cluster.proc.Vm.Process.status = Vm.Process.Running
          -> (
          let target = (e.Cluster.node_id + 1) mod nodes in
          match
            Spans.span "cluster.move" (fun () ->
                Cluster.move cluster
                  (Cluster.Move.request ~reason:Cluster.Move.Rehome
                     (Cluster.Move.Running pid) ~dest:target))
          with
          | Ok o ->
            d.Serve.sv_service_pids.(k) <- o.Cluster.Move.mv_pid;
            incr moved
          | Error _ -> incr skipped)
        | Some _ | None -> incr skipped);
        next_at := Cluster.now cluster +. migrate_every_s
      end
      else continue_ := false
    end
  done;
  let metrics = Cluster.metrics cluster in
  let requests, p50, p90, p99, mean =
    match Obs.Metrics.find_histogram metrics "app.latency_seconds" with
    | Some h ->
      ( Obs.Metrics.hist_count h,
        1e3 *. Obs.Metrics.quantile h 0.50,
        1e3 *. Obs.Metrics.quantile h 0.90,
        1e3 *. Obs.Metrics.quantile h 0.99,
        1e3 *. Obs.Metrics.hist_mean h )
    | None -> 0, 0.0, 0.0, 0.0, 0.0
  in
  Serve.refresh_service_pids d;
  let code pid = exit_code cluster pid in
  { Serve.rp_requests = requests;
    rp_violations =
      Array.fold_left
        (fun acc pid -> acc + Option.value ~default:0 (code pid))
        0 d.Serve.sv_client_pids;
    rp_migrations = !moved;
    rp_served =
      Array.map (fun pid -> Option.value ~default:(-1) (code pid))
        d.Serve.sv_service_pids;
    rp_p50_ms = p50;
    rp_p90_ms = p90;
    rp_p99_ms = p99;
    rp_mean_ms = mean;
    rp_forwarded = Net.Registry.forwarded (Cluster.registry cluster);
    rp_rebinds = Obs.Metrics.counter_value metrics "registry.rebinds";
    rp_expired = Net.Registry.expired_count (Cluster.registry cluster);
    rp_wedged = not (Serve.all_exited d) }

(* Exactly-once, plus for speculative serving the transaction ledger:
   every opened transaction resolved one way, one commit per request. *)
let check ~speculative d (r : Serve.report) =
  let m = Cluster.metrics d.Serve.sv_cluster in
  let c = Obs.Metrics.counter_value m in
  Serve.exactly_once d r
  && ((not speculative)
     || c "dspec.opened" = c "dspec.commits" + c "dspec.aborts"
        && c "dspec.commits" = r.Serve.rp_requests)

(* [sabotage] breaks the check on purpose (tests use it to exercise the
   failure path): the check is shown one completed request fewer. *)
let batch ~speculative ~traced ?(sabotage = false) ~seed () =
  let cfg = config ~speculative in
  let total = cfg.Serve.clients * cfg.Serve.requests_per_client in
  if traced then Spans.reset ();
  Spans.on := traced;
  let d, setup_s =
    Clock.time_ref (fun () ->
        let c = cluster seed in
        if traced then deploy_traced c cfg else Serve.deploy ~engine:`Masm c cfg)
  in
  let gc0 = Probe.gc_counts () in
  let r, run_s =
    Clock.time_ref (fun () ->
        if traced then run_traced d
        else Serve.run ~migrate_every_s ~migrations d)
  in
  Spans.on := false;
  let ok =
    check ~speculative d
      (if sabotage then { r with Serve.rp_requests = r.Serve.rp_requests - 1 }
       else r)
  in
  let c = d.Serve.sv_cluster in
  let quanta =
    float_of_int (Obs.Metrics.counter_value (Cluster.metrics c) "sched.quanta")
  in
  { Report.setup_s;
    run_s;
    ops = r.Serve.rp_requests;
    op_times = [ run_s /. float_of_int (max 1 r.Serve.rp_requests) ];
    attempted = total;
    failed = (if ok then 0 else total);
    sim_s = Cluster.now c;
    sim_op_ms = r.Serve.rp_mean_ms;
    fingerprint =
      Printf.sprintf "%s requests=%d moves=%d served=%s violations=%d"
        (Probe.cluster_fingerprint c) r.Serve.rp_requests r.Serve.rp_migrations
        (String.concat "," (Array.to_list (Array.map string_of_int r.Serve.rp_served)))
        r.Serve.rp_violations;
    samples = [];
    layer =
      Probe.cluster_counters c @ Probe.gc_delta gc0
      @ [ "cluster.moves", float_of_int r.Serve.rp_migrations;
          "sim_lat_p99_ms", r.Serve.rp_p99_ms;
          "sched.quanta_per_req", quanta /. float_of_int (max 1 r.Serve.rp_requests) ]
      @ if traced then Probe.scheduler_spans c else [] }
