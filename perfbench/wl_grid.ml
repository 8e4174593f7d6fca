(* Workload [grid]: the paper's Figure 2 application.

   A heat-diffusion stencil over 4 ranks of 16 x 32 cells (F2 runs
   6 x 12), on the MASM engine, 60 timesteps with a speculation and a
   checkpoint (full image, then delta chain) every 10 steps, under 2 %
   message loss and 1 % duplication drawn from the seed.  One timestep is
   the unit of work; 2 048 cell updates each.  Verified
   bit-exactly against [Gridapp.golden_checksums].  The emulator runs
   real float arithmetic here rather than poll loops, speculation always
   commits, and pack writes checkpoints to storage that nothing resumes
   from. *)

module Gridapp = Mcc.Gridapp
module Cluster = Net.Cluster

let nodes = 4

let config =
  { Gridapp.ranks = 4; rows_per_rank = 16; cols = 32; timesteps = 60;
    interval = 10; work_us_per_step = 0 }

let cells_per_step = config.Gridapp.ranks * config.rows_per_rank * config.cols

(* T1's retransmit timeout and jitter: a lost border row costs tens of
   simulated microseconds, not the default 2 ms, so the seed moves the
   simulated time by a few percent rather than by whole timesteps. *)
let plan seed =
  { Net.Faults.none with
    Net.Faults.f_seed = seed;
    f_loss = 0.02;
    f_dup = 0.01;
    f_jitter_s = 0.000005;
    f_retransmit_s = 0.00005 }

let cluster seed =
  Cluster.create_cfg
    { Cluster.Config.default with
      node_count = nodes;
      seed;
      net = Some (Net.Simnet.create ~latency_us:5.0 ());
      faults = plan seed }

let golden = lazy (Gridapp.golden_checksums config)

(* [Gridapp.deploy] rebuilt from its public parts so compile and spawn
   are timed apart: same calls, same order. *)
let deploy_traced c =
  let n = Cluster.node_count c in
  let pids =
    Array.init config.Gridapp.ranks (fun r ->
        let fir =
          Spans.span "minic.compile" (fun () -> Gridapp.compile_rank config r)
        in
        Spans.span "cluster.spawn" (fun () ->
            Cluster.spawn c ~engine:`Masm ~rank:r ~node_id:(r mod n) fir))
  in
  { Gridapp.d_config = config; d_cluster = c; d_pids = pids }

(* [Gridapp.run] rebuilt: one scheduler slice, the stop predicate timed
   on its own. *)
let run_traced d =
  Spans.new_group ();
  Spans.span "cluster.run" (fun () ->
      Cluster.run d.Gridapp.d_cluster ~max_rounds:2_000_000 ~stop:(fun () ->
          Spans.span "gridapp.stop" (fun () -> Gridapp.all_exited d)))

let batch ~traced ?(sabotage = false) ~seed () =
  if traced then Spans.reset ();
  Spans.on := traced;
  let d, setup_s =
    Clock.time_ref (fun () ->
        let c = cluster seed in
        if traced then deploy_traced c else Gridapp.deploy ~engine:`Masm c config)
  in
  let gc0 = Probe.gc_counts () in
  let rounds, run_s =
    Clock.time_ref (fun () -> if traced then run_traced d else Gridapp.run d)
  in
  Spans.on := false;
  let golden = Lazy.force golden in
  let sums = Gridapp.checksums d in
  let failed = ref 0 in
  Array.iteri
    (fun r g ->
      let expected = if sabotage && r = 0 then g + 1 else g in
      if sums.(r) <> Some expected then incr failed)
    golden;
  let c = d.Gridapp.d_cluster in
  let sim_s = Cluster.now c in
  let steps = config.Gridapp.timesteps in
  { Report.setup_s;
    run_s;
    ops = (if !failed = 0 then steps else 0);
    op_times = [ run_s /. float_of_int steps ];
    attempted = config.Gridapp.ranks;
    failed = !failed;
    sim_s;
    sim_op_ms = 1e3 *. sim_s /. float_of_int steps;
    fingerprint =
      Printf.sprintf "%s returned_rounds=%d sums=%s" (Probe.cluster_fingerprint c)
        rounds
        (String.concat ","
           (Array.to_list
              (Array.map
                 (function Some s -> string_of_int s | None -> "?")
                 sums)));
    samples = [];
    layer =
      Probe.cluster_counters c @ Probe.gc_delta gc0
      @ if traced then Probe.scheduler_spans c else [] }
