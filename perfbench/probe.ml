(* Per-layer readings taken from outside: the counters the layers already
   keep in their metrics registries, and span totals from the traced
   run.  Nothing here changes what the layers do. *)

(* The simulated runtime's collector keeps process-wide counters; a
   batch reads its own share as a difference. *)
let gc_counts () =
  let c = Obs.Metrics.counter_value Runtime.Gc.metrics in
  c "gc.minor_collections", c "gc.major_collections"

let gc_delta (minor0, major0) =
  let minor1, major1 = gc_counts () in
  [ "gc.minor_collections", float_of_int (minor1 - minor0);
    "gc.major_collections", float_of_int (major1 - major0) ]

(* Speculation-engine counters live in each process's own registry;
   sum them over every process the cluster ever placed. *)
let spec_counter cluster name =
  List.fold_left
    (fun acc (pid, _, _, _) ->
      match Net.Cluster.entry_of_pid cluster pid with
      | Some e ->
        acc
        + Obs.Metrics.counter_value
            (Spec.Engine.metrics e.Net.Cluster.proc.Vm.Process.spec)
            name
      | None -> acc)
    0 (Net.Cluster.statuses cluster)

let cluster_counter_names =
  [ "sched.rounds"; "sched.quanta"; "migrate.bytes_full";
    "migrate.bytes_delta"; "cluster.checkpoints"; "faults.retransmits";
    "faults.crash_in_commit"; "registry.forwarded"; "registry.rebinds";
    "registry.expired"; "dspec.opened"; "dspec.commits"; "dspec.aborts";
    "dspec.compensated" ]

let cluster_counters cluster =
  let m = Net.Cluster.metrics cluster in
  let net = Net.Simnet.metrics (Net.Cluster.net cluster) in
  let c reg name = float_of_int (Obs.Metrics.counter_value reg name) in
  let opened = c m "dspec.opened" and commits = c m "dspec.commits" in
  List.map (fun n -> n, c m n) cluster_counter_names
  @ [ "net.messages", c net "net.messages";
      "net.bytes_sent", c net "net.bytes_sent";
      "dspec.commit_ratio", (if opened > 0.0 then commits /. opened else 0.0);
      "spec.entered", float_of_int (spec_counter cluster "spec.entered");
      "spec.rolled_back", float_of_int (spec_counter cluster "spec.rolled_back")
    ]

(* The simulated outputs two runs of the same seeded batch must agree
   on: clock, scheduler rounds and the protocol counters. *)
let cluster_fingerprint cluster =
  let m = Net.Cluster.metrics cluster in
  Printf.sprintf "sim=%h rounds=%d quanta=%d %s" (Net.Cluster.now cluster)
    (Obs.Metrics.counter_value m "sched.rounds")
    (Obs.Metrics.counter_value m "sched.quanta")
    (String.concat " "
       (List.map
          (fun n -> Printf.sprintf "%s=%d" n (Obs.Metrics.counter_value m n))
          [ "move.rehome"; "registry.forwarded"; "registry.rebinds";
            "dspec.opened"; "dspec.commits"; "dspec.aborts";
            "dspec.compensated"; "cluster.checkpoints" ]))

(* Span totals for one traced cluster batch, in reference seconds, plus the
   scheduler's self time (its span minus the stop predicates it called)
   and that self time per scheduled quantum. *)
let scheduler_spans cluster =
  let self = Spans.self_times () in
  let run_self = Option.value ~default:0.0 (List.assoc_opt "cluster.run" self) in
  let quanta =
    Obs.Metrics.counter_value (Net.Cluster.metrics cluster) "sched.quanta"
  in
  [ "minic.compile_s", Spans.total "minic.compile";
    "cluster.spawn_s", Spans.total "cluster.spawn";
    "cluster.run_s", Spans.total "cluster.run";
    "cluster.run_self_s", run_self;
    "sched.us_per_quantum", 1e6 *. run_self /. float_of_int (max 1 quanta);
    "gridapp.stop_s", Spans.total "gridapp.stop";
    "gridapp.stop_calls", float_of_int (List.length (Spans.durations "gridapp.stop"));
    "cluster.move_ms", 1e3 *. Stats.mean (Spans.durations "cluster.move");
    "trace.spans", float_of_int (List.length (Spans.spans ())) ]
