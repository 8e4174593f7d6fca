(* Helpers shared by the test suites. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The fault seed of the randomized cluster scenarios: CI runs the
   suites under several values of MCC_FAULT_SEED; 11 otherwise. *)
let env_seed =
  match Sys.getenv_opt "MCC_FAULT_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with Failure _ -> 11)
  | None -> 11

let compile_c src =
  match Minic.Driver.compile src with
  | Ok fir -> fir
  | Error e -> Alcotest.failf "C compile: %s" (Minic.Driver.error_to_string e)

let status_of cluster pid =
  match Net.Cluster.entry_of_pid cluster pid with
  | Some e -> e.Net.Cluster.proc.Vm.Process.status
  | None -> Alcotest.failf "pid %d lost" pid

let counter cluster name =
  Obs.Metrics.counter_value (Net.Cluster.metrics cluster) name

(* Explicit test migrations go through the unified move API; unwrap the
   outcome back to the report shape the assertions read. *)
let move_running cluster ~pid ~node_id =
  match
    Net.Cluster.move cluster
      (Net.Cluster.Move.request ~reason:Net.Cluster.Move.Explicit
         (Net.Cluster.Move.Running pid) ~dest:node_id)
  with
  | Ok { Net.Cluster.Move.mv_report = Some rep; _ } -> Ok rep
  | Ok { Net.Cluster.Move.mv_report = None; _ } ->
    Alcotest.fail "Running-subject move returned no report"
  | Error e -> Error e

(* A cluster on a 5 us-latency network under [plan]. *)
let mk_cluster ?(nodes = 3) ?(seed = 1) ?detector ?(replication = 0) plan =
  Net.Cluster.create_cfg
    { Net.Cluster.Config.default with
      node_count = nodes;
      seed;
      net = Some (Net.Simnet.create ~latency_us:5.0 ());
      faults = plan;
      detector;
      replication }
