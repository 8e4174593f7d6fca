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

(* The cluster trace's [Migrate_done] events, oldest first, as
   (ok, bytes, compile_s). *)
let migrate_dones cluster =
  List.filter_map
    (fun (ev : Obs.Trace.event) ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Migrate_done { ok; bytes; compile_s; _ } ->
        Some (ok, bytes, compile_s)
      | _ -> None)
    (Obs.Trace.events (Net.Cluster.trace cluster))

(* The cluster trace's [Checkpoint] events, oldest first, as (stored
   path, bytes). *)
let checkpoints cluster =
  List.filter_map
    (fun (ev : Obs.Trace.event) ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Checkpoint { path; bytes } -> Some (path, bytes)
      | _ -> None)
    (Obs.Trace.events (Net.Cluster.trace cluster))

(* Moves that landed (a [Serve.run] report counts accepted requests,
   and an accepted move whose subject ends before its cut-over never
   lands). *)
let landed_moves cluster =
  Obs.Metrics.counter_value (Net.Cluster.metrics cluster)
    "cluster.migrations_ok"

(* Give node [node_id]'s daemon the compiled code of [fir], as a
   deployment that ran the program there would: a later move of a
   process running it to that node hits the code cache and lands at
   once.  No simulated time is charged. *)
let seed_code cluster ~node_id fir =
  let daemon = (Net.Cluster.node cluster node_id).Net.Cluster.daemon in
  match Migrate.Server.compile_ahead daemon (Fir.Serial.encode fir) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "seeding node %d: %s" node_id msg

(* Seed every node with the code of every service of a serving
   deployment: its re-homes all hit the code cache. *)
let seed_services cluster (d : Mcc.Serve.deployment) =
  Array.iter
    (fun pid ->
      match Net.Cluster.entry_of_pid cluster pid with
      | Some e ->
        for node_id = 0 to Net.Cluster.node_count cluster - 1 do
          seed_code cluster ~node_id e.Net.Cluster.proc.Vm.Process.program
        done
      | None -> Alcotest.failf "service pid %d lost" pid)
    d.Mcc.Serve.sv_service_pids

(* Run the cluster until the compile-ahead move behind [ticket] cuts
   over (the subject keeps running meanwhile), and return how it
   ended. *)
let await_cutover cluster ticket =
  let pending () =
    match Net.Cluster.Move.cutover ticket with
    | Net.Cluster.Compiling _ -> true
    | Net.Cluster.Landed _ | Net.Cluster.Abandoned _ -> false
  in
  ignore (Net.Cluster.run cluster ~stop:(fun () -> not (pending ())));
  match Net.Cluster.Move.cutover ticket with
  | Net.Cluster.Landed rep -> Ok rep
  | Net.Cluster.Abandoned e -> Error e
  | Net.Cluster.Compiling _ -> Alcotest.fail "the cut-over never landed"

(* Explicit test migrations go through the unified move API; unwrap the
   outcome back to the report shape the assertions read.  A move whose
   destination compiles ahead runs the cluster until it cuts over, so
   the report names the successor. *)
let move_running cluster ~pid ~node_id =
  match
    Net.Cluster.move cluster
      (Net.Cluster.Move.request ~reason:Net.Cluster.Move.Explicit
         (Net.Cluster.Move.Running pid) ~dest:node_id)
  with
  | Ok { Net.Cluster.Move.mv_report = Some rep; _ } -> Ok rep
  | Ok { Net.Cluster.Move.mv_cutover = Some ticket; _ } ->
    await_cutover cluster ticket
  | Ok { Net.Cluster.Move.mv_report = None; mv_cutover = None; _ } ->
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
