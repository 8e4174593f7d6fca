(* A mobile agent (paper, Section 7: "migration and speculation
   primitives allow for a number of interesting programming concepts,
   such as dynamic transparent load balancing and mobile agents").

     dune exec examples/mobile_agent.exe

   One process hops across every node of a heterogeneous cluster,
   carrying its accumulated state with it: at each stop it does some
   local work, records its current pid (which changes with every hop —
   the process identity is reconstructed by each node's migration
   daemon), and migrates on.  The FIR travels, each daemon re-typechecks
   and recompiles for ITS architecture, and the agent's heap follows
   byte-for-byte.  Each hop's cost is read from the cluster's trace (its
   [Migrate_done] events). *)

let agent_source =
  {|
int work(int seed, int rounds) {
  int acc = seed;
  int i;
  for (i = 0; i < rounds; i = i + 1) {
    acc = (acc * 31 + i) % 1000003;
  }
  return acc;
}

int main() {
  int *log = alloc_int(8);   // pids observed along the tour
  int *sums = alloc_int(8);  // work results computed at each stop
  int stop = 0;

  log[stop] = pid();
  sums[stop] = work(7, 2000);
  stop = stop + 1;
  migrate("mcc://node1");

  log[stop] = pid();
  sums[stop] = work(sums[stop - 1], 2000);
  stop = stop + 1;
  migrate("mcc://node2");

  log[stop] = pid();
  sums[stop] = work(sums[stop - 1], 2000);
  stop = stop + 1;
  migrate("mcc://node3");

  log[stop] = pid();
  sums[stop] = work(sums[stop - 1], 2000);
  stop = stop + 1;

  print_str("tour complete; pids along the way: ");
  int i;
  for (i = 0; i < stop; i = i + 1) {
    print_int(log[i]);
    print_str(" ");
  }
  print_nl();
  return sums[stop - 1];
}
|}

let () =
  print_endline "Mobile agent touring a heterogeneous cluster";
  print_endline "============================================\n";
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        arches = [| Vm.Arch.cisc32; Vm.Arch.risc64 |] }
  in
  let fir = Mcc.Api.compile_exn (Mcc.Api.C agent_source) in
  let pid0 = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 fir in
  Printf.printf "agent born as pid %d on node0 (cisc32)\n\n" pid0;
  let _ = Net.Cluster.run cluster in

  (* the rank follows the agent through its successive identities *)
  (match Net.Cluster.entry_of_rank cluster 0 with
  | Some e ->
    let node = Net.Cluster.node cluster e.Net.Cluster.node_id in
    Printf.printf "%s" (Vm.Process.output e.Net.Cluster.proc);
    (match e.Net.Cluster.proc.Vm.Process.status with
    | Vm.Process.Exited n ->
      Printf.printf
        "agent finished on %s (%s) as pid %d with result %d\n"
        node.Net.Cluster.node_name node.Net.Cluster.node_arch.Vm.Arch.name
        e.Net.Cluster.proc.Vm.Process.pid n
    | s ->
      Printf.printf "unexpected final status: %s\n"
        (match s with
        | Vm.Process.Trapped m -> "trapped " ^ m
        | Vm.Process.Running -> "running"
        | _ -> "?"))
  | None -> print_endline "agent lost!");

  print_endline "\nhops (each one verified + recompiled by the target):";
  List.iter
    (fun (ev : Obs.Trace.event) ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Migrate_done { bytes; transfer_s; compile_s; _ } ->
        Printf.printf
          "  pid %d: %d bytes, transfer %.4fs + recompile %.4fs (simulated)\n"
          ev.Obs.Trace.pid bytes transfer_s compile_s
      | _ -> ())
    (Obs.Trace.events (Net.Cluster.trace cluster));

  (* sanity: the same program run WITHOUT migration gives the same
     result (migration is computationally invisible) *)
  let local =
    let proc = Vm.Process.create fir in
    match Vm.Interp.run proc with
    | Vm.Process.Migrating _ ->
      (* service every hop locally as a failed migration *)
      let rec go () =
        match proc.Vm.Process.status with
        | Vm.Process.Migrating _ ->
          Vm.Process.migration_failed proc;
          ignore (Vm.Interp.run proc);
          go ()
        | Vm.Process.Exited n -> n
        | _ -> -1
      in
      go ()
    | Vm.Process.Exited n -> n
    | _ -> -1
  in
  (match Net.Cluster.entry_of_rank cluster 0 with
  | Some e -> (
    match e.Net.Cluster.proc.Vm.Process.status with
    | Vm.Process.Exited n ->
      Printf.printf
        "\nsame computation without migrating: %d (%s)\n" local
        (if n = local then "identical — migration is invisible"
         else "MISMATCH!")
    | _ -> ())
  | None -> ())
