(* Whole-process migration between heterogeneous nodes.

     dune exec examples/migration_demo.exe

   A long-running process starts on a little-endian 32-bit node, migrates
   mid-computation to a big-endian 64-bit node (the image ships FIR and
   is re-typechecked and recompiled on arrival, Section 4.2), finishes
   there, and the answer is unchanged.  Also shows the suspend protocol
   against shared storage, and prints what each hop and each stored
   image cost from the cluster's trace (its [Migrate_done] and
   [Checkpoint] events). *)

let worker =
  {|
int work(int from, int to, int acc) {
  int i;
  for (i = from; i < to; i = i + 1) {
    acc = acc + i * i % 1000;
  }
  return acc;
}
int main() {
  int *state = alloc_int(3);
  state[0] = work(0, 5000, 0);
  print_str("phase 1 done on the first node\n");
  migrate("mcc://node1");
  // seamlessly resumes here on node1
  state[1] = work(5000, 10000, state[0]);
  print_str("phase 2 done after migration\n");
  return state[1] % 100000;
}
|}

(* One line per image shipped or stored, read from the cluster trace. *)
let print_images cluster =
  List.iter
    (fun (ev : Obs.Trace.event) ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Migrate_done { ok; bytes; pack_s; transfer_s; compile_s; _ }
        ->
        Printf.printf
          "  pid %d: migrate%s, %d bytes; pack %.4fs + transfer %.4fs + \
           recompile %.4fs (simulated)\n"
          ev.Obs.Trace.pid
          (if ok then "" else " (failed)")
          bytes pack_s transfer_s compile_s
      | Obs.Trace.Checkpoint { path; bytes } ->
        Printf.printf "  pid %d: stored %s, %d bytes\n" ev.Obs.Trace.pid path
          bytes
      | _ -> ())
    (Obs.Trace.events (Net.Cluster.trace cluster))

let () =
  print_endline "Whole-process migration demo";
  print_endline "============================\n";

  (* a two-node cluster with DIFFERENT architectures *)
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        node_count = 2;
        arches = [| Vm.Arch.cisc32; Vm.Arch.risc64 |] }
  in
  let fir = Mcc.Api.compile_exn (Mcc.Api.C worker) in
  let pid = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 fir in
  let _ = Net.Cluster.run cluster in

  (* the source process was terminated by the successful migration; its
     successor holds the rank *)
  (match Net.Cluster.entry_of_rank cluster 0 with
  | Some e ->
    Printf.printf "origin pid %d on node0 (cisc32), successor pid %d on %s\n"
      pid e.Net.Cluster.proc.Vm.Process.pid
      (Net.Cluster.node cluster e.Net.Cluster.node_id).Net.Cluster.node_name;
    (match e.Net.Cluster.proc.Vm.Process.status with
    | Vm.Process.Exited n -> Printf.printf "final result: %d\n" n
    | s ->
      Printf.printf "unexpected status: %s\n"
        (match s with
        | Vm.Process.Trapped m -> "trapped " ^ m
        | Vm.Process.Running -> "running"
        | _ -> "?"))
  | None -> print_endline "rank lost!");

  print_endline "\nimages shipped:";
  print_images cluster;

  (* ---- suspend to storage and resume later ---- *)
  print_endline "\nsuspend / resume from shared storage:";
  let suspender =
    Mcc.Api.compile_exn
      (Mcc.Api.C
         {|
int main() {
  int x = 1234;
  migrate("suspend://frozen.img");
  // executes only when the image is resumed
  return x + 1;
}
|})
  in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let pid = Net.Cluster.spawn cluster ~node_id:0 suspender in
  let _ = Net.Cluster.run cluster in
  (match Net.Cluster.entry_of_pid cluster pid with
  | Some e ->
    Printf.printf "  suspended process status: %s\n"
      (match e.Net.Cluster.proc.Vm.Process.status with
      | Vm.Process.Exited _ -> "terminated (image written)"
      | _ -> "?")
  | None -> ());
  print_images cluster;
  Printf.printf "  image on storage: %s (%d bytes)\n"
    (if Net.Storage.exists (Net.Cluster.storage cluster) "frozen.img" then
       "yes"
     else "no")
    (Option.value ~default:0
       (Net.Storage.size (Net.Cluster.storage cluster) "frozen.img"));
  (match Net.Cluster.resurrect cluster ~node_id:1 ~path:"frozen.img" with
  | Ok new_pid ->
    let _ = Net.Cluster.run cluster in
    (match Net.Cluster.entry_of_pid cluster new_pid with
    | Some e ->
      Printf.printf "  resumed on node1 as pid %d -> %s\n" new_pid
        (match e.Net.Cluster.proc.Vm.Process.status with
        | Vm.Process.Exited n -> Printf.sprintf "exit %d" n
        | _ -> "?")
    | None -> ())
  | Error m -> Printf.printf "  resume failed: %s\n" m)
