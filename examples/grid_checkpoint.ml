(* Figure 2: the grid computation with speculative checkpointing.

     dune exec examples/grid_checkpoint.exe

   Deploys the generated mini-C stencil ranks onto the simulated cluster,
   kills a node mid-run, resurrects the victim rank from its checkpoint
   on a spare node, and verifies the final answer bit-exactly against a
   sequential golden model.  The cluster's trace shows the recovery
   protocol of Figure 2 happening. *)

let config =
  { Mcc.Gridapp.ranks = 4; rows_per_rank = 6; cols = 12; timesteps = 60;
    interval = 10; work_us_per_step = 2000 }

let show_checksums label sums =
  Printf.printf "%-28s %s\n" label
    (String.concat " "
       (List.map
          (function Some n -> Printf.sprintf "%6d" n | None -> "     ?")
          (Array.to_list sums)))

let () =
  Printf.printf
    "Figure 2: %dx%d grid, %d ranks, %d timesteps, checkpoint every %d\n\n"
    (config.Mcc.Gridapp.ranks * config.Mcc.Gridapp.rows_per_rank)
    config.Mcc.Gridapp.cols config.Mcc.Gridapp.ranks
    config.Mcc.Gridapp.timesteps config.Mcc.Gridapp.interval;

  let golden = Mcc.Gridapp.golden_checksums config in
  Printf.printf "%-28s %s\n" "sequential golden model:"
    (String.concat " "
       (List.map (Printf.sprintf "%6d") (Array.to_list golden)));

  (* ---- fault-free run ---- *)
  let net = Net.Simnet.create ~latency_us:5.0 () in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 4; net = Some net } in
  let d = Mcc.Gridapp.deploy cluster config in
  let _ = Mcc.Gridapp.run d in
  show_checksums "fault-free distributed run:" (Mcc.Gridapp.checksums d);
  let t_clean = Net.Cluster.now cluster in

  (* ---- run with an injected node failure ---- *)
  let net = Net.Simnet.create ~latency_us:5.0 () in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 5; net = Some net } in
  let d = Mcc.Gridapp.deploy ~spare:true cluster config in
  let victims =
    Mcc.Gridapp.fail_and_recover ~rounds_before_failure:20 d ~victim_node:1
      ~spare_node:4
  in
  let _ = Mcc.Gridapp.run d in
  show_checksums
    (Printf.sprintf "after killing rank %s:"
       (String.concat "," (List.map string_of_int victims)))
    (Mcc.Gridapp.checksums d);
  let t_faulty = Net.Cluster.now cluster in

  Printf.printf
    "\nsimulated completion time: %.3f s fault-free, %.3f s with one node \
     failure\n"
    t_clean t_faulty;

  print_endline "\nCluster trace around the failure:";
  let interesting (e : Obs.Trace.event) =
    match e.Obs.Trace.kind with
    | Obs.Trace.Node_fail | Obs.Trace.Checkpoint _ -> true
    | Obs.Trace.Resurrect { ok; _ } -> ok
    | Obs.Trace.Forced_rollback { level } -> level >= 0
    | _ -> false
  in
  let shown = ref 0 in
  List.iter
    (fun e ->
      if interesting e && !shown < 14 then begin
        incr shown;
        Printf.printf "  %s\n" (Obs.Trace.event_to_json e)
      end)
    (Obs.Trace.timeline (Net.Cluster.trace cluster));

  let ok =
    Array.for_all2
      (fun g s -> match s with Some n -> n = g | None -> false)
      golden (Mcc.Gridapp.checksums d)
  in
  Printf.printf "\nverification vs golden model: %s\n"
    (if ok then "EXACT MATCH" else "MISMATCH")
