(* The canonical grid computation (paper, Figure 2).

   A 2-D heat-diffusion stencil over an R x C grid, row-decomposed across
   P ranks.  Each rank owns [rows_per_rank] rows plus two ghost rows; at
   every timestep it exchanges border rows with its neighbours over the
   cluster's message-passing interface, then updates its interior.  Every
   [interval] steps it runs a neighbour barrier, commits its speculation,
   writes a checkpoint with migrate("checkpoint://..."), and enters a new
   speculation — exactly the main loop of Figure 2, generated as mini-C
   source and compiled by the MCC pipeline.

   Failure recovery (also Figure 2): when a node dies, the rank it hosted
   is resurrected from its last checkpoint by the resurrection daemon
   ([recover]); surviving ranks observe MSG_ROLL on their pending
   receives and abort their current speculation, rolling back to the last
   checkpoint boundary; the speculation-join cascade propagates the
   rollback to every process that consumed speculative border data.  The
   neighbour barrier before each commit keeps checkpoints globally
   aligned, which is what gives the paper's "will not rollback more than
   one speculation" guarantee.

   [golden_checksums] computes the same stencil sequentially in OCaml with
   identical floating-point evaluation order, so distributed runs — with
   or without injected failures — are verified bit-exactly. *)

type config = {
  ranks : int;
  rows_per_rank : int;
  cols : int;
  timesteps : int;
  interval : int; (* checkpoint every this many steps; 0 = never *)
  work_us_per_step : int;
    (* simulated microseconds of computation each step stands for: the
       small verification grid is bit-exactly checked against the golden
       model, while this charge models the production-scale tile of the
       paper's long-running application (0 = off) *)
}

let default_config =
  { ranks = 4; rows_per_rank = 8; cols = 16; timesteps = 20; interval = 5;
    work_us_per_step = 0 }

let barrier_tag_base = 1 lsl 20

(* Initial value of global cell (gi, j); gi ranges over -1 .. P*L (ghost
   boundary rows included). *)
let initial_value gi j =
  float_of_int (((gi + 7) * 31 + (j + 3) * 17) mod 100) /. 100.0

let checkpoint_path rank = Printf.sprintf "grid_rank%d" rank

(* ------------------------------------------------------------------ *)
(* mini-C source generation                                            *)
(* ------------------------------------------------------------------ *)

let source config rank =
  let p = config.ranks
  and lr = config.rows_per_rank
  and c = config.cols
  and t = config.timesteps
  and ck = config.interval in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "// Figure 2 grid computation, rank %d of %d (generated)\n" rank p;
  add "int main() {\n";
  add "  int r = %d;\n" rank;
  add "  float *u = alloc_float(%d);\n" ((lr + 2) * c);
  add "  float *un = alloc_float(%d);\n" ((lr + 2) * c);
  add "  float *bbuf = alloc_float(1);\n";
  add "  int i; int j; int step; int got1; int got2; int err;\n";
  add "  int b1; int b2;\n";
  (* initialization: local row i corresponds to global row r*LR + i - 1 *)
  add "  for (i = 0; i <= %d; i = i + 1) {\n" (lr + 1);
  add "    for (j = 0; j < %d; j = j + 1) {\n" c;
  add "      int gi = %d + i - 1;\n" (rank * lr);
  add "      u[i * %d + j] = (float)(((gi + 7) * 31 + (j + 3) * 17) %% 100) / 100.0;\n" c;
  add "      un[i * %d + j] = u[i * %d + j];\n" c c;
  add "    }\n";
  add "  }\n";
  let speculate_stmt () =
    if ck > 0 then begin
      add "  specid = speculate();\n";
      add "  if (specid < 0) { specid = 0 - specid; }\n"
    end
  in
  if ck > 0 then add "  int specid;\n";
  speculate_stmt ();
  add "  for (step = 1; step <= %d; step = step + 1) {\n" t;
  (* --- border exchange; send failures are ignored (recv-side roll
         notices drive recovery), receives poll and watch for MSG_ROLL *)
  add "    err = 0;\n";
  if rank > 0 then
    add "    msg_send(%d, 2 * step, u + %d, %d);\n" (rank - 1) c c;
  if rank < p - 1 then
    add "    msg_send(%d, 2 * step + 1, u + %d, %d);\n" (rank + 1) (lr * c) c;
  if rank > 0 then begin
    add "    got1 = msg_try_recv(%d, 2 * step + 1, u, %d);\n" (rank - 1) c;
    add "    while (got1 == 0 - 1) { got1 = msg_try_recv(%d, 2 * step + 1, u, %d); }\n"
      (rank - 1) c;
    add "    if (got1 < 0) { err = got1; }\n"
  end;
  if rank < p - 1 then begin
    add "    if (err == 0) {\n";
    add "      got2 = msg_try_recv(%d, 2 * step, u + %d, %d);\n" (rank + 1)
      ((lr + 1) * c) c;
    add "      while (got2 == 0 - 1) { got2 = msg_try_recv(%d, 2 * step, u + %d, %d); }\n"
      (rank + 1) ((lr + 1) * c) c;
    add "      if (got2 < 0) { err = got2; }\n";
    add "    }\n"
  end;
  if ck > 0 then
    add "    if (err == 0 - 2) { abort(specid); }\n"
  else
    (* without speculation there is no recovery: a failure is fatal *)
    add "    if (err == 0 - 2) { return 0 - 1; }\n";
  (* --- computation (Figure 2's do_computation) *)
  if config.work_us_per_step > 0 then
    add "    work_us(%d);\n" config.work_us_per_step;
  add "    for (i = 1; i <= %d; i = i + 1) {\n" lr;
  add "      for (j = 1; j < %d; j = j + 1) {\n" (c - 1);
  add "        float s = u[(i - 1) * %d + j] + u[(i + 1) * %d + j];\n" c c;
  add "        s = s + u[i * %d + j - 1];\n" c;
  add "        s = s + u[i * %d + j + 1];\n" c;
  add "        un[i * %d + j] = s * 0.25;\n" c;
  add "      }\n";
  add "    }\n";
  add "    for (i = 1; i <= %d; i = i + 1) {\n" lr;
  add "      for (j = 1; j < %d; j = j + 1) {\n" (c - 1);
  add "        u[i * %d + j] = un[i * %d + j];\n" c c;
  add "      }\n";
  add "    }\n";
  (* --- checkpoint boundary: neighbour barrier, commit, checkpoint,
         re-speculate (Figure 2's "save a checkpoint if it's time") *)
  if ck > 0 then begin
    add "    if (step %% %d == 0) {\n" ck;
    if rank > 0 then
      add "      msg_send(%d, %d + step, bbuf, 1);\n" (rank - 1)
        barrier_tag_base;
    if rank < p - 1 then
      add "      msg_send(%d, %d + step, bbuf, 1);\n" (rank + 1)
        barrier_tag_base;
    if rank > 0 then begin
      add "      b1 = msg_try_recv(%d, %d + step, bbuf, 1);\n" (rank - 1)
        barrier_tag_base;
      add "      while (b1 == 0 - 1) { b1 = msg_try_recv(%d, %d + step, bbuf, 1); }\n"
        (rank - 1) barrier_tag_base;
      add "      if (b1 == 0 - 2) { abort(specid); }\n"
    end;
    if rank < p - 1 then begin
      add "      b2 = msg_try_recv(%d, %d + step, bbuf, 1);\n" (rank + 1)
        barrier_tag_base;
      add "      while (b2 == 0 - 1) { b2 = msg_try_recv(%d, %d + step, bbuf, 1); }\n"
        (rank + 1) barrier_tag_base;
      add "      if (b2 == 0 - 2) { abort(specid); }\n"
    end;
    add "      commit(specid);\n";
    add "      migrate(\"checkpoint://%s\");\n" (checkpoint_path rank);
    add "      specid = speculate();\n";
    add "      if (specid < 0) { specid = 0 - specid; }\n";
    add "    }\n"
  end;
  add "  }\n";
  (* commit any open speculation before the final checksum *)
  if ck > 0 then begin
    add "  if (spec_level() > 0) { commit(spec_level()); }\n"
  end;
  add "  float sum = 0.0;\n";
  add "  for (i = 1; i <= %d; i = i + 1) {\n" lr;
  add "    for (j = 0; j < %d; j = j + 1) {\n" c;
  add "      sum = sum + u[i * %d + j];\n" c;
  add "    }\n";
  add "  }\n";
  add "  return (int)(sum * 16.0);\n";
  add "}\n";
  Buffer.contents buf

let compile_rank config rank =
  match Minic.Driver.compile (source config rank) with
  | Ok fir -> fir
  | Error e ->
    invalid_arg
      ("Gridapp: generated source failed to compile: "
      ^ Minic.Driver.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Golden model                                                        *)
(* ------------------------------------------------------------------ *)

(* Sequential reference with the same evaluation order; returns the
   per-rank checksums the distributed ranks exit with. *)
let golden_checksums config =
  let p = config.ranks
  and lr = config.rows_per_rank
  and c = config.cols in
  let rows = p * lr in
  (* global array with ghost boundary rows -1 and rows *)
  let u = Array.make_matrix (rows + 2) c 0.0 in
  let un = Array.make_matrix (rows + 2) c 0.0 in
  for gi = -1 to rows do
    for j = 0 to c - 1 do
      u.(gi + 1).(j) <- initial_value gi j;
      un.(gi + 1).(j) <- u.(gi + 1).(j)
    done
  done;
  for _step = 1 to config.timesteps do
    for gi = 0 to rows - 1 do
      for j = 1 to c - 2 do
        let s = u.(gi).(j) +. u.(gi + 2).(j) in
        let s = s +. u.(gi + 1).(j - 1) in
        let s = s +. u.(gi + 1).(j + 1) in
        un.(gi + 1).(j) <- s *. 0.25
      done
    done;
    for gi = 0 to rows - 1 do
      for j = 1 to c - 2 do
        u.(gi + 1).(j) <- un.(gi + 1).(j)
      done
    done
  done;
  Array.init p (fun r ->
      let sum = ref 0.0 in
      for i = 1 to lr do
        for j = 0 to c - 1 do
          sum := !sum +. u.((r * lr) + i).(j)
        done
      done;
      int_of_float (!sum *. 16.0))

(* ------------------------------------------------------------------ *)
(* Deployment and recovery                                             *)
(* ------------------------------------------------------------------ *)

type deployment = {
  d_config : config;
  d_cluster : Net.Cluster.t;
  mutable d_pids : int array; (* rank -> current pid *)
}

(* Place rank r on node (r mod usable_nodes); optionally reserve the last
   node as a hot spare for resurrection. *)
let deploy ?engine ?(spare = false) cluster config =
  let nodes = Net.Cluster.node_count cluster in
  let usable = if spare && nodes > 1 then nodes - 1 else nodes in
  let pids =
    Array.init config.ranks (fun r ->
        let fir = compile_rank config r in
        Net.Cluster.spawn cluster ?engine ~rank:r ~node_id:(r mod usable) fir)
  in
  { d_config = config; d_cluster = cluster; d_pids = pids }

let rank_status d r =
  match Net.Cluster.entry_of_pid d.d_cluster d.d_pids.(r) with
  | Some e -> e.Net.Cluster.proc.Vm.Process.status
  | None -> Vm.Process.Trapped "pid lost"

let all_exited d =
  Array.for_all (fun pid -> Net.Cluster.exit_code d.d_cluster pid <> None)
    d.d_pids

(* Run until every rank has exited (or the round budget is hit). *)
let run ?(max_rounds = 2_000_000) d =
  Net.Cluster.run d.d_cluster ~max_rounds ~stop:(fun () -> all_exited d)

let checksums d = Array.map (Net.Cluster.exit_code d.d_cluster) d.d_pids

(* The resurrection daemon: bring [rank] back on [node_id] from its last
   checkpoint file (Figure 2's recovery path). *)
let recover d ~rank ~node_id =
  match
    Net.Cluster.resurrect d.d_cluster ~rank ~node_id
      ~path:(checkpoint_path rank)
  with
  | Ok pid ->
    d.d_pids.(rank) <- pid;
    Ok pid
  | Error m -> Error m

(* Ranks hosted on a node (by current pid placement). *)
let ranks_on_node d node_id =
  List.filter_map
    (fun r ->
      match Net.Cluster.entry_of_pid d.d_cluster d.d_pids.(r) with
      | Some e when e.Net.Cluster.node_id = node_id -> Some r
      | _ -> None)
    (List.init d.d_config.ranks (fun r -> r))

(* Self-healing run loop.

   Without a failure detector (legacy, omniscient mode): run until
   quiescent and, whenever ranks died with their node (Trapped) but left
   a checkpoint on shared storage, resurrect them on the least-loaded
   live node and keep going.

   With a failure detector configured on the cluster, recovery is driven
   ONLY by heartbeat suspicion: a rank is resurrected when the node
   currently hosting it is suspected (unanimous heartbeat silence past
   the timeout) — the loop never consults ground-truth crash state.  A
   stalled or partitioned node can therefore be FALSELY suspected; the
   resurrection bumps the rank's incarnation epoch, and the cluster's
   epoch fencing guarantees the zombie never completes.  When the system
   goes quiescent without a matured suspicion (every survivor parked on
   a silent rank), idle time is pumped through {!Net.Cluster.advance_clocks}
   so silence can cross the timeout; a bounded number of fruitless pumps
   declares the run wedged.

   Stops when every rank exited, the round budget is spent, or a rank
   needing recovery has no checkpoint to come back from (wedged — the
   caller sees it as missing checksums). *)
let run_resilient ?(max_rounds = 2_000_000) d =
  let cluster = d.d_cluster in
  let storage = Net.Cluster.storage cluster in
  let detect = Net.Cluster.detection_enabled cluster in
  let suspects = ref [] in
  let least_loaded_live_node () =
    let best = ref None in
    for id = 0 to Net.Cluster.node_count cluster - 1 do
      let n = Net.Cluster.node cluster id in
      if n.Net.Cluster.alive && not (List.mem id !suspects) then begin
        let load = List.length (ranks_on_node d id) in
        match !best with
        | Some (_, l) when l <= load -> ()
        | _ -> best := Some (id, load)
      end
    done;
    Option.map fst !best
  in
  let dead_ranks () =
    List.filter
      (fun r ->
        match rank_status d r with Vm.Process.Trapped _ -> true | _ -> false)
      (List.init d.d_config.ranks (fun r -> r))
  in
  (* Detection mode: a rank needs recovery iff its current holder sits
     on a suspected node, has not already exited, AND has a checkpoint
     to come back from.  Exited holders are left alone (their result is
     in), and a suspected node with nothing unfinished on it triggers
     nothing.  The checkpoint guard matters under false suspicion: a
     stalled node suspected before the first checkpoint interval must
     not wedge the run — with no checkpoint there is nothing safe to
     resurrect, so we keep running and let the suspicion clear when the
     stall ends (a genuinely dead rank with no checkpoint wedges via the
     bounded idle-pump path below). *)
  let ranks_needing_recovery () =
    if not detect then dead_ranks ()
    else begin
      suspects := Net.Cluster.suspected_nodes cluster;
      if !suspects = [] then []
      else
        List.filter
          (fun r ->
            match Net.Cluster.entry_of_pid cluster d.d_pids.(r) with
            | Some e ->
              List.mem e.Net.Cluster.node_id !suspects
              && (match e.Net.Cluster.proc.Vm.Process.status with
                 | Vm.Process.Exited _ -> false
                 | _ -> true)
              && Net.Storage.exists storage (checkpoint_path r)
            | None -> false)
          (List.init d.d_config.ranks (fun r -> r))
    end
  in
  let pump_dt =
    match Net.Cluster.detector_config cluster with
    | Some c ->
      c.Net.Detector.hb_interval_s +. c.Net.Detector.suspect_timeout_s
    | None -> 0.0
  in
  let idle_pumps = ref 0 in
  let max_idle_pumps = 64 in
  let total = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let budget = max_rounds - !total in
    if budget <= 0 then continue_ := false
    else begin
      total :=
        !total
        + Net.Cluster.run cluster ~max_rounds:budget ~stop:(fun () ->
              all_exited d || (detect && ranks_needing_recovery () <> []));
      if all_exited d then continue_ := false
      else begin
        match ranks_needing_recovery () with
        | [] ->
          if detect && !idle_pumps < max_idle_pumps then begin
            (* quiescent without a matured suspicion: pass idle time so
               heartbeat silence can cross the suspicion timeout *)
            incr idle_pumps;
            Net.Cluster.advance_clocks cluster pump_dt
          end
          else
            (* quiescent with nothing to resurrect: wedged (the caller
               sees missing checksums) or simply out of progress *)
            continue_ := false
        | need ->
          idle_pumps := 0;
          let recovered_all =
            List.for_all
              (fun r ->
                Net.Storage.exists storage (checkpoint_path r)
                &&
                match least_loaded_live_node () with
                | None -> false
                | Some node_id -> (
                  match recover d ~rank:r ~node_id with
                  | Ok _ -> true
                  | Error _ -> false))
              need
          in
          if not recovered_all then continue_ := false
      end
    end
  done;
  !total

(* Inject a node failure once the first round of checkpoints exists, then
   resurrect the victims on [spare_node].  Returns the victim ranks.
   [after_time] delays the failure until the simulated clock reaches it
   (the paper's long-running setting: failures strike mid-computation,
   not at startup). *)
let fail_and_recover ?(rounds_before_failure = 400) ?after_time d
    ~victim_node ~spare_node =
  (* run until every rank has a checkpoint on storage *)
  let storage = Net.Cluster.storage d.d_cluster in
  let have_all_checkpoints () =
    List.for_all
      (fun r -> Net.Storage.exists storage (checkpoint_path r))
      (List.init d.d_config.ranks (fun r -> r))
  in
  let _ =
    Net.Cluster.run d.d_cluster ~max_rounds:1_000_000 ~stop:(fun () ->
        have_all_checkpoints () || all_exited d)
  in
  if all_exited d then []
  else begin
    (* let the computation advance a bit past the checkpoint *)
    (match after_time with
    | Some t ->
      let _ =
        Net.Cluster.run d.d_cluster ~max_rounds:10_000_000 ~stop:(fun () ->
            all_exited d || Net.Cluster.now d.d_cluster >= t)
      in
      ()
    | None -> ());
    let _ = Net.Cluster.run d.d_cluster ~max_rounds:rounds_before_failure
        ~stop:(fun () -> all_exited d) in
    if all_exited d then []
    else begin
      let victims = ranks_on_node d victim_node in
      Net.Cluster.fail_node d.d_cluster victim_node;
      List.iter
        (fun r ->
          match recover d ~rank:r ~node_id:spare_node with
          | Ok _ -> ()
          | Error m ->
            invalid_arg (Printf.sprintf "recovery of rank %d failed: %s" r m))
        victims;
      victims
    end
  end

module Serve = Serve
