(* The placement policy engine's tick (see balance_tick.mli). *)

open Vm
open Cluster_types
open Cluster_core

(* [bal_busy0] and [bal_cycles0] remember the previous tick's
   busy-seconds / charged cycles so a tick measures rates over its own
   period; a pid absent from [bal_cycles0] (fresh successor) measures
   zero for one period, which doubles as anti-ping-pong damping for
   just-moved services. *)
type t = {
  core : Cluster_core.t;
  recovery : Recovery.t;
  ship : Shipping.t;
  mutable bal_prev_at : float;
  mutable bal_next_at : float;
  (* the previous tick saw a move waiting for its cut-over *)
  mutable bal_settling : bool;
  bal_busy0 : float array;
  bal_cycles0 : (int, int) Hashtbl.t;
  c_bal_ticks : Obs.Metrics.counter;
  c_bal_proposals : Obs.Metrics.counter;
  c_bal_moves : Obs.Metrics.counter;
  g_bal_spread : Obs.Metrics.gauge;
  g_bal_last_move : Obs.Metrics.gauge;
}

let create core recovery ship =
  let m = core.metrics in
  { core; recovery; ship; bal_prev_at = 0.0; bal_next_at = Balance.period_s;
    bal_settling = false;
    bal_busy0 = Array.make (Array.length core.nodes) 0.0;
    bal_cycles0 = Hashtbl.create 32;
    c_bal_ticks = Obs.Metrics.counter m "balance.ticks";
    c_bal_proposals = Obs.Metrics.counter m "balance.proposals";
    c_bal_moves = Obs.Metrics.counter m "balance.moves";
    g_bal_spread = Obs.Metrics.gauge m "balance.spread";
    g_bal_last_move = Obs.Metrics.gauge m "balance.last_move_s" }

(* Only REGISTERED services are eligible: their traffic keeps flowing
   through the registry's forwarders while they move.  Nothing is
   planned while a move waits for its cut-over, nor at the first tick
   after: until then the subject's load still shows on the node it is
   leaving and none on the node it is bound for, and the first period
   after the cut-over splits it between the two, so a plan would chase
   a load that has already moved. *)
let tick bt =
  let core = bt.core in
  match core.balance with
  | None -> false
  | Some b ->
    let now_ = now core in
    if now_ < bt.bal_next_at then false
    else begin
      Obs.Metrics.incr bt.c_bal_ticks;
      let elapsed = Float.max (now_ -. bt.bal_prev_at) 1e-9 in
      let loads =
        Array.map
          (fun n ->
            let runnable = ref 0 and mailbox = ref 0 in
            List.iter
              (fun (e : entry) ->
                if not (Process.is_terminated e.proc) then begin
                  incr runnable;
                  mailbox := !mailbox + Mpi.pending e.mailbox
                end)
              n.residents;
            {
              Balance.nl_node = n.node_id;
              nl_alive = n.alive;
              nl_runnable = !runnable;
              nl_cycles_per_s =
                (n.busy_seconds -. bt.bal_busy0.(n.node_id)) /. elapsed;
              nl_mailbox = !mailbox;
            })
          core.nodes
      in
      let candidates =
        List.filter_map
          (fun (e : entry) ->
            match e.rank, e.proc.Process.status with
            | Some r, Process.Running
              when (not (is_stale core e))
                   && Registry.laddr_of_rank core.registry r <> None
                   && (node core e.node_id).alive ->
              let cycles = e.proc.Process.cycles in
              let c0 =
                match Hashtbl.find_opt bt.bal_cycles0 e.proc.Process.pid with
                | Some c -> c
                | None -> cycles
              in
              Some
                {
                  Balance.cd_pid = e.proc.Process.pid;
                  cd_node = e.node_id;
                  cd_load =
                    Balance.candidate_load
                      ~cycles_per_s:
                        (Arch.seconds e.proc.Process.arch (cycles - c0)
                        /. elapsed)
                      ~mailbox:(Mpi.pending e.mailbox);
                }
            | _ -> None)
          core.entries
      in
      let node_of_rank r =
        Option.map (fun (e : entry) -> e.node_id) (entry_of_rank core r)
      in
      let pending = Shipping.has_pending bt.ship in
      let proposals =
        if pending || bt.bal_settling then []
        else Balance.plan b ~loads ~candidates ~node_of_rank
      in
      bt.bal_settling <- pending;
      let spread, _mean = Balance.spread b ~loads in
      Obs.Metrics.set bt.g_bal_spread spread;
      Obs.Metrics.incr ~by:(List.length proposals) bt.c_bal_proposals;
      let moved = ref 0 in
      List.iter
        (fun (p : Balance.proposal) ->
          match
            Recovery.move bt.recovery
              (Move.request ~reason:Move.Policy (Move.Running p.Balance.pr_pid)
                 ~dest:p.Balance.pr_to)
          with
          | Ok _ ->
            incr moved;
            Obs.Metrics.incr bt.c_bal_moves;
            Obs.Metrics.set bt.g_bal_last_move now_
          | Error _ -> ())
        proposals;
      emit core ~time:now_
        (Obs.Trace.Balance_tick
           { spread; proposed = List.length proposals; moved = !moved });
      (* baselines for the next period *)
      Array.iter
        (fun n -> bt.bal_busy0.(n.node_id) <- n.busy_seconds)
        core.nodes;
      Hashtbl.reset bt.bal_cycles0;
      List.iter
        (fun (e : entry) ->
          if not (Process.is_terminated e.proc) then
            Hashtbl.replace bt.bal_cycles0 e.proc.Process.pid
              e.proc.Process.cycles)
        core.entries;
      Balance.decay b;
      bt.bal_prev_at <- now_;
      bt.bal_next_at <- now_ +. Balance.period_s;
      !moved > 0
    end
