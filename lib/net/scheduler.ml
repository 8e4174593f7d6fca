(* The scheduler (see scheduler.mli).  The per-entry helpers live here,
   next to the round that calls them. *)

open Vm
open Cluster_types
open Cluster_core

(* Emulator steps a process runs per scheduling turn. *)
let quantum = 64

type t = {
  core : Cluster_core.t;
  extern : Process.handler; (* the cluster table's, built once *)
  ship : Shipping.t;
  recovery : Recovery.t;
  tick : Balance_tick.t;
  mutable visits : int;
      (* entries handed out by [node_entries], summed over the run: a
         plain int, not a metrics counter, so rendered registries and
         their golden digests do not carry it *)
  mutable blocks : int;  (* emulator steps run, a plain int likewise *)
  c_rounds : Obs.Metrics.counter;
  c_quanta : Obs.Metrics.counter;
}

let create core ext ship recovery tick =
  let m = core.metrics in
  { core; extern = Externs.handler ext; ship; recovery; tick; visits = 0;
    blocks = 0;
    c_rounds = Obs.Metrics.counter m "sched.rounds";
    c_quanta = Obs.Metrics.counter m "sched.quanta" }

let runnable (n : node) (e : entry) =
  n.alive
  && (match e.proc.Process.status with
     | Process.Running | Process.Migrating _ -> true
     | Process.Exited _ | Process.Trapped _ -> false)
  && e.start_at <= n.clock

(* Wake one parked process if its awaited event is due on its node's
   local clock: a roll notice from the polled source, or a matching
   delivery. *)
let wake_entry (e : entry) ~clock =
  match e.parked_on with
  | Some (src, tag) ->
    if
      Mpi.has_roll_notice e.mailbox ~src
      ||
      match Mpi.next_matching_delivery e.mailbox ~src ~tag with
      | Some at -> at <= clock
      | None -> false
    then e.parked_on <- None
  | None -> ()

(* The entries hosted on [n], newest first: the node's resident list,
   which holds its live entries plus those terminated since the last
   purge.  Every turn takes them here, so [visits] counts what the
   scheduler walks. *)
let node_entries s (n : node) =
  s.visits <- s.visits + List.length n.residents;
  n.residents

let visits s = s.visits
let blocks s = s.blocks

(* Wake parked processes on [n] whose awaited event is due on the node's
   local clock. *)
let wake_ready s (n : node) =
  List.iter (fun e -> wake_entry e ~clock:n.clock) (node_entries s n)

let earliest acc c =
  match acc with Some a when not (c < a) -> acc | Some _ | None -> Some c

(* The earliest future event relevant to one entry, folded into [acc]:
   a delayed start, or the delivery a parked process is waiting for. *)
let fold_next_event ~clock acc (e : entry) =
  if Process.is_terminated e.proc then acc
  else begin
    let acc = if e.start_at > clock then earliest acc e.start_at else acc in
    match e.parked_on with
    | Some (src, tag) -> (
      match Mpi.next_matching_delivery e.mailbox ~src ~tag with
      | Some at -> earliest acc at
      | None -> acc)
    | None -> acc
  end

(* The earliest future event relevant to node [n]. *)
let next_event_on s (n : node) =
  List.fold_left (fold_next_event ~clock:n.clock) None (node_entries s n)

(* Emit every heartbeat now due on each alive node's local clock and fan
   it out to every other node through the fault layer: a partitioned or
   lossy link silently eats the beat (silence IS the failure signal — no
   retransmission), a healthy one delivers it after the charged transfer
   time plus jitter.  A crashed node emits nothing; a stalled node's
   beats are skipped via {!Detector.skip_to}, so its silence is visible
   to observers even though the node is "alive". *)
let pump_heartbeats (core : Cluster_core.t) =
  match core.detector with
  | None -> ()
  | Some det ->
    let hb_s = Simnet.message_seconds core.net Detector.hb_bytes in
    Array.iter
      (fun n ->
        if n.alive then
          List.iter
            (fun emit_at ->
              Array.iter
                (fun (m : node) ->
                  if m.node_id <> n.node_id then begin
                    Simnet.record_message core.net Detector.hb_bytes;
                    match
                      Faults.on_heartbeat core.faults ~now:emit_at
                        ~src:n.node_id ~dst:m.node_id
                    with
                    | `Drop -> ()
                    | `Deliver delay ->
                      Detector.record det ~src:n.node_id ~dst:m.node_id
                        ~at:(emit_at +. hb_s +. delay)
                  end)
                core.nodes)
            (Detector.due det ~node:n.node_id ~now:n.clock))
      core.nodes

(* Scripted node faults fire when the CLUSTER has reached their time:
   the floor is the minimum local clock over alive nodes still hosting
   work.  Gating on the floor (not the victim's own clock) keeps the
   failure causal — nodes run ahead of each other, and a crash fired on a
   racing node's local clock would post roll notices that lagging nodes
   observe before the messages sent to them earlier, breaking the grid's
   checkpoint alignment.  A stall jumps the node's clock (the node loses
   the time); a crash is a full [fail_node] with the usual cascade.
   Returns true if any fired. *)
let fire_node_faults s =
  let core = s.core in
  let fired = ref false in
  let hosts_work n =
    List.exists
      (fun (e : entry) -> not (Process.is_terminated e.proc))
      (node_entries s n)
  in
  let floor_clock =
    let f =
      Array.fold_left
        (fun acc n -> if n.alive && hosts_work n then min acc n.clock else acc)
        infinity core.nodes
    in
    if f = infinity then now core else f
  in
  Array.iter
    (fun n ->
      if n.alive then begin
        (match
           Faults.take_stall core.faults ~node:n.node_id ~now:floor_clock
         with
        | Some stall_s ->
          n.clock <- n.clock +. stall_s;
          (* the stalled node emits no heartbeats for the whole window:
             the beats it "would have sent" are skipped, so observers see
             exactly the silence a real freeze produces *)
          (match core.detector with
          | Some det -> Detector.skip_to det ~node:n.node_id ~at:n.clock
          | None -> ());
          emit core ~time:n.clock ~node:n.node_id
            (Obs.Trace.Node_stall { stall_s });
          fired := true
        | None -> ());
        if
          n.alive
          && Faults.take_crash core.faults ~node:n.node_id ~now:floor_clock
        then begin
          Recovery.fail_node s.recovery n.node_id;
          fired := true
        end
      end)
    core.nodes;
  !fired

(* Run one scheduling round: each alive node runs its runnable,
   non-parked processes for one quantum and advances its LOCAL clock by
   the work done.  Nodes therefore progress independently and in
   parallel; processes sharing a node serialise (and pay context
   switches).  Returns true if any process made progress. *)
let round s =
  let core = s.core in
  Obs.Metrics.incr s.c_rounds;
  let progressed =
    ref (Faults.node_faults_pending core.faults && fire_node_faults s)
  in
  Array.iter
    (fun n ->
      if n.alive then begin
        (* purge terminated entries from the per-node index (terminal
           statuses are permanent; the global list keeps them for
           introspection and cascades); the list is rebuilt only after
           a termination *)
        let terminated (e : entry) = Process.is_terminated e.proc in
        if List.exists terminated n.residents then
          n.residents <-
            List.filter (fun e -> not (terminated e)) n.residents;
        wake_ready s n;
        let procs =
          (* spawn order (oldest first): the residents are newest first *)
          List.fold_left
            (fun acc (e : entry) ->
              if runnable n e && e.parked_on = None then e :: acc else acc)
            [] (node_entries s n)
        in
        let node_cycles = ref 0 in
        let ran = ref 0 in
        List.iter
          (fun (e : entry) ->
            if is_stale core e then begin
              (* schedule-time fence: a zombie incarnation never executes
                 another instruction once its rank's epoch has moved on *)
              fence core e ~what:"schedule";
              progressed := true
            end
            else begin
            let before = e.proc.Process.cycles in
            (* time base for extern handlers running in this quantum *)
            core.cur_base <- n.clock +. Arch.seconds n.node_arch !node_cycles;
            core.cur_cycles0 <- before;
            core.running <- Some e;
            let steps = ref quantum in
            while
              !steps > 0
              && (match e.proc.Process.status with
                 | Process.Running -> true
                 | _ -> false)
              && e.parked_on = None
            do
              Emulator.step ~extern:s.extern e.emu;
              decr steps
            done;
            (match e.proc.Process.status with
            | Process.Migrating _ -> Shipping.handle_migration s.ship e
            | _ -> ());
            core.running <- None;
            s.blocks <- s.blocks + quantum - !steps;
            let delta = e.proc.Process.cycles - before in
            if delta > 0 || !steps < quantum then begin
              progressed := true;
              incr ran;
              Obs.Metrics.incr s.c_quanta
            end;
            node_cycles := !node_cycles + delta
            end)
          procs;
        (* context switches between the processes that shared the node *)
        if !ran > 1 then
          node_cycles :=
            !node_cycles
            + (!ran * Emulator.context_switch_cycles n.node_arch);
        let delta_s = Arch.seconds n.node_arch !node_cycles in
        n.busy_seconds <- n.busy_seconds +. delta_s;
        n.clock <- n.clock +. delta_s;
        (* an idle node advances its clock to its next event (a pending
           delivery or a delayed process start): idle waiting is time
           passing, and it must pass even while other nodes stay busy *)
        let idle = ref false in
        if !ran = 0 then begin
          match next_event_on s n with
          | Some at when at > n.clock ->
            n.clock <- at;
            wake_ready s n;
            progressed := true
          | Some _ | None -> idle := true
        end;
        (* the quantum boundary: cut over the moves whose destination's
           code is ready by this node's clock *)
        if
          Shipping.has_pending s.ship
          && Shipping.land_due s.ship n ~idle:!idle
        then progressed := true
      end)
    core.nodes;
  pump_heartbeats core;
  (* a policy move creates work this round has not seen *)
  let moved = Balance_tick.tick s.tick in
  (* a cluster with cut-overs pending is not quiescent: with nothing
     else to run, they land now *)
  !progressed || moved
  || (Shipping.has_pending s.ship && Shipping.land_all s.ship)

(* Advance every alive node's local clock by [dt] even with no runnable
   work: lets a resilience driver pump heartbeat traffic and time out
   suspicions when the system is otherwise quiescent (every survivor
   parked on a rank whose holder's node went silent).

   Clocks advance to (cluster-wide now + dt), not (own clock + dt): an
   idle node's lagging clock is an artifact of the conservative DES (it
   simply had nothing to do), and while it lags it keeps promoting old
   heartbeats as "recent", vetoing unanimous suspicion for as long as
   the lag.  The node has no pending work, so jumping it to the present
   is observationally safe. *)
let advance_clocks s dt =
  let core = s.core in
  if dt > 0.0 then begin
    let target = now core +. dt in
    Array.iter
      (fun n -> if n.alive then n.clock <- Float.max n.clock target)
      core.nodes;
    pump_heartbeats core;
    Array.iter (fun n -> if n.alive then wake_ready s n) core.nodes
  end

(* Run until nothing can make progress anymore or [max_rounds] is hit.
   [stop] is polled between rounds for driver-controlled termination. *)
let run ?(max_rounds = 1_000_000) ?(stop = fun () -> false) s =
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < max_rounds && not (stop ()) do
    incr rounds;
    if not (round s) then continue_ := false
  done;
  !rounds
