(* The cluster's shared core (see cluster_core.mli). *)

open Runtime
open Vm
open Cluster_types

(* The pid and rank tables: an int key hashes to itself, not through
   the generic [Hashtbl.hash].  None of them is ever iterated, so bucket
   order cannot reach a trace. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (k : int) = k land max_int
end)

type t = {
  nodes : node array;
  net : Simnet.t;
  storage : Storage.t;
  faults : Faults.t;
  detector : Detector.t option;
  registry : Registry.t;
  dspec : Dspec.t;
  balance : Balance.t option;
  obj_store : (int, Bytes.t) Hashtbl.t;
  tracer : Obs.Trace.t;
  metrics : Obs.Metrics.t;
  mutable entries : entry list;
  by_pid : entry Int_tbl.t;
  ranks : int Int_tbl.t;
  epochs : int Int_tbl.t;
  rank_mailboxes : Mpi.mailbox Int_tbl.t;
  mutable next_pid : int;
  c_fence_rejections : Obs.Metrics.counter;
  mutable cur_base : float;
  mutable cur_cycles0 : int;
  mutable running : entry option;
}

let create ~nodes ~net ~storage ~faults ~detector ~dspec ~balance ~tracer
    ~metrics =
  { nodes; net; storage; faults; detector;
    registry = Registry.create ~metrics (); dspec; balance;
    obj_store = Hashtbl.create 8; tracer; metrics;
    entries = []; by_pid = Int_tbl.create 32; ranks = Int_tbl.create 32;
    epochs = Int_tbl.create 8; rank_mailboxes = Int_tbl.create 32;
    next_pid = 1;
    c_fence_rejections = Obs.Metrics.counter metrics "fence.rejections";
    cur_base = 0.0; cur_cycles0 = 0; running = None }

let node t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Cluster.node: no node %d" id)
  else t.nodes.(id)

let entry_of_pid t pid = Int_tbl.find_opt t.by_pid pid

let entry_of_rank t rank =
  match Int_tbl.find_opt t.ranks rank with
  | Some pid -> entry_of_pid t pid
  | None -> None

(* cluster-wide time: the farthest local clock (completion time of the
   whole system when quiescent).  Node clocks start at 0 and only grow,
   so this never goes backwards. *)
let now t =
  Array.fold_left
    (fun acc n -> if acc >= n.clock then acc else n.clock)
    0.0 t.nodes

let effective_now t (proc : Process.t) =
  t.cur_base
  +. Arch.seconds proc.Process.arch (proc.Process.cycles - t.cur_cycles0)

let charge_seconds (proc : Process.t) s =
  proc.Process.cycles <-
    proc.Process.cycles
    + int_of_float (s *. float_of_int proc.Process.arch.Arch.clock_mhz *. 1e6)

(* Best available simulated time for an event attributed to [e]: the
   precise mid-quantum time when [e]'s process is the one currently
   executing, its node's local clock otherwise (cascaded rollbacks,
   host-initiated failure/recovery). *)
let entry_time t (e : entry) =
  match t.running with
  | Some r when r.proc.Process.pid = e.proc.Process.pid ->
    effective_now t e.proc
  | Some _ | None -> (node t e.node_id).clock

let entry_rank (e : entry) = match e.rank with Some r -> r | None -> -1

let emit t ~time ?node ?pid ?rank kind =
  Obs.Trace.record t.tracer ~time ?node ?pid ?rank kind

let emit_entry t (e : entry) kind =
  Obs.Trace.record t.tracer ~time:(entry_time t e) ~node:e.node_id
    ~pid:e.proc.Process.pid ~rank:(entry_rank e) kind

(* ------------------------------------------------------------------ *)
(* Entries                                                             *)
(* ------------------------------------------------------------------ *)

let fresh_pid t =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  pid

let rank_mailbox t rank =
  match Int_tbl.find_opt t.rank_mailboxes rank with
  | Some mbox -> mbox
  | None ->
    let mbox = Mpi.create_mailbox () in
    Int_tbl.add t.rank_mailboxes rank mbox;
    mbox

let mailbox_for t rank =
  match rank with
  | Some r -> rank_mailbox t r
  | None -> Mpi.create_mailbox ()

(* Spawn, migration successor and resurrection all build entries here. *)
let make_entry ?baseline ?(bindings = Hashtbl.create 4) ?(notices = [])
    ~proc ~emu ~node_id ~mailbox ~rank ~epoch ~start_at () =
  { proc; emu; node_id; mailbox; rank; epoch; start_at; parked_on = None;
    baseline; bindings; notices }

(* An entry's [node_id] is immutable (a move builds a successor), so this
   is the only insertion point of a node's resident list. *)
let register t (entry : entry) =
  t.entries <- entry :: t.entries;
  let n = node t entry.node_id in
  n.residents <- entry :: n.residents;
  Int_tbl.replace t.by_pid entry.proc.Process.pid entry;
  entry.proc.Process.on_gc <-
    Some
      (fun res ->
        emit_entry t entry
          (Obs.Trace.Gc
             {
               gc_kind =
                 (match res.Gc.kind with
                 | Gc.Minor -> Obs.Trace.Minor
                 | Gc.Major -> Obs.Trace.Major);
               live = res.Gc.live_blocks;
               collected = res.Gc.collected_blocks;
             }));
  match entry.rank with
  | Some r -> Int_tbl.replace t.ranks r entry.proc.Process.pid
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Incarnation epochs and fencing                                      *)
(* ------------------------------------------------------------------ *)

let rank_epoch t rank =
  if Int_tbl.length t.epochs = 0 then 0
  else match Int_tbl.find_opt t.epochs rank with Some e -> e | None -> 0

let bump_epoch t rank =
  let e = rank_epoch t rank + 1 in
  Int_tbl.replace t.epochs rank e;
  e

(* An entry is stale when a resurrection has bumped its rank's epoch past
   the one the entry carries: it is a zombie incarnation of a rank whose
   authority has moved on, and it must not be allowed to interact. *)
let is_stale t (e : entry) =
  match e.rank with
  | None -> false
  | Some r -> e.epoch < rank_epoch t r

(* Fence a stale incarnation at an interaction point: record the typed
   rejection and halt the zombie so exactly one copy of the rank keeps
   running.  Idempotent — a fenced process stays fenced. *)
let fence t (e : entry) ~what =
  let current = match e.rank with Some r -> rank_epoch t r | None -> 0 in
  Obs.Metrics.incr t.c_fence_rejections;
  emit_entry t e
    (Obs.Trace.Fenced { stale_epoch = e.epoch; current_epoch = current; what });
  (match e.proc.Process.status with
  | Process.Exited _ | Process.Trapped _ -> ()
  | Process.Running | Process.Migrating _ ->
    e.proc.Process.status <-
      Process.Trapped
        (Printf.sprintf "fenced: stale incarnation epoch %d (current %d)"
           e.epoch current));
  e.parked_on <- None

(* A zombie incarnation's interaction is rejected and the process
   halted; [act] runs for a current one. *)
let unless_stale t (entry : entry) ~what act =
  if is_stale t entry then begin
    fence t entry ~what;
    Value.Vint Mpi.msg_roll
  end
  else act ()

(* The rank mailbox is shared with any zombie predecessor of the rank:
   purge traffic a stale incarnation enqueued before it was fenced, so
   the successor never consumes superseded state. *)
let purge_stale_traffic t (entry : entry) =
  if Int_tbl.length t.epochs > 0 then begin
    let stale_seen = ref (-1, -1) in
    let dropped =
      Mpi.discard_stale entry.mailbox ~stale:(fun m ->
          let r = m.Mpi.msg_src_rank in
          if r >= 0 && m.Mpi.msg_src_epoch < rank_epoch t r then begin
            stale_seen := m.Mpi.msg_src_epoch, rank_epoch t r;
            true
          end
          else false)
    in
    if dropped > 0 then begin
      let stale_epoch, current_epoch = !stale_seen in
      Obs.Metrics.incr ~by:dropped t.c_fence_rejections;
      emit_entry t entry
        (Obs.Trace.Fenced { stale_epoch; current_epoch; what = "stale_msg" })
    end
  end

(* Decisions on a distributed transaction: the [Dspec] transition
   (state and counter) plus the trace event naming it, stamped at [e]. *)
let abort_txn t (e : entry) txn reason =
  Dspec.abort t.dspec txn reason;
  emit_entry t e
    (Obs.Trace.Dspec_abort
       { txn = txn.Dspec.x_id; parts = Dspec.part_pids txn; reason })

let compensate_txn t (e : entry) txn ~discarded =
  Dspec.compensate t.dspec txn ~discarded;
  emit_entry t e
    (Obs.Trace.Dspec_compensate { txn = txn.Dspec.x_id; discarded })
