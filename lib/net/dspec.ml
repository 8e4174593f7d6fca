(* Distributed-speculation transaction table (see dspec.mli).

   The table and every transition of a transaction's state live here:
   open, participant registration, commit, abort, compensation and
   re-keying.  The protocol that decides them — prepare fan-out, epoch
   fencing, the crash_in_commit draw, distributed rollback and the
   mailbox discards compensation counts — is driven by Cluster, which
   owns the entries, mailboxes and speculation engines the decisions
   act on. *)

type part = {
  mutable p_pid : int;
  mutable p_rank : int;
  mutable p_epoch : int;
}

type state = Open | Committed | Aborted of string

type txn = {
  x_id : int;
  mutable x_coord_pid : int;
  mutable x_root_uid : int;
  x_coord_laddr : int;
  mutable x_state : state;
  mutable x_parts : part list;
  mutable x_compensated : bool;
}

(* [txns] keeps every transaction ever opened, at its id: ids are dense
   from 1, so the table is an array that doubles when full, and [find]
   must still answer for decided ones (a re-commit reads its verdict,
   tests read final states).  [live] holds only the undecided ones —
   Open, or Aborted and not yet compensated — which is all the lookups
   below ever match, so they cost what is still in flight rather than
   the run's history. *)
type t = {
  mutable next_id : int;
  mutable txns : txn array; (* slot 0 and slots from [next_id] unused *)
  live : (int, txn) Hashtbl.t;
  c_opened : Obs.Metrics.counter;
  c_prepares : Obs.Metrics.counter;
  c_prepare_acks : Obs.Metrics.counter;
  c_commits : Obs.Metrics.counter;
  c_aborts : Obs.Metrics.counter;
  c_fence_rejections : Obs.Metrics.counter;
  c_compensated : Obs.Metrics.counter;
}

(* What the unused slots of [txns] hold. *)
let vacant =
  { x_id = 0; x_coord_pid = -1; x_root_uid = -1; x_coord_laddr = -1;
    x_state = Committed; x_parts = []; x_compensated = false }

let create ?metrics () =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  {
    next_id = 1;
    txns = Array.make 16 vacant;
    live = Hashtbl.create 16;
    c_opened = Obs.Metrics.counter metrics "dspec.opened";
    c_prepares = Obs.Metrics.counter metrics "dspec.prepares";
    c_prepare_acks = Obs.Metrics.counter metrics "dspec.prepare_acks";
    c_commits = Obs.Metrics.counter metrics "dspec.commits";
    c_aborts = Obs.Metrics.counter metrics "dspec.aborts";
    c_fence_rejections =
      Obs.Metrics.counter metrics "dspec.fence_rejections";
    c_compensated = Obs.Metrics.counter metrics "dspec.compensated";
  }

(* Re-file [txn] in [live] after a transition changed its state. *)
let track t txn =
  match txn.x_state with
  | Open -> Hashtbl.replace t.live txn.x_id txn
  | Aborted _ when not txn.x_compensated -> Hashtbl.replace t.live txn.x_id txn
  | Aborted _ | Committed -> Hashtbl.remove t.live txn.x_id

let open_txn t ~coord_pid ~root_uid ~coord_laddr =
  let txn =
    {
      x_id = t.next_id;
      x_coord_pid = coord_pid;
      x_root_uid = root_uid;
      x_coord_laddr = coord_laddr;
      x_state = Open;
      x_parts = [];
      x_compensated = false;
    }
  in
  let n = Array.length t.txns in
  if txn.x_id >= n then begin
    let txns = Array.make (2 * n) vacant in
    Array.blit t.txns 0 txns 0 n;
    t.txns <- txns
  end;
  t.txns.(txn.x_id) <- txn;
  t.next_id <- t.next_id + 1;
  track t txn;
  Obs.Metrics.incr t.c_opened;
  txn

let find t id = if id >= 1 && id < t.next_id then Some t.txns.(id) else None

let undecided t = Hashtbl.length t.live

let part_pids txn = List.rev_map (fun p -> p.p_pid) txn.x_parts

let commit t txn =
  txn.x_state <- Committed;
  track t txn;
  Obs.Metrics.incr t.c_commits

let abort t txn reason =
  txn.x_state <- Aborted reason;
  track t txn;
  Obs.Metrics.incr t.c_aborts

let compensate t txn ~discarded =
  txn.x_compensated <- true;
  track t txn;
  Obs.Metrics.incr ~by:discarded t.c_compensated

let adopt txn ~coord_pid ~root_uid =
  txn.x_coord_pid <- coord_pid;
  match root_uid with Some uid -> txn.x_root_uid <- uid | None -> ()

let register txn ~pid ~rank ~epoch =
  match List.find_opt (fun p -> p.p_pid = pid) txn.x_parts with
  | Some p ->
    p.p_rank <- rank;
    p.p_epoch <- epoch
  | None ->
    txn.x_parts <- { p_pid = pid; p_rank = rank; p_epoch = epoch }
                   :: txn.x_parts

(* Deterministic iteration over the undecided transactions: ascending
   txn id, independent of the hashtable's bucket layout. *)
let sorted_live t =
  Hashtbl.fold (fun _ txn acc -> txn :: acc) t.live []
  |> List.sort (fun a b -> compare a.x_id b.x_id)

let open_coordinated_by t ~pid =
  List.filter
    (fun txn -> txn.x_state = Open && txn.x_coord_pid = pid)
    (sorted_live t)

(* The undecided transaction with the lowest id that [p] accepts: one
   pass over [live], without sorting it. *)
let lowest_live t p =
  Hashtbl.fold
    (fun _ txn best ->
      match best with
      | Some b when b.x_id < txn.x_id -> best
      | Some _ | None -> if p txn then Some txn else best)
    t.live None

let open_with_root t ~coord_pid ~root_uid =
  lowest_live t (fun txn ->
      txn.x_state = Open
      && txn.x_coord_pid = coord_pid
      && txn.x_root_uid = root_uid)

let aborted_with_root t ~coord_pid ~root_uid =
  lowest_live t (fun txn ->
      (match txn.x_state with Aborted _ -> true | Open | Committed -> false)
      && (not txn.x_compensated)
      && txn.x_coord_pid = coord_pid
      && txn.x_root_uid = root_uid)

let rebind_pid t ~old_pid ~new_pid ~uid_map ~rank ~epoch =
  for id = 1 to t.next_id - 1 do
    let txn = t.txns.(id) in
    if txn.x_coord_pid = old_pid then begin
      txn.x_coord_pid <- new_pid;
      match List.assoc_opt txn.x_root_uid uid_map with
      | Some uid -> txn.x_root_uid <- uid
      | None -> ()
    end;
    List.iter
      (fun p ->
        if p.p_pid = old_pid then begin
          p.p_pid <- new_pid;
          p.p_rank <- rank;
          p.p_epoch <- epoch
        end)
      txn.x_parts
  done

let c_prepares t = t.c_prepares
let c_prepare_acks t = t.c_prepare_acks
let c_fence_rejections t = t.c_fence_rejections
