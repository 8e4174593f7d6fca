(* Invariant audits over a recorded event trace (see audit.mli). *)

open Trace

(* One pass gathers the evidence (committed and compensated
   transactions, each pid's latest rollback time), a second reports the
   first violating abort in event order. *)
let partial_commits events =
  let committed = Hashtbl.create 64 in
  let compensated = Hashtbl.create 64 in
  let last_rollback = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev.kind with
      | Dspec_commit { txn; _ } -> Hashtbl.replace committed txn ()
      | Dspec_compensate { txn; _ } -> Hashtbl.replace compensated txn ()
      | Spec_rollback _ -> (
        match Hashtbl.find_opt last_rollback ev.pid with
        | Some t when t >= ev.time -> ()
        | Some _ | None -> Hashtbl.replace last_rollback ev.pid ev.time)
      | _ -> ())
    events;
  let rolled_back_after ev =
    match Hashtbl.find_opt last_rollback ev.pid with
    | Some t -> t >= ev.time
    | None -> false
  in
  let violation ev =
    match ev.kind with
    | Dspec_abort { txn; _ } when Hashtbl.mem committed txn ->
      Some
        (Printf.sprintf "partial commit: txn %d both committed and aborted"
           txn)
    | Dspec_abort { txn; reason; _ }
      when reason = "fence" || reason = "crash_in_commit" ->
      if not (rolled_back_after ev) then
        Some
          (Printf.sprintf
             "txn %d aborted (%s) but coordinator pid %d never rolled back"
             txn reason ev.pid)
      else if not (Hashtbl.mem compensated txn) then
        Some (Printf.sprintf "txn %d aborted without mailbox compensation" txn)
      else None
    | _ -> None
  in
  match List.find_map violation events with
  | None -> Ok ()
  | Some msg -> Error msg
