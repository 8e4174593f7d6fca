(* Invariant audits over a recorded event trace (see audit.mli). *)

open Trace

let partial_commits events =
  let committed = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev.kind with
      | Dspec_commit { txn; _ } -> Hashtbl.replace committed txn ()
      | _ -> ())
    events;
  let rolled_back_after ev =
    List.exists
      (fun e2 ->
        e2.pid = ev.pid && e2.time >= ev.time
        && match e2.kind with Spec_rollback _ -> true | _ -> false)
      events
  in
  let compensated txn =
    List.exists
      (fun e2 ->
        match e2.kind with
        | Dspec_compensate { txn = x; _ } -> x = txn
        | _ -> false)
      events
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
      else if not (compensated txn) then
        Some (Printf.sprintf "txn %d aborted without mailbox compensation" txn)
      else None
    | _ -> None
  in
  match List.find_map violation events with
  | None -> Ok ()
  | Some msg -> Error msg
