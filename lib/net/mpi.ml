(* The customized message-passing interface used by distributed MCC
   applications (paper, Section 2: border exchange "done using a
   customized message passing interface").

   Processes address each other by RANK (stable across migration and
   resurrection), not pid.  Payloads are copied by value between heaps —
   heaps never share references, so migration of either end never
   invalidates a message.

   Speculation join: a message sent from inside an uncommitted speculation
   carries the sending level's identity.  A receiver that consumes such a
   message becomes dependent on that speculation — if the sender rolls
   back, the receiver must roll back too (the paper's relaxation of the
   transactional Isolation property).  The cluster maintains the
   dependency registry and performs the cascade.

   The mailbox is INDEXED by (src_rank, tag): each key owns a two-list
   FIFO bucket (enqueue pushes onto [back]; receivers scan [front],
   refilling it from [back] when needed), so a receive touches only the
   traffic it can match instead of scanning the whole queue — the
   scheduler's wake check ([next_matching_delivery]) is what made the
   flat queue a per-round O(pending) cost.  Every message carries a
   mailbox-local enqueue stamp, so global oldest-first order is still
   available for introspection ([messages]) and for the order-sensitive
   purges ([discard_speculative], [discard_stale]).

   Receive semantics are unchanged: [try_recv] takes the FIRST message
   in enqueue order matching (src, tag) whose delivery time has passed —
   enqueue order, not delivery order, because network jitter may deliver
   a later send earlier, and the bucket preserves exactly that order.

   Receive results (returned to FIR code from msg_try_recv):
   - n >= 0   : n cells copied into the buffer
   - MSG_NONE : nothing available yet (poll again / park)
   - MSG_ROLL : the peer failed or rolled back; the caller is expected to
                abort its current speculation and retry (Figure 2). *)

open Runtime

let msg_none = -1
let msg_roll = -2

type message = {
  msg_src_rank : int;
  msg_src_pid : int;
  msg_tag : int;
  msg_payload : Value.t array;
  msg_deliver_at : float; (* simulated arrival time *)
  msg_spec : (int * int) option; (* (sender pid, sender level unique id) *)
  msg_src_epoch : int; (* sender's rank incarnation epoch at send time *)
}

(* One (src_rank, tag) class of traffic: a two-list FIFO of
   (enqueue stamp, message).  [front] oldest-first, [back] newest-first;
   the refill reverses [back] behind [front] (amortized O(1) per
   message). *)
type bucket = {
  mutable front : (int * message) list;
  mutable back : (int * message) list;
  mutable count : int;
}

type mailbox = {
  buckets : (int * int, bucket) Hashtbl.t;
  mutable size : int;
  mutable seq : int; (* mailbox-local enqueue stamp generator *)
  (* ranks whose failure/rollback the owner has not yet observed *)
  roll_notices : (int, unit) Hashtbl.t;
}

let create_mailbox () =
  {
    buckets = Hashtbl.create 8;
    size = 0;
    seq = 0;
    roll_notices = Hashtbl.create 4;
  }

let bucket_for mbox key =
  match Hashtbl.find_opt mbox.buckets key with
  | Some b -> b
  | None ->
    let b = { front = []; back = []; count = 0 } in
    Hashtbl.add mbox.buckets key b;
    b

let enqueue mbox msg =
  let b = bucket_for mbox (msg.msg_src_rank, msg.msg_tag) in
  b.back <- (mbox.seq, msg) :: b.back;
  b.count <- b.count + 1;
  mbox.seq <- mbox.seq + 1;
  mbox.size <- mbox.size + 1

(* Refill a bucket's [front] from [back], oldest first.  Proper
   two-list discipline: [back] is reversed ONLY when [front] is empty,
   so each message is reversed at most once and an interleaved
   enqueue/recv workload stays amortized O(1) per operation (appending
   behind a non-empty [front] re-walked the whole front every call —
   quadratic under bursts). *)
let normalize b =
  if b.front = [] && b.back <> [] then begin
    b.front <- List.rev b.back;
    b.back <- []
  end

let pending mbox = mbox.size

(* All queued (stamp, message) pairs, in enqueue order. *)
let stamped mbox =
  let all =
    Hashtbl.fold
      (fun _ b acc -> List.rev_append b.back (List.rev_append b.front acc))
      mbox.buckets []
  in
  List.sort (fun (a, _) (b, _) -> compare a b) all

(* Queued messages, oldest first (introspection: tests, rendering). *)
let messages mbox = List.map snd (stamped mbox)

exception Found

let exists_message mbox f =
  let check (_, m) = if f m then raise Found in
  try
    Hashtbl.iter
      (fun _ b ->
        List.iter check b.front;
        List.iter check b.back)
      mbox.buckets;
    false
  with Found -> true

(* Where a receive (or a parked receiver) takes its messages from: one
   rank, or any rank (the wildcard a mobile service polls with). *)
type source = Rank of int | Any

let post_roll_notice mbox ~src_rank =
  Hashtbl.replace mbox.roll_notices src_rank ()

let clear_roll_notice mbox ~src_rank = Hashtbl.remove mbox.roll_notices src_rank

let has_roll_notice mbox ~src =
  match src with
  | Rank r -> Hashtbl.mem mbox.roll_notices r
  | Any -> Hashtbl.length mbox.roll_notices > 0

(* Take the first delivered message matching (src_rank, tag).  A pending
   roll notice from that rank takes priority and is consumed. *)
type recv_result =
  | Received of message
  | Roll
  | None_yet

let try_recv_rank mbox ~now ~src_rank ~tag =
  if Hashtbl.mem mbox.roll_notices src_rank then begin
    clear_roll_notice mbox ~src_rank;
    Roll
  end
  else begin
    match Hashtbl.find_opt mbox.buckets (src_rank, tag) with
    | None -> None_yet
    | Some b ->
      normalize b;
      (* First deliverable message of [l] (enqueue order): the message
         and the remainder with it removed, order preserved. *)
      let rec split acc = function
        | [] -> None
        | ((_, m) as sm) :: rest ->
          if m.msg_deliver_at <= now then Some (m, List.rev_append acc rest)
          else split (sm :: acc) rest
      in
      (match split [] b.front with
      | Some (m, front') ->
        b.front <- front';
        b.count <- b.count - 1;
        mbox.size <- mbox.size - 1;
        Received m
      | None -> (
        (* Jitter can make a NEWER message deliverable while older
           [front] traffic is still in flight; scan [back] in enqueue
           order without merging it behind a non-empty [front]. *)
        match split [] (List.rev b.back) with
        | None -> None_yet
        | Some (m, back_in_order) ->
          b.back <- List.rev back_in_order;
          b.count <- b.count - 1;
          mbox.size <- mbox.size - 1;
          Received m))
  end

(* Rebuild the index from a kept (stamp, message) list in enqueue
   order (the purge operations filter over the global order). *)
let rebuild mbox kept =
  Hashtbl.reset mbox.buckets;
  mbox.size <- 0;
  List.iter
    (fun ((stamp, m) : int * message) ->
      let b = bucket_for mbox (m.msg_src_rank, m.msg_tag) in
      b.back <- (stamp, m) :: b.back;
      b.count <- b.count + 1;
      mbox.size <- mbox.size + 1)
    kept;
  Hashtbl.iter (fun _ b -> normalize b) mbox.buckets

(* The purges below rebuild the index only when some message matches:
   a rebuild that keeps every message is unobservable ([stamped] sorts
   by stamp; receives and wake checks do not depend on bucket layout),
   and the commit and rollback sweeps visit every mailbox in the
   cluster, nearly all of which hold nothing to purge.  [discard] drops
   the messages [f] matches, filtering over the global enqueue order,
   oldest first.  After a match the filter calls [f] on every message
   again, so a side-effecting [f] still ends having seen them in enqueue
   order. *)
let discard mbox f =
  let dropped = ref 0 in
  let keep (_, m) =
    if f m then begin
      incr dropped;
      false
    end
    else true
  in
  if exists_message mbox f then rebuild mbox (List.filter keep (stamped mbox));
  !dropped

(* Is [m] stamped by one of [sender_pid]'s speculation levels [uids]? *)
let from_levels ~uids ~sender_pid m =
  match m.msg_spec with
  | Some (pid, uid) -> pid = sender_pid && List.mem uid uids
  | None -> false

(* Discard queued messages that originated from any of the given
   speculation level uids (used when the sender rolls back: its
   speculative messages must be unsent). *)
let discard_speculative mbox ~uids ~sender_pid =
  discard mbox (from_levels ~uids ~sender_pid)

(* Strip the speculative stamp from queued messages sent by the given
   speculation levels (a distributed commit decided in favour of the
   sender: its in-flight messages become durable, and a receiver that
   consumes one later must NOT join a level that no longer exists). *)
let settle_speculative mbox ~uids ~sender_pid =
  let settled = ref 0 in
  let map ((stamp, m) as sm : int * message) =
    if from_levels ~uids ~sender_pid m then begin
      incr settled;
      (stamp, { m with msg_spec = None })
    end
    else sm
  in
  if exists_message mbox (from_levels ~uids ~sender_pid) then
    rebuild mbox (List.map map (stamped mbox));
  !settled

(* Drop queued messages whose sender incarnation is stale ([stale m]
   decides, typically by comparing [msg_src_epoch] against the rank's
   current epoch).  Used by epoch fencing: traffic from a superseded
   incarnation must not be consumed by anyone. *)
let discard_stale mbox ~stale = discard mbox stale

(* Wildcard receive: first delivered message with [tag] from ANY source,
   in mailbox enqueue order (the per-message stamps make the choice
   deterministic even though bucket iteration is not).  A pending roll
   notice from any rank takes priority — the lowest rank's notice is
   consumed, again for determinism. *)
let try_recv_any mbox ~now ~tag =
  let notice =
    Hashtbl.fold
      (fun r () acc ->
        match acc with
        | None -> Some r
        | Some r' -> Some (min r r'))
      mbox.roll_notices None
  in
  match notice with
  | Some src_rank ->
    clear_roll_notice mbox ~src_rank;
    Roll
  | None -> (
    let best = ref None in
    Hashtbl.iter
      (fun (_, t) b ->
        if t = tag then begin
          let see ((stamp, m) as sm) =
            if m.msg_deliver_at <= now then
              match !best with
              | Some ((s, _), _) when s <= stamp -> ()
              | _ -> best := Some (sm, b)
          in
          List.iter see b.front;
          List.iter see b.back
        end)
      mbox.buckets;
    match !best with
    | None -> None_yet
    | Some ((stamp, m), b) ->
      let drop l = List.filter (fun (s, _) -> s <> stamp) l in
      b.front <- drop b.front;
      b.back <- drop b.back;
      b.count <- b.count - 1;
      mbox.size <- mbox.size - 1;
      Received m)

let try_recv mbox ~now ~src ~tag =
  match src with
  | Rank src_rank -> try_recv_rank mbox ~now ~src_rank ~tag
  | Any -> try_recv_any mbox ~now ~tag

(* Earliest pending delivery with [tag] from [src] — what a parked
   receiver is waiting for, and the one wait query the scheduler asks:
   the receiver is due at [now] iff this is [<= now].  A directed park
   touches one bucket, a wildcard one every bucket with the tag. *)
let next_matching_delivery mbox ~src ~tag =
  let earliest acc b =
    let fold acc (_, m) =
      match acc with
      | None -> Some m.msg_deliver_at
      | Some x -> Some (min x m.msg_deliver_at)
    in
    List.fold_left fold (List.fold_left fold acc b.front) b.back
  in
  match src with
  | Rank src_rank -> (
    match Hashtbl.find_opt mbox.buckets (src_rank, tag) with
    | None -> None
    | Some b -> earliest None b)
  | Any ->
    Hashtbl.fold
      (fun (_, t) b acc -> if t = tag then earliest acc b else acc)
      mbox.buckets None

(* Remove and return EVERYTHING queued, oldest first: the migration path
   drains a re-homed service's old mailbox through the forwarder. *)
let take_all mbox =
  let all = messages mbox in
  Hashtbl.reset mbox.buckets;
  mbox.size <- 0;
  all
