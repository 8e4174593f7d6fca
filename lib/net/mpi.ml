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

   The mailbox is one two-list FIFO of every queued message, in
   enqueue order: [enqueue] pushes onto [back], receivers scan [front],
   refilling it from [back] only when it is empty.  Mailboxes stay
   shallow (no workload or bench meter queues more than 17 messages),
   so a receive or a purge simply walks the queue.  The scheduler's
   wake check asks [next_matching_delivery] for every parked receiver
   every round, mostly of a queue that has not changed: the answer is
   memoized per mailbox for one (src, tag), and every queue mutation
   bumps a version that invalidates it.

   [try_recv] takes the FIRST message in enqueue order matching (src,
   tag) whose delivery time has passed — enqueue order, not delivery
   order, because network jitter may deliver a later send earlier.

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

(* Where a receive (or a parked receiver) takes its messages from: one
   rank, or any rank (the wildcard a mobile service polls with). *)
type source = Rank of int | Any

(* [front] oldest-first, [back] newest-first: the queue is [front]
   followed by [List.rev back]. *)
type mailbox = {
  mutable front : message list;
  mutable back : message list;
  mutable size : int;
  (* ranks whose failure/rollback the owner has not yet observed *)
  roll_notices : (int, unit) Hashtbl.t;
  (* bumped by every change to the queue's contents *)
  mutable version : int;
  (* [next_matching_delivery]'s last answer: for (memo_src, memo_tag),
     valid while [memo_version] is [version] *)
  mutable memo_version : int;
  mutable memo_src : source;
  mutable memo_tag : int;
  mutable memo : float option;
}

let create_mailbox () =
  { front = []; back = []; size = 0; roll_notices = Hashtbl.create 4;
    version = 0; memo_version = -1; memo_src = Any; memo_tag = 0;
    memo = None }

let changed mbox = mbox.version <- mbox.version + 1

let enqueue mbox msg =
  mbox.back <- msg :: mbox.back;
  mbox.size <- mbox.size + 1;
  changed mbox

(* Refill [front] from [back], oldest first.  Proper two-list
   discipline: [back] is reversed ONLY into an empty [front], so each
   message is reversed at most once and an interleaved enqueue/recv
   workload stays amortized O(1) per operation (appending behind a
   non-empty [front] re-walked the whole front every call — quadratic
   under bursts). *)
let normalize mbox =
  if mbox.front = [] && mbox.back <> [] then begin
    mbox.front <- List.rev mbox.back;
    mbox.back <- []
  end

let pending mbox = mbox.size

(* Queued messages, oldest first. *)
let messages mbox =
  if mbox.back = [] then mbox.front else mbox.front @ List.rev mbox.back

(* Replace the queue with [l], given oldest first. *)
let replace mbox l =
  mbox.front <- l;
  mbox.back <- [];
  mbox.size <- List.length l;
  changed mbox

let matches ~src ~tag m =
  m.msg_tag = tag
  && match src with Rank r -> m.msg_src_rank = r | Any -> true

let post_roll_notice mbox ~src_rank =
  Hashtbl.replace mbox.roll_notices src_rank ()

let has_roll_notice mbox ~src =
  Hashtbl.length mbox.roll_notices > 0
  && match src with Rank r -> Hashtbl.mem mbox.roll_notices r | Any -> true

type recv_result =
  | Received of message
  | Roll
  | None_yet

(* The first message of [l] that [p] accepts, and [l] without it,
   order preserved. *)
let take p l =
  let rec go acc = function
    | [] -> None
    | m :: rest ->
      if p m then Some (m, List.rev_append acc rest) else go (m :: acc) rest
  in
  go [] l

(* Take the first delivered message matching (src, tag), in enqueue
   order.  A pending roll notice from [src] takes priority and is
   consumed; for [Any], the lowest rank's notice, for determinism. *)
let try_recv mbox ~now ~src ~tag =
  let notice =
    match src with
    | Rank r -> if Hashtbl.mem mbox.roll_notices r then Some r else None
    | Any ->
      if Hashtbl.length mbox.roll_notices = 0 then None
      else
        Hashtbl.fold
          (fun r () acc ->
            match acc with Some r' when r' < r -> acc | _ -> Some r)
          mbox.roll_notices None
  in
  match notice with
  | Some r ->
    Hashtbl.remove mbox.roll_notices r;
    Roll
  | None -> (
    normalize mbox;
    let due m = m.msg_deliver_at <= now && matches ~src ~tag m in
    match take due mbox.front with
    | Some (m, front) ->
      mbox.front <- front;
      mbox.size <- mbox.size - 1;
      changed mbox;
      Received m
    | None -> (
      (* Jitter can make a NEWER message deliverable while older
         [front] traffic is still in flight; scan [back] in enqueue
         order without merging it behind a non-empty [front]. *)
      match take due (List.rev mbox.back) with
      | Some (m, back_in_order) ->
        mbox.back <- List.rev back_in_order;
        mbox.size <- mbox.size - 1;
        changed mbox;
        Received m
      | None -> None_yet))

(* The purges filter or map the queue in enqueue order, oldest first,
   so a side-effecting predicate sees the messages in that order.
   [discard] drops the messages [f] matches. *)
let discard mbox f =
  let before = mbox.size in
  replace mbox (List.filter (fun m -> not (f m)) (messages mbox));
  before - mbox.size

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
  let settle m =
    if from_levels ~uids ~sender_pid m then begin
      incr settled;
      { m with msg_spec = None }
    end
    else m
  in
  replace mbox (List.map settle (messages mbox));
  !settled

(* Drop queued messages whose sender incarnation is stale ([stale m]
   decides, typically by comparing [msg_src_epoch] against the rank's
   current epoch).  Used by epoch fencing: traffic from a superseded
   incarnation must not be consumed by anyone. *)
let discard_stale mbox ~stale = discard mbox stale

(* The earliest delivery among the queued messages matching (src, tag).
   The loop's refs stay local, so the compiler keeps [best] unboxed: the
   scan allocates only its answer. *)
let scan_earliest mbox ~src ~tag =
  let best = ref infinity and found = ref false in
  let l = ref mbox.front and in_back = ref false and go = ref true in
  while !go do
    match !l with
    | m :: rest ->
      if matches ~src ~tag m && ((not !found) || m.msg_deliver_at < !best)
      then begin
        best := m.msg_deliver_at;
        found := true
      end;
      l := rest
    | [] ->
      if !in_back then go := false
      else begin
        in_back := true;
        l := mbox.back
      end
  done;
  if !found then Some !best else None

let same_source a b =
  match a, b with
  | Rank r, Rank r' -> r = r'
  | Any, Any -> true
  | Rank _, Any | Any, Rank _ -> false

(* Earliest pending delivery with [tag] from [src] — what a parked
   receiver is waiting for, and the one wait query the scheduler asks:
   the receiver is due at [now] iff this is [<= now].  Asked again of an
   unchanged queue (the common case: a parked receiver is checked every
   round), it answers from the memo without walking or allocating. *)
let next_matching_delivery mbox ~src ~tag =
  if
    mbox.memo_version = mbox.version
    && mbox.memo_tag = tag
    && same_source mbox.memo_src src
  then mbox.memo
  else begin
    let at = scan_earliest mbox ~src ~tag in
    mbox.memo_version <- mbox.version;
    mbox.memo_src <- src;
    mbox.memo_tag <- tag;
    mbox.memo <- at;
    at
  end

(* Remove and return EVERYTHING queued, oldest first: the migration path
   drains a re-homed service's old mailbox through the forwarder. *)
let take_all mbox =
  let all = messages mbox in
  replace mbox [];
  all
