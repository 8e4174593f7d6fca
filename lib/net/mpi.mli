(** The customized message-passing interface used by distributed MCC
    applications (paper, Section 2).

    Processes address each other by RANK; payloads are copied by value
    between heaps.  A message sent from inside an uncommitted speculation
    carries the sending level's identity — a receiver that consumes it
    joins that speculation (the paper's relaxation of Isolation), and the
    cluster rolls them back together.

    The mailbox is one two-list FIFO of every queued message, in
    enqueue order.  Enqueue is O(1) and an N-message burst costs O(N)
    total.  Receives and the purges walk the queue, which stays
    shallow: no workload or bench meter queues more than 17 messages.
    The scheduler's wake checks ({!next_matching_delivery}) answer from
    a per-mailbox memo of the last (source, tag) asked, so a parked
    receiver checked every round walks the queue only after it changed:
    an enqueue, a receive that takes a message, a purge that drops one
    and {!take_all} bump a version that invalidates the memo.  A purge
    that matches nothing leaves the queue physically unchanged, and
    settling rewrites only the speculative stamps, which the memo does
    not read: neither invalidates it.

    Receive results surfaced to FIR code: [n >= 0] cells copied,
    {!msg_none} (nothing yet), or {!msg_roll} (the peer failed or rolled
    back: abort your speculation and retry, as in Figure 2). *)

open Runtime

val msg_none : int
(** The "nothing available" receive code (-1). *)

val msg_roll : int
(** The MSG_ROLL receive code (-2). *)

type message = {
  msg_src_rank : int;
  msg_src_pid : int;
  msg_tag : int;
  msg_payload : Value.t array;
  msg_deliver_at : float;  (** simulated arrival time *)
  msg_spec : (int * int) option;
      (** (sender pid, sender level unique id) when speculative *)
  msg_src_epoch : int;
      (** the sender's rank incarnation epoch at send time; fencing
          rejects messages from superseded incarnations *)
}

type mailbox
(** Abstract: a FIFO of queued messages, oldest first, plus the pending
    roll notices. *)

val create_mailbox : unit -> mailbox
val enqueue : mailbox -> message -> unit

type source =
  | Rank of int
  | Any  (** the wildcard: a message or roll notice from any rank *)
(** Where a receive, or a receiver parked on it, takes its messages
    from. *)

val post_roll_notice : mailbox -> src_rank:int -> unit

val has_roll_notice : mailbox -> src:source -> bool
(** A roll notice from [src] is pending ([Any]: from any rank). *)

type recv_result = Received of message | Roll | None_yet

val try_recv : mailbox -> now:float -> src:source -> tag:int -> recv_result
(** First delivered message with [tag] from [src].  A pending roll
    notice from [src] takes priority and is consumed; for [Any] that is
    the lowest rank's notice.  Messages match in mailbox enqueue order,
    for [Any] as for a single rank. *)

val discard_speculative : mailbox -> uids:int list -> sender_pid:int -> int
(** Drop queued messages originating from the given speculation levels
    (the sender rolled back: its speculative messages are unsent).
    Returns the number dropped. *)

val settle_speculative : mailbox -> uids:int list -> sender_pid:int -> int
(** Strip the speculative stamp from queued messages sent by the given
    levels (a distributed commit made the sender's effects durable, so
    its in-flight messages must stop carrying a join obligation).
    Returns the number settled; the memo stays valid. *)

val discard_stale : mailbox -> stale:(message -> bool) -> int
(** Drop queued messages from superseded sender incarnations (epoch
    fencing).  [stale] is called once per queued message, in enqueue
    order.  Returns the number dropped. *)

val next_matching_delivery : mailbox -> src:source -> tag:int -> float option
(** Earliest pending delivery with [tag] from [src] — what a receiver
    parked on that poll is waiting for.  A matching message is already
    deliverable at [now] iff this is [Some t] with [t <= now].  Asked
    again for the same (src, tag) of an unchanged queue, it returns the
    memoized answer without walking or allocating. *)

val take_all : mailbox -> message list
(** Remove and return everything queued, oldest first (the migration
    path drains a re-homed service's old mailbox through its
    forwarder). *)

val pending : mailbox -> int

val messages : mailbox -> message list
(** Queued messages, oldest first.  Test introspection: the mailbox
    tests compare it against a reference queue. *)
