(** Distributed-speculation transactions: the coordinator-side state of
    the epoch-fenced two-phase commit over speculative regions (the
    paper's Section 6 speculation extended across processes).

    A process that opened a speculative region may send messages from
    inside it; every receiver that consumes one JOINS the region (the
    engine's dependency tracking).  To fold such a region durably the
    coordinator must get every participant's agreement first — a
    participant may since have been superseded by a newer incarnation of
    its rank (its ack would come from a zombie), may have died, or may
    crash between its prepare-ack and the commit receipt.  {!Dspec}
    keeps the transaction table the cluster's commit protocol runs over:
    who coordinates, which root speculation level the transaction
    covers, and each participant's identity {e pinned to the incarnation
    epoch it had when it joined}.  At prepare time the recorded epoch is
    compared against the rank's current epoch; any mismatch voids the
    ack and forces an abort — a resurrected zombie can never speak for a
    dead incarnation.

    The table is cluster-global (it lives beside the registry, not
    inside any process image), so transactions survive the migration of
    their coordinator or participants; {!rebind_pid} re-keys the stored
    identities when a process is re-instantiated under a new pid.

    Every transition of a transaction — {!open_txn}, {!register},
    {!commit}, {!abort}, {!compensate}, {!adopt}, {!rebind_pid} — is a
    function of this module, which bumps the matching counter.  The
    records are [private]: the cluster's protocol driver reads them and
    decides, but never writes a field itself.

    The table keeps every transaction ever opened, in an array indexed
    by id, so {!find} answers for decided ones too in O(1) and
    {!rebind_pid} walks it without hashing.  The lookups
    {!open_coordinated_by}, {!open_with_root} and {!aborted_with_root}
    look only at the undecided transactions and answer in ascending id
    order: each costs O(undecided), not the size of the table, and the
    two single-answer lookups take the lowest matching id in one pass
    without sorting. *)

type part = private {
  mutable p_pid : int;
  mutable p_rank : int;
  mutable p_epoch : int;
      (** the participant rank's incarnation epoch when it joined; a
          prepare-ack is only valid while this is still current *)
}

type state =
  | Open
  | Committed
  | Aborted of string
      (** reason: "fence" | "crash_in_commit" | "participant_dead" |
          "coordinator_rolled_back" | "coordinator_dead" *)

type txn = private {
  x_id : int;
  mutable x_coord_pid : int;
  mutable x_root_uid : int;
      (** the coordinator's speculation level whose commit the protocol
          decides (stable unique id, survives migration via re-keying) *)
  x_coord_laddr : int;
      (** logical address of the coordinating service, [-1] when it is
          not a registered service *)
  mutable x_state : state;
  mutable x_parts : part list;  (** newest first *)
  mutable x_compensated : bool;
      (** an abort's mailbox compensation has been accounted (the
          [Dspec_compensate] trace fires once per aborted txn) *)
}

type t

val create : ?metrics:Obs.Metrics.t -> unit -> t
(** [metrics] receives the protocol counters ([dspec.opened],
    [dspec.prepares], [dspec.prepare_acks], [dspec.commits],
    [dspec.aborts], [dspec.fence_rejections], [dspec.compensated]); a
    private registry is used when omitted. *)

val open_txn : t -> coord_pid:int -> root_uid:int -> coord_laddr:int -> txn
(** Allocate a fresh transaction (ids sequential from 1) rooted at the
    coordinator's current speculation level. *)

val find : t -> int -> txn option
(** Any transaction ever opened, decided ones included. *)

val undecided : t -> int
(** How many transactions are still undecided: Open, or Aborted and not
    yet compensated.  Zero once a run has quiesced — every transaction
    resolved and every abort compensated.  O(1). *)

val part_pids : txn -> int list
(** Participant pids, oldest joiner first (the order trace events list
    them in). *)

val commit : t -> txn -> unit
(** Decide COMMIT ([dspec.commits]). *)

val abort : t -> txn -> string -> unit
(** Decide ABORT with a reason ([dspec.aborts]); see {!state} for the
    reasons the cluster uses. *)

val compensate : t -> txn -> discarded:int -> unit
(** Account an aborted transaction's mailbox compensation once:
    [discarded] un-delivered messages ([dspec.compensated]). *)

val adopt : txn -> coord_pid:int -> root_uid:int option -> unit
(** A resurrected coordinator takes over its still-open transaction:
    [coord_pid] becomes the coordinator and, when the image's snapshot
    names it, [root_uid] the root level. *)

val register : txn -> pid:int -> rank:int -> epoch:int -> unit
(** Record [pid] as a participant at its current incarnation epoch.
    Re-registering an existing participant updates its rank and epoch
    (a participant that migrated re-joins under its successor's
    identity). *)

val open_coordinated_by : t -> pid:int -> txn list
(** The still-open transactions coordinated by [pid] — what must abort
    when that process's node fails. *)

val open_with_root : t -> coord_pid:int -> root_uid:int -> txn option
(** The open transaction rooted at exactly this coordinator level, if
    any (how the send path recognises traffic that must register its
    receiver as a participant). *)

val aborted_with_root : t -> coord_pid:int -> root_uid:int -> txn option
(** The not-yet-compensated aborted transaction whose root level is
    [root_uid] — the rollback path claims it to account the mailbox
    compensation exactly once. *)

val rebind_pid :
  t -> old_pid:int -> new_pid:int -> uid_map:(int * int) list ->
  rank:int -> epoch:int -> unit
(** A process was re-instantiated (migration or resurrection):
    [old_pid] becomes [new_pid] everywhere in the table.  Where it
    coordinates, the root uid is translated through [uid_map] (the
    old-engine → new-engine stable-uid correspondence).  Where it
    participates, its recorded rank AND epoch are refreshed — a
    deliberate re-home is not a zombie, so its ack stays valid. *)

(** {2 Prepare-round counters}

    The prepare round itself (its fan-out, the acks it collects and the
    stale pins it rejects) runs in the cluster, which bumps these. *)

val c_prepares : t -> Obs.Metrics.counter
val c_prepare_acks : t -> Obs.Metrics.counter
val c_fence_rejections : t -> Obs.Metrics.counter
