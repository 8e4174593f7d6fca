(** The process registry: location-transparent logical addresses over
    mobile ranks.

    A logical address (laddr) names a long-lived service process
    independently of the rank currently serving it.  When a registered
    service migrates the cluster rebinds the laddr to the successor's
    fresh rank and installs a bounded-TTL {e forwarder} on the vacated
    rank: sends still resolving there are relayed one extra hop and the
    sender is owed a [Recipient_moved] notice so it rebinds; a send
    arriving after the TTL gets a typed {!Expired} — never a silent
    drop.  A forwarder names the laddr, not a rank, so after A→B→C both
    A and B relay straight to C: a relay is always one hop and a move
    is O(1).

    Epoch fencing is orthogonal: the registry moves ranks, the cluster
    still fences stale incarnations at every send. *)

type t

val create : ?metrics:Obs.Metrics.t -> unit -> t
(** [metrics] (default: a private registry) receives the counters
    [registry.moves] (rebinds that changed a laddr's rank) and
    [registry.expired], which {!expired_count} reads. *)

val register : t -> rank:int -> int
(** Bind a fresh laddr (sequential from 1) to [rank].  Raises
    [Invalid_argument] if [rank] already serves a laddr or holds a
    forwarder. *)

val lookup : t -> int -> int option
(** Authoritative current rank of a laddr. *)

val laddr_of_rank : t -> int -> int option
(** The laddr currently bound to [rank], if it serves one (how the
    migration path recognises a registered service). *)

val rebind : t -> laddr:int -> new_rank:int -> now:float -> ttl:float -> unit
(** Point [laddr] at [new_rank], a fresh rank; the old rank forwards
    to the laddr's binding until [now +. ttl]. *)

type resolution =
  | Direct of int  (** the rank is current; send straight to it *)
  | Forwarded of int
      (** the rank was vacated and its forwarder is live: relay one hop
          to its laddr's current rank and notify the sender *)
  | Expired of int
      (** the rank's forwarder TTL has passed: typed error, the caller
          must re-resolve authoritatively *)

val resolve : t -> now:float -> int -> resolution
(** Where a send to a possibly stale rank goes.  O(1). *)

val expire : t -> now:float -> int
(** Drop forwarders past their TTL; returns how many.  Test
    introspection: the cluster never calls it, so its forwarder table
    keeps one entry per vacated rank.  [now] is one node's clock, and a
    sender on a lagging node may still resolve inside the TTL: a drop
    would turn its relay into a send to the vacated rank's dead
    mailbox. *)

val forwarded : t -> int
(** Resolves answered {!Forwarded}: one per relayed send.  The
    cluster's [registry.forwarded] metric counts those sends too, plus
    every message a re-home drains from the vacated rank's queue into
    its successor's, so the metric is never below this count. *)

val expired_count : t -> int
(** Resolves that hit an expired forwarder. *)
