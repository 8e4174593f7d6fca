(** Load-aware placement policy: per-node load gauges plus a
    per-process communication-affinity matrix feeding an
    InfotonOpt-style scorer (attraction toward communication partners,
    repulsion from overloaded nodes) that proposes migrations when the
    cluster's load spread exceeds a tolerance band and a per-node move
    budget allows it.

    The module is pure bookkeeping + planning: it never moves anything
    itself.  {!Cluster} samples the gauges every {!period_s}, calls
    {!plan}, and executes the returned proposals through the unified
    [Cluster.Move] API with reason [Policy].

    Only *registered services* (processes bound to a logical address in
    {!Registry}) are eligible subjects: their traffic keeps flowing
    through forwarders and [Recipient_moved] rebinding while they move,
    so a policy move is always transparent to correspondents.

    Termination / no ping-pong: a move of a process charging [c]
    cycles/sec from source load [s] to destination load [d] is proposed
    only when [d + c*(1 + tolerance) <= s].  Each such move strictly
    decreases the cluster potential [sum(load^2)] by at least
    [2*c^2*tolerance], so a finite number of moves reaches a state where
    no proposal fires; two equally loaded nodes can never trade the
    same process back and forth. *)

(** {2 The policy's constants}

    Fixed for every cluster; [Cluster.Config.t.balance] only turns the
    policy on or off. *)

val period_s : float
(** Gauge sampling and planning period: 2 ms of simulated time. *)

val tolerance : float
(** Relative tolerance band, 0.25: planning is skipped while
    [max - min <= tolerance * mean] over alive node loads, and an
    individual move must clear the destination by a [1 + tolerance]
    margin (hysteresis).  Positive, so the no-ping-pong argument above
    holds. *)

val move_budget : int
(** Max departures AND max arrivals per node per period: 2. *)

type node_load = {
  nl_node : int;
  nl_alive : bool;
  nl_runnable : int;  (** resident runnable (non-terminated) entries *)
  nl_cycles_per_s : float;  (** charged busy seconds per second *)
  nl_mailbox : int;  (** pending messages across resident mailboxes *)
}

type candidate = {
  cd_pid : int;
  cd_node : int;
  cd_load : float;
      (** the mass the process carries if moved: {!candidate_load} of
          its charged cycles/sec over the last period and its own
          mailbox backlog *)
}
(** A movable process (a registered service) with its measured load. *)

type proposal = {
  pr_pid : int;
  pr_from : int;
  pr_to : int;
  pr_gain : float;  (** [src_load - (dest_load + cd_load)] at decision *)
}

type t

val create : unit -> t

val candidate_load : cycles_per_s:float -> mailbox:int -> float
(** What a movable process contributes to its node's composite load,
    [cycles_per_s + 0.05*runnable + 0.005*mailbox] (cycles dominate;
    the queue terms break ties toward draining long mailboxes): its
    charged cycles/sec, its runnable slot and its own mailbox backlog.
    Pricing the full mass into the candidate keeps the [sum(load^2)]
    potential argument sound — a move can never look profitable merely
    because load the process drags along with it (its slot, its queue)
    was invisible. *)

(** {2 Affinity matrix} *)

val note_comm : t -> pid:int -> peer_rank:int -> unit
(** Piggybacked on every successful send: one unit of affinity from the
    sending process toward the destination rank. *)

val decay : t -> unit
(** Multiply every affinity cell by 0.5 (call once per period); cells
    below 1e-6 are dropped, and a row left empty goes with them.  This
    is also what drops the rows of processes that stopped sending. *)

val rekey : t -> old_pid:int -> new_pid:int -> unit
(** A migration gave the process a fresh pid; carry its affinity row. *)

val affinity : t -> pid:int -> (int * float) list
(** Current row for [pid], sorted by peer rank.  Test introspection. *)

(** {2 Planning} *)

val spread : t -> loads:node_load array -> float * float
(** [(max - min, mean)] of the composite load over alive nodes;
    [(0., 0.)] when fewer than two nodes are alive. *)

val plan :
  t ->
  loads:node_load array ->
  candidates:candidate list ->
  node_of_rank:(int -> int option) ->
  proposal list
(** One planning round.  Returns [] while the spread is inside the
    tolerance band.  Otherwise walks source nodes from most to least
    loaded and, for each candidate on an overloaded node (heaviest
    first), picks the destination maximising communication attraction
    (affinity mass toward ranks resident on that node, via
    [node_of_rank]) among the alive nodes that satisfy the
    [d + c*(1+tolerance) <= s] repulsion bound — ties broken by lower
    load, then lower node id.  Working loads are updated as proposals
    are emitted, and both departures and arrivals are capped by
    {!move_budget} per node, so one round's proposals are
    consistent and bounded.  Candidates with zero measured load are
    never moved.  Deterministic: output depends only on the arguments
    and the affinity matrix. *)
