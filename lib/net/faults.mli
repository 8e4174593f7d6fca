(** Deterministic fault injection for the simulated cluster.

    A {!plan} is a declarative, seeded description of the faults to
    inject into message delivery and node behaviour: per-transmission
    loss (surfaced as link-level retransmission delay), duplication,
    delay jitter, link partitions, transient node stalls and
    crash-at-time events.  A runtime {!t} owns the seeded RNG that turns
    the plan's probabilities into concrete decisions, so the same plan +
    seed always yields the same fault schedule — traces are reproducible
    byte for byte.

    The cluster consults the runtime at five points: when a message is
    enqueued ({!on_message}), when a migration image is pushed across a
    link ({!on_hop}, one call per transmission attempt), when a
    heartbeat is emitted ({!on_heartbeat}), when a checkpoint replica is
    persisted ({!on_store_write}), and at the top of every scheduling
    round ({!take_stall}, {!take_crash}).  Object-store faults
    ({!Net.Cluster.set_object_failure_probability}) draw from the same
    RNG ({!rng}), so they are reproducible under the same seed. *)

type partition = {
  pa : int;  (** node id *)
  pb : int;  (** node id *)
  p_from : float;  (** simulated seconds *)
  p_until : float;  (** [infinity] = never heals *)
}

type stall = {
  s_node : int;
  s_at : float;  (** fires when the node's local clock reaches this *)
  s_for : float;  (** stall duration, simulated seconds *)
}

type crash = { c_node : int; c_at : float }

type plan = {
  f_seed : int;
  f_loss : float;  (** per-transmission loss probability, [0,1) *)
  f_dup : float;  (** per-message duplication probability, [0,1) *)
  f_jitter_s : float;  (** max extra delivery delay, uniform in [0, j] *)
  f_retransmit_s : float;
      (** base retransmission timeout a lost transmission costs; doubled
          on each consecutive loss of the same message *)
  f_partitions : partition list;
  f_stalls : stall list;
  f_crashes : crash list;
  f_crash_in_commit : float;
      (** per-commit-round probability that one participant crashes
          between its prepare-ack and the commit receipt, [0,1) — the
          coordinator must abort the in-doubt transaction *)
  f_store_lost : float;
      (** per-replica-write probability the file silently vanishes, [0,1] *)
  f_store_torn : float;
      (** per-replica-write probability only a prefix persists, [0,1] *)
  f_store_flip : float;
      (** per-replica-write probability one stored byte is corrupted, [0,1] *)
}

val none : plan
(** The empty plan: a cluster built with it behaves exactly like a
    fault-free one (no RNG draws on the message path). *)

val is_none : plan -> bool

val validate : plan -> (plan, string) result
(** Range-check probabilities and times.  Durations (jitter,
    retransmission timeout, stall length) must be finite; only a
    partition's end may be infinite ([until forever]). *)

(** {2 Plan files}

    Line-oriented text, ['#'] comments, blank lines ignored:
    {v
    seed 7
    loss 0.10
    dup 0.05
    jitter 0.0005
    retransmit 0.002
    partition 1 2 from 0.05 until 0.12
    partition 0 3 from 0.2 until forever
    stall 3 at 0.08 for 0.01
    crash 1 at 0.15
    crash_in_commit 0.02
    store_lost 0.05
    store_torn 0.02
    store_flip 0.02
    v} *)

val parse_plan : ?seed:int -> string -> (plan, string) result
(** Parse plan-file CONTENTS (not a path).  [seed] overrides any [seed]
    line in the file ([--seed N] on the CLI).  Every error — malformed
    token, unknown directive, or out-of-range value — is reported as
    ["line N: ..."]. *)

val plan_to_string : plan -> string
(** Render a plan back into the file format ([parse_plan] round-trips).
    Test introspection. *)

(** {2 Runtime} *)

type t

val create : ?salt:int -> ?metrics:Obs.Metrics.t -> plan -> t
(** [salt] (e.g. the cluster seed) is mixed into the RNG state alongside
    [plan.f_seed], so distinct clusters running the same plan can still
    diverge when asked to.  [metrics] receives the fault counters
    ([faults.retransmits], [faults.msg_dup], [faults.msg_dropped],
    [faults.hop_lost], [faults.hop_dup], [faults.stalls],
    [faults.crashes], [faults.crash_in_commit], [faults.hb_dropped],
    [faults.store_lost], [faults.store_torn], [faults.store_flip]); a
    private registry is used when omitted. *)

val plan : t -> plan

val rng : t -> Random.State.t
(** The seeded fault RNG — shared with the cluster's storage-fault
    draws so every probabilistic decision is reproducible. *)

type delivery = {
  d_dropped : bool;
      (** undeliverable: the link is partitioned and never heals, or the
          retransmission budget was exhausted *)
  d_delay_s : float;  (** extra delay beyond the nominal network time *)
  d_duplicate : bool;  (** enqueue a second copy of the message *)
  d_retransmits : int;  (** lost transmissions before the one that got through *)
}

val on_message : t -> now:float -> src:int -> dst:int -> delivery
(** Fault decision for one small message from node [src] to node [dst]
    sent at simulated time [now].  Loss is modelled as link-level
    retransmission (the message arrives late, not never), so polling
    receivers cannot wedge; a partition window delays delivery to its
    heal time.  Loopback ([src = dst]) and unknown destinations are
    never faulted. *)

val on_hop : t -> now:float -> src:int -> dst:int -> [ `Deliver | `Lost | `Partitioned ]
(** Fault decision for ONE transmission attempt of a migration image.
    Unlike {!on_message}, a lost hop is reported to the caller — the
    migration protocol owns the retry/backoff policy. *)

val dup_hop : t -> bool
(** Should a delivered migration image also arrive a second time?
    (Exercises the receiver's idempotent-receive path.) *)

val crash_in_commit : t -> bool
(** Should one participant of the commit round in flight crash between
    its prepare-ack and the commit receipt?  One draw per protocol
    round, made after all acks are in; the coordinator treats the
    victim as in-doubt and must abort. *)

val on_heartbeat :
  t -> now:float -> src:int -> dst:int -> [ `Deliver of float | `Drop ]
(** Fault decision for one heartbeat emitted by node [src] towards
    observer [dst] at [src]'s local time [now].  Heartbeats are
    fire-and-forget: loss and partitions drop the beat outright (no
    retransmission — silence is the signal the failure detector reads);
    [`Deliver d] adds [d] seconds of jitter on top of the nominal
    network time.  Fault-free plans consume no randomness. *)

val on_store_write :
  t -> [ `Ok | `Lost | `Torn of float | `Flip of float ]
(** Fate of one checkpoint-replica write.  [`Lost]: the write is
    acknowledged but nothing persists.  [`Torn frac]: only the first
    [frac] of the bytes persist.  [`Flip frac]: the data persists with
    one byte corrupted at relative position [frac].  The stored digest
    always describes the original bytes, so a digest-verified read
    detects torn and flipped replicas.  Plans with no storage-fault
    probabilities consume no randomness. *)

val partitioned : t -> now:float -> a:int -> b:int -> bool
(** Test introspection, as is {!heal_time}: the cluster sees partitions
    through {!on_message} and {!on_hop}. *)

val heal_time : t -> now:float -> a:int -> b:int -> float option
(** Latest [p_until] over the partition windows covering (a,b) at [now];
    [None] when the link is not partitioned or never heals. *)

val node_faults_pending : t -> bool
(** Some scripted stall or crash has not fired yet. *)

val take_stall : t -> node:int -> now:float -> float option
(** The duration of a stall scheduled on [node] at or before [now], if
    any; each stall fires exactly once. *)

val take_crash : t -> node:int -> now:float -> bool
(** True when a crash scheduled on [node] is due at [now]; each crash
    fires exactly once. *)
