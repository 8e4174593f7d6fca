(** Heartbeat failure detection.

    Alive nodes emit periodic heartbeats to every other node on their
    local clocks; the cluster routes each beat through the fault layer
    (partitions and loss drop beats outright — no retransmission) and
    charges network time.  A node is suspected when {e every} alive
    observer has heard nothing from it for longer than the suspicion
    timeout on the observer's local clock, so a partial partition does
    not trigger suspicion but a crash, full partition, or long stall
    does.  The detector cannot distinguish those cases: false suspicion
    is possible by design, and the epoch-fencing layer in
    {!Net.Cluster} makes acting on one safe.

    Ground truth is consulted only to select which observers still
    report and to classify suspicions for the
    [detector.false_suspicions] counter — never for the detection
    decision itself. *)

type config = {
  hb_interval_s : float;  (** beat period, per-node local clock *)
  suspect_timeout_s : float;
      (** unanimous-silence threshold; should be several intervals *)
}

val default : config
(** 5 ms interval, 25 ms timeout. *)

val hb_bytes : int
(** On-the-wire beat size, for transfer accounting: 8 bytes. *)

type t

val create : ?metrics:Obs.Metrics.t -> nodes:int -> config -> t
(** [metrics] receives [detector.heartbeats], [detector.suspicions] and
    [detector.false_suspicions]; a private registry is used when
    omitted.
    @raise Invalid_argument naming the field when [hb_interval_s] or
    [suspect_timeout_s] is not finite and positive (zero, negative,
    infinite or NaN). *)

val config : t -> config

val due : t -> node:int -> now:float -> float list
(** Emission times on [node] that became due now that its local clock
    reached [now], oldest first; each is returned exactly once.  The
    caller fans each beat out to the other nodes via the fault layer and
    {!record}s the survivors. *)

val skip_to : t -> node:int -> at:float -> unit
(** [node] was frozen until [at]: beats due during the freeze are never
    emitted (their silence is the detectable signal), and the first
    post-freeze beat goes out promptly. *)

val record : t -> src:int -> dst:int -> at:float -> unit
(** A beat from [src] will arrive at observer [dst] at time [at].  It
    becomes visible to [dst] only once [dst]'s local clock passes [at]. *)

val suspects :
  ?on_suspect:(subject:int -> false_positive:bool -> unit) ->
  t ->
  clocks:float array ->
  alive:bool array ->
  int list
(** The current suspect set given the nodes' local [clocks], in
    ascending node order.  Promotes matured arrivals, updates suspicion
    state, and counts fresh suspicion episodes (a node re-heard after a
    false suspicion clears its flag; suspecting it again later counts as
    a new episode).  [on_suspect] fires once per fresh episode — not on
    every poll — so callers can trace suspicions without flooding. *)
