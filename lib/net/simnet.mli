(** The simulated cluster network (paper, Section 5 testbed: 100 Mbps
    Ethernet).  A deterministic cost model — TCP-like connection setup,
    propagation latency, bandwidth — plus traffic counters.  It keeps no
    clock: simulated time is the nodes' local clocks. *)

type t

val create :
  ?bandwidth_mbps:float -> ?latency_us:float -> ?connect_ms:float ->
  unit -> t
(** Defaults: 100 Mbps, 200 µs one-way latency, 1 ms connection setup. *)

val transfer_seconds : t -> int -> float
(** Cost of a bulk transfer on a new connection (migrations,
    checkpoints): setup + latency + wire time for the byte count. *)

val message_seconds : t -> int -> float
(** Cost of a small message on an established channel. *)

val record_transfer : t -> int -> unit
val record_message : t -> int -> unit

val metrics : t -> Obs.Metrics.t
(** The traffic registry: counters [net.bytes_sent], [net.messages],
    [net.transfers]. *)
