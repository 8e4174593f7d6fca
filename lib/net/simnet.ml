(* The simulated cluster network.

   Stands in for the paper's testbed interconnect (100 Mbps Ethernet,
   Section 5) with a deterministic cost model: a TCP-like connection setup
   charge, a propagation latency, and a bandwidth term proportional to the
   payload.  The migration experiments (E1a/E1b) report the transfer
   component of migration through this model, so the paper's observed
   fractions (~10 % of FIR migration, ~30 % of binary migration) are a
   function of image size and recompilation cost rather than hard-coded.

   The network keeps no clock: simulated time is the nodes' local
   clocks, which the cluster scheduler advances; the costs below are
   what callers add to them.

   Traffic accounting lives in an Obs.Metrics registry (counters
   net.bytes_sent / net.messages / net.transfers) instead of ad-hoc
   mutable fields, so the cluster, the CLI and the benches all read it
   through the same interface. *)

type t = {
  bandwidth_bps : float;
  latency_s : float; (* one-way propagation *)
  connect_s : float; (* connection establishment *)
  metrics : Obs.Metrics.t;
  bytes_sent : Obs.Metrics.counter;
  messages_sent : Obs.Metrics.counter;
  transfers : Obs.Metrics.counter; (* bulk transfers (migrations, ckpts) *)
}

(* Defaults match the paper's testbed scale: 100 Mbps, sub-millisecond
   LAN latency, ~1 ms TCP connection establishment. *)
let create ?(bandwidth_mbps = 100.0) ?(latency_us = 200.0)
    ?(connect_ms = 1.0) () =
  let metrics = Obs.Metrics.create () in
  (* register outside the record literal: field expressions evaluate in
     unspecified order, and the registry renders in registration order *)
  let bytes_sent = Obs.Metrics.counter metrics "net.bytes_sent" in
  let messages_sent = Obs.Metrics.counter metrics "net.messages" in
  let transfers = Obs.Metrics.counter metrics "net.transfers" in
  {
    bandwidth_bps = bandwidth_mbps *. 1e6;
    latency_s = latency_us *. 1e-6;
    connect_s = connect_ms *. 1e-3;
    metrics;
    bytes_sent;
    messages_sent;
    transfers;
  }

(* Cost of a bulk transfer (new connection): setup + latency + serialization
   onto the wire. *)
let transfer_seconds t bytes =
  t.connect_s +. t.latency_s +. (float_of_int (8 * bytes) /. t.bandwidth_bps)

(* Cost of a small message on an established channel: latency + wire time. *)
let message_seconds t bytes =
  t.latency_s +. (float_of_int (8 * bytes) /. t.bandwidth_bps)

let record_transfer t bytes =
  Obs.Metrics.incr ~by:bytes t.bytes_sent;
  Obs.Metrics.incr t.transfers

let record_message t bytes =
  Obs.Metrics.incr ~by:bytes t.bytes_sent;
  Obs.Metrics.incr t.messages_sent

let metrics t = t.metrics
