(** The migration server (paper, Section 4.2.1): listens for inbound
    process images, verifies, recompiles and reconstructs them.
    Transport-agnostic — the simulated cluster's daemons and the CLI both
    drive it with received bytes. *)

open Vm

type request_outcome = {
  o_pid : int;
  o_costs : Pack.unpack_costs;
  o_process : Process.t;
  o_masm : Masm.image;
  o_compiled : Compile.image;
      (** closure-compiled form of [o_masm], embedding the pre-resolved
          linked form (cache-shared on a hit) — hand it to
          {!Emulator.create} so resumption never re-links or
          re-compiles *)
}

(** Typed server configuration — the one way to say everything about a
    daemon.  [cache] is this node's recompilation cache (shared with
    nobody: the cache is keyed by architecture and verify mode, but each
    daemon owns its own bounded store).  [first_pid] is the first pid
    assigned; each resumed process's RNG is seeded with its pid.
    [baseline_cache] bounds the retained delta baselines ([0] disables
    delta receive: every delta packet is rejected as an unknown
    baseline). *)
module Config : sig
  type t = {
    trusted : bool;
    extern_signatures : Fir.Typecheck.extern_lookup;
    first_pid : int;
    cache : Codecache.t option;
    baseline_cache : int;
  }

  val default : t
  (** untrusted, base externs, pids from 1000, no cache, 4 retained
      baselines *)
end

type t

val create_cfg : Config.t -> Arch.t -> t

val metrics : t -> Obs.Metrics.t
(** The registry: counters [server.accepted], [server.rejected],
    [server.duplicates],
    [server.bytes_received], [server.recompilations],
    [server.cache_hits], [migrate.bytes_full], [migrate.bytes_delta]
    (a refused delta is counted there and in [server.rejected]), and
    histograms [server.image_bytes] (both packet kinds),
    [server.compile_cycles]. *)

val cache : t -> Codecache.t option

(** {2 Delta baselines}

    A server holds only the images handed to {!remember_baseline}, in an
    {!Lru} bounded by [Config.baseline_cache], so a later delta packet
    naming one by {!Wire.image_digest} can be rebuilt locally.  Nothing
    {!handle} receives is retained: a process's next delta is taken
    against its previous pack, so only the node that packed that image
    can receive the delta. *)

val has_baseline : t -> string -> bool
(** Senders ask this before choosing the delta encoding (the simulated
    cluster's stand-in for a baseline-offer handshake) and ship the full
    image when it is [false]. *)

val remember_baseline : ?digest:string -> t -> Wire.image -> string
(** Retain [image] as a delta baseline (LRU, bounded by
    [Config.baseline_cache]; a no-op returning the digest when the bound
    is [0]).  A digest already held keeps its first image and is only
    refreshed.  [digest] defaults to [Wire.image_digest image] — pass it
    when already computed.  Senders call this on their OWN daemon after
    packing, so a process bouncing back can arrive as a delta; in the
    cluster it is the only way a daemon comes to hold a baseline. *)

(** {2 Code offers}

    Before a running process moves, its sender offers the FIR digest.
    On a miss it ships the FIR alone and the daemon compiles it while
    the process keeps running at its source; the image that follows
    then hits the cache. *)

val has_code : t -> string -> bool
(** Whether this daemon's cache holds a verdict (compiled code or a
    rejection) for the digest on its architecture and verify mode.
    Neither counted in the cache's registry nor refreshed.  [false]
    without a cache. *)

val compile_ahead : t -> string -> (int, string) result
(** Admit a FIR payload on its own ({!Pack.admit}, under this daemon's
    trust policy, externs, architecture and cache), keyed by the digest
    recomputed over the bytes.  Returns the compile cycles to charge, or
    the rejection (cached as a negative entry).  Counts
    [server.bytes_received], [server.recompilations] and
    [server.compile_cycles], or [server.rejected]. *)

val handle : t -> string -> (request_outcome, string) result
(** Handle one inbound migration; assigns a fresh pid on success.
    Accepts either packet kind and retains neither: a delta is
    reconstructed against the held baseline it names and
    digest-verified before the normal verification pipeline runs.  A
    delta whose baseline is missing, or does not reconstruct it, is
    refused with [Error ("unknown baseline " ^ digest)].  No
    deduplication: every call is treated as a distinct request (the
    transport owns delivery semantics).  Prefer {!receive} when the
    transport can retry or duplicate. *)

(** {2 Idempotent receive} *)

type delivery =
  | Fresh of request_outcome  (** first delivery: a process was built *)
  | Duplicate of request_outcome
      (** the key was seen before; the ORIGINAL outcome is returned and
          nothing new was spawned.  Callers must treat this as "already
          delivered" — the embedded process may have run since. *)

val receive : key:string -> t -> string -> (delivery, string) result
(** Handle one delivery idempotently.  [key] identifies the logical
    delivery (an envelope id), so retransmissions of one hop share a key
    while distinct migrations of byte-identical images do not collide.
    The last 64 accepted requests are remembered (a FIFO); rejections
    are not (a retried hop may succeed later). *)
