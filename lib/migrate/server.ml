(* The migration server (paper, Section 4.2.1): "a version of the compiler
   that will listen for incoming migration requests, recompile any inbound
   processes on the new machine, and reconstruct their state before
   executing them."

   This module is transport-agnostic: the simulated cluster (lib/net) and
   the CLI daemon (bin/mcc serve) both drive it by handing it received
   image bytes.  The server owns the local trust policy and architecture,
   assigns fresh pids, and counts requests in a metrics registry used by
   the migration benchmarks. *)

open Vm

type request_outcome = {
  o_pid : int;
  o_costs : Pack.unpack_costs;
  o_process : Process.t;
  o_masm : Masm.image;
  o_compiled : Compile.image;
      (* closure-compiled [o_masm] (embedding the pre-resolved linked
         form), ready for an engine *)
}

module Config = struct
  type t = {
    trusted : bool;
    extern_signatures : Fir.Typecheck.extern_lookup;
    first_pid : int;
    cache : Codecache.t option;
    baseline_cache : int;
  }

  let default =
    {
      trusted = false;
      extern_signatures = Extern.signatures;
      first_pid = 1000;
      cache = None;
      baseline_cache = 4;
    }
end

(* Accepted requests remembered for idempotent receive. *)
let dedup_capacity = 64

type t = {
  arch : Arch.t;
  trusted : bool;
  extern_signatures : Fir.Typecheck.extern_lookup;
  cache : Codecache.t option;
  mutable next_pid : int;
  (* retained full images, by Wire.image_digest, so a later delta packet
     naming one can be reconstructed locally *)
  baselines : (string, Wire.image) Lru.t;
  (* idempotent receive: accepted requests remembered by delivery key so
     a duplicated or retried hop returns the original outcome instead of
     double-spawning.  Bounded FIFO of [dedup_capacity] entries. *)
  dedup : (string, request_outcome) Hashtbl.t;
  dedup_order : string Queue.t;
  metrics : Obs.Metrics.t;
  c_accepted : Obs.Metrics.counter;
  c_rejected : Obs.Metrics.counter;
  c_duplicates : Obs.Metrics.counter;
  c_bytes : Obs.Metrics.counter;
  c_recompilations : Obs.Metrics.counter;
  c_cache_hits : Obs.Metrics.counter;
  c_bytes_full : Obs.Metrics.counter; (* bytes arriving as full packets *)
  c_bytes_delta : Obs.Metrics.counter; (* bytes arriving as deltas *)
  c_delta_hits : Obs.Metrics.counter; (* deltas applied to a baseline *)
  c_delta_misses : Obs.Metrics.counter; (* unknown/failed baseline *)
  g_delta_hit_rate : Obs.Metrics.gauge;
  h_bytes : Obs.Metrics.histogram; (* image size per request, both kinds *)
  h_compile_cycles : Obs.Metrics.histogram; (* per accepted request *)
}

let create_cfg (cfg : Config.t) arch =
  let metrics = Obs.Metrics.create () in
  (* register outside the record literal: field expressions evaluate in
     unspecified order, and the registry renders in registration order *)
  let c_accepted = Obs.Metrics.counter metrics "server.accepted" in
  let c_rejected = Obs.Metrics.counter metrics "server.rejected" in
  let c_duplicates = Obs.Metrics.counter metrics "server.duplicates" in
  let c_bytes = Obs.Metrics.counter metrics "server.bytes_received" in
  let c_recompilations =
    Obs.Metrics.counter metrics "server.recompilations"
  in
  let c_cache_hits = Obs.Metrics.counter metrics "server.cache_hits" in
  let c_bytes_full = Obs.Metrics.counter metrics "migrate.bytes_full" in
  let c_bytes_delta = Obs.Metrics.counter metrics "migrate.bytes_delta" in
  let c_delta_hits = Obs.Metrics.counter metrics "migrate.delta_hits" in
  let c_delta_misses = Obs.Metrics.counter metrics "migrate.delta_misses" in
  let g_delta_hit_rate = Obs.Metrics.gauge metrics "migrate.delta_hit_rate" in
  let h_bytes = Obs.Metrics.histogram metrics "server.image_bytes" in
  let h_compile_cycles =
    Obs.Metrics.histogram metrics "server.compile_cycles"
  in
  {
    arch;
    trusted = cfg.Config.trusted;
    extern_signatures = cfg.Config.extern_signatures;
    cache = cfg.Config.cache;
    next_pid = cfg.Config.first_pid;
    baselines = Lru.create cfg.Config.baseline_cache;
    dedup = Hashtbl.create 16;
    dedup_order = Queue.create ();
    metrics;
    c_accepted;
    c_rejected;
    c_duplicates;
    c_bytes;
    c_recompilations;
    c_cache_hits;
    c_bytes_full;
    c_bytes_delta;
    c_delta_hits;
    c_delta_misses;
    g_delta_hit_rate;
    h_bytes;
    h_compile_cycles;
  }

let metrics t = t.metrics
let cache t = t.cache

(* ------------------------------------------------------------------ *)
(* Baseline retention                                                  *)
(* ------------------------------------------------------------------ *)

let has_baseline t digest = Lru.mem t.baselines digest
let baseline_count t = Lru.length t.baselines
let clear_baselines t = Lru.clear t.baselines

(* Retain [image] (digest: its {!Wire.image_digest}) so future deltas
   against it can be reconstructed; returns the digest.  A digest already
   held keeps its retained image and is only refreshed: the digest
   excludes the MASM payload, epoch and dspec context, so the two images
   may differ there.  With [baseline_cache = 0] nothing is retained and
   every delta misses. *)
let remember_baseline ?digest t image =
  let digest =
    match digest with Some d -> d | None -> Wire.image_digest image
  in
  if Option.is_none (Lru.find t.baselines digest) then
    ignore (Lru.add t.baselines digest image);
  digest

(* An unknown-baseline rejection is a protocol miss, not a bad image:
   the sender reacts by re-shipping in full, so it needs to recognize
   the error shape. *)
let unknown_baseline_prefix = "unknown baseline "
let unknown_baseline_error digest = unknown_baseline_prefix ^ digest

let is_unknown_baseline msg =
  String.length msg >= String.length unknown_baseline_prefix
  && String.equal
       (String.sub msg 0 (String.length unknown_baseline_prefix))
       unknown_baseline_prefix

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let update_delta_hit_rate t =
  let hits = Obs.Metrics.count t.c_delta_hits in
  let misses = Obs.Metrics.count t.c_delta_misses in
  if hits + misses > 0 then
    Obs.Metrics.set t.g_delta_hit_rate
      (float_of_int hits /. float_of_int (hits + misses))

(* The shared tail: [image] is either a decoded full packet or a
   delta reconstruction; [bytes] is what actually travelled. *)
let finish ?seed t ~bytes image =
  let pid = t.next_pid in
  match
    Pack.unpack_image ?seed ~pid ~trusted:t.trusted
      ~extern_signatures:t.extern_signatures ?cache:t.cache ~arch:t.arch
      ~bytes_len:(String.length bytes) image
  with
  | Ok (proc, masm, compiled, costs) ->
    t.next_pid <- t.next_pid + 1;
    Obs.Metrics.incr t.c_accepted;
    if costs.Pack.u_recompiled then Obs.Metrics.incr t.c_recompilations;
    if costs.Pack.u_cache_hit then Obs.Metrics.incr t.c_cache_hits;
    Obs.Metrics.observe t.h_compile_cycles
      (float_of_int costs.Pack.u_compile_cycles);
    Ok
      {
        o_pid = pid;
        o_costs = costs;
        o_process = proc;
        o_masm = masm;
        o_compiled = compiled;
      }
  | Error msg ->
    Obs.Metrics.incr t.c_rejected;
    Error msg

(* Handle one inbound migration: verify, recompile, reconstruct.  The
   caller decides what to do with the resulting process (schedule it,
   execute it to completion, ...).  A full packet that is accepted is
   retained as a delta baseline; a delta packet is reconstructed against
   the retained baseline it names (rejected with a recognizable
   {!is_unknown_baseline} error when this server no longer has it — the
   sender falls back to a full image). *)
let handle ?seed t bytes =
  Obs.Metrics.incr ~by:(String.length bytes) t.c_bytes;
  Obs.Metrics.observe t.h_bytes (float_of_int (String.length bytes));
  match Wire.decode_packet bytes with
  | exception Wire.Corrupt msg ->
    Obs.Metrics.incr t.c_rejected;
    Error ("corrupt image: " ^ msg)
  | Wire.Full image ->
    Obs.Metrics.incr ~by:(String.length bytes) t.c_bytes_full;
    let result = finish ?seed t ~bytes image in
    (match result with
    | Ok _ -> ignore (remember_baseline t image)
    | Error _ -> ());
    result
  | Wire.Delta delta -> (
    Obs.Metrics.incr ~by:(String.length bytes) t.c_bytes_delta;
    match Lru.find t.baselines delta.Wire.d_base with
    | None ->
      Obs.Metrics.incr t.c_delta_misses;
      update_delta_hit_rate t;
      Obs.Metrics.incr t.c_rejected;
      Error (unknown_baseline_error delta.Wire.d_base)
    | Some baseline -> (
      match Wire.apply_delta ~baseline delta with
      | exception Wire.Corrupt _ ->
        (* the baseline we hold does not reconstruct what the sender
           meant — count it as a miss so the sender's full-image
           fallback keeps the books straight *)
        Obs.Metrics.incr t.c_delta_misses;
        update_delta_hit_rate t;
        Obs.Metrics.incr t.c_rejected;
        Error (unknown_baseline_error delta.Wire.d_base)
      | image ->
        Obs.Metrics.incr t.c_delta_hits;
        update_delta_hit_rate t;
        let result = finish ?seed t ~bytes image in
        (match result with
        | Ok _ ->
          ignore (remember_baseline ~digest:delta.Wire.d_new_digest t image)
        | Error _ -> ());
        result))

(* Idempotent receive.  [key] identifies one logical delivery: the image
   digest plus whatever envelope identity the transport has (the cluster
   appends a per-migration hop id, so a retransmitted hop shares the key
   while distinct migrations of an identical image never collide).
   Rejections are NOT remembered — a retried hop may legitimately
   succeed later (e.g. the cache warmed, or the reject was transient
   policy). *)

type delivery = Fresh of request_outcome | Duplicate of request_outcome

let delivery_key bytes = Fir.Digest.of_encoded bytes

let receive ?seed ?key t bytes =
  let key = match key with Some k -> k | None -> delivery_key bytes in
  match Hashtbl.find_opt t.dedup key with
  | Some outcome ->
    Obs.Metrics.incr t.c_duplicates;
    Ok (Duplicate outcome)
  | None -> (
    match handle ?seed t bytes with
    | Error _ as e -> e
    | Ok outcome ->
      Hashtbl.replace t.dedup key outcome;
      Queue.push key t.dedup_order;
      if Queue.length t.dedup_order > dedup_capacity then
        Hashtbl.remove t.dedup (Queue.pop t.dedup_order);
      Ok (Fresh outcome))
