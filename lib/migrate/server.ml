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
  (* images handed to [remember_baseline], by Wire.image_digest, so a
     later delta packet naming one can be reconstructed locally *)
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
    h_bytes;
    h_compile_cycles;
  }

let metrics t = t.metrics
let cache t = t.cache

(* ------------------------------------------------------------------ *)
(* Baseline retention                                                  *)
(* ------------------------------------------------------------------ *)

let has_baseline t digest = Lru.mem t.baselines digest

(* Retain [image] (digest: its {!Wire.image_digest}) so future deltas
   against it can be reconstructed; returns the digest.  A digest already
   held keeps its retained image and is only refreshed: the digest
   excludes the MASM payload, epoch and dspec context, so the two images
   may differ there.  With [baseline_cache = 0] nothing is retained and
   every delta is rejected. *)
let remember_baseline ?digest t image =
  let digest =
    match digest with Some d -> d | None -> Wire.image_digest image
  in
  if Option.is_none (Lru.find t.baselines digest) then
    ignore (Lru.add t.baselines digest image);
  digest

(* ------------------------------------------------------------------ *)
(* Code offers                                                         *)
(* ------------------------------------------------------------------ *)

(* The code counterpart of [has_baseline]: does this daemon hold the
   verdict for [digest] on its architecture and verify mode?  A sender
   asks before moving a running process, and compiles ahead on a
   miss. *)
let has_code t digest =
  match t.cache with
  | Some c ->
    Codecache.mem c ~digest ~arch:t.arch.Arch.name ~trusted:t.trusted
  | None -> false

(* Admit a FIR payload that arrived ahead of its process, through the
   same admission as an image's cache miss, so the image that follows
   hits.  The digest is recomputed over what arrived. *)
let compile_ahead t fir =
  Obs.Metrics.incr ~by:(String.length fir) t.c_bytes;
  let digest = Fir.Digest.of_encoded fir in
  match
    Pack.admit ~trusted:t.trusted ~extern_signatures:t.extern_signatures
      ?cache:t.cache ~arch:t.arch ~digest fir
  with
  | Ok cycles ->
    Obs.Metrics.incr t.c_recompilations;
    Obs.Metrics.observe t.h_compile_cycles (float_of_int cycles);
    Ok cycles
  | Error msg ->
    Obs.Metrics.incr t.c_rejected;
    Error msg

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

(* The shared tail: [landed] is either a decoded full packet or a
   delta reconstruction, in the store the new heap adopts; [bytes] is
   what actually travelled. *)
let finish t ~bytes landed =
  let pid = t.next_pid in
  match
    Pack.unpack_landed ~pid ~trusted:t.trusted
      ~extern_signatures:t.extern_signatures ?cache:t.cache ~arch:t.arch
      ~bytes_len:(String.length bytes) landed
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
   execute it to completion, ...).  Nothing received is retained, so a
   full packet is decoded, and a delta rebuilt, straight into the store
   the new heap adopts.  A delta packet is reconstructed against the
   baseline it names, which only [remember_baseline] puts here
   (rejected as an unknown baseline when this server does not hold it);
   the retained baseline is only read. *)
let handle t bytes =
  Obs.Metrics.incr ~by:(String.length bytes) t.c_bytes;
  Obs.Metrics.observe t.h_bytes (float_of_int (String.length bytes));
  match Wire.decode_arrival bytes with
  | exception Wire.Corrupt msg ->
    Obs.Metrics.incr t.c_rejected;
    Error ("corrupt image: " ^ msg)
  | Wire.Landed landed ->
    Obs.Metrics.incr ~by:(String.length bytes) t.c_bytes_full;
    finish t ~bytes landed
  | Wire.Patch delta -> (
    Obs.Metrics.incr ~by:(String.length bytes) t.c_bytes_delta;
    let unknown () =
      Obs.Metrics.incr t.c_rejected;
      Error ("unknown baseline " ^ delta.Wire.d_base)
    in
    match Lru.find t.baselines delta.Wire.d_base with
    | None -> unknown ()
    | Some baseline -> (
      match Wire.land_delta ~baseline delta with
      (* the baseline we hold does not reconstruct what the sender
         meant: the same refusal as not holding it *)
      | exception Wire.Corrupt _ -> unknown ()
      | landed -> finish t ~bytes landed))

(* Idempotent receive.  [key] identifies one logical delivery: the
   transport's envelope identity (the cluster keys by a per-migration
   hop id, so a duplicated hop shares the key while distinct migrations
   of an identical image never collide).
   Rejections are NOT remembered — a retried hop may legitimately
   succeed later (e.g. the cache warmed, or the reject was transient
   policy). *)

type delivery = Fresh of request_outcome | Duplicate of request_outcome

let receive ~key t bytes =
  match Hashtbl.find_opt t.dedup key with
  | Some outcome ->
    Obs.Metrics.incr t.c_duplicates;
    Ok (Duplicate outcome)
  | None -> (
    match handle t bytes with
    | Error _ as e -> e
    | Ok outcome ->
      Hashtbl.replace t.dedup key outcome;
      Queue.push key t.dedup_order;
      if Queue.length t.dedup_order > dedup_capacity then
        Hashtbl.remove t.dedup (Queue.pop t.dedup_order);
      Ok (Fresh outcome))
