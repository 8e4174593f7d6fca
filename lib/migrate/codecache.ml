(* The destination-side recompilation cache.

   The paper's own measurements (Section 5, E1) put FIR migration at
   ~90 % recompilation and ~10 % network transfer — and a migration
   daemon serving a bouncing grid process recompiles the IDENTICAL
   program every time.  This cache keys compiled code by the program's
   content digest (Fir.Digest over the canonical Serial encoding), so a
   warm migration costs transfer + stub link instead of transfer +
   typecheck + full codegen.

   Trust model:
   - an entry is only ever created from a payload that was processed
     locally: typechecked here (verified mode) or accepted under the
     local trust policy (trusted mode).  The digest in the wire header is
     integrity metadata — Wire.decode recomputes it over the received
     bytes and rejects mismatches — never a reason to skip verification
     on a miss;
   - the key includes the ARCHITECTURE name, so a Cisc32-compiled image
     can never serve a Risc64 node (heterogeneous correctness by
     construction of the key);
   - the key includes the VERIFY MODE, so an entry admitted without a
     typecheck (trusted) can never satisfy a request that demands one
     (verified), and vice versa;
   - failed typechecks are cached too (a negative entry), so a repeated
     hostile payload costs one typecheck, not one per delivery.

   Replacement is LRU over a bounded entry count ({!Lru}). *)

open Vm

type verify_mode = Verified | Trusted

let mode_of_trusted trusted = if trusted then Trusted else Verified

type code = { masm : Masm.image; compiled : Compile.image }

type entry = {
  e_program : Fir.Ast.program; (* decoded once, shared read-only *)
  e_code : (code, string) result;
      (* the typecheck verdict at admission, carrying the code when it
         passed; the compiled image is process-independent, so a warm
         migration hop resumes straight into compiled code *)
}

type t = {
  entries : (string * string * verify_mode, entry) Lru.t;
  metrics : Obs.Metrics.t;
  c_lookups : Obs.Metrics.counter;
  c_hits : Obs.Metrics.counter;
  c_misses : Obs.Metrics.counter;
  c_evictions : Obs.Metrics.counter;
  c_insertions : Obs.Metrics.counter;
}

let create ~capacity () =
  let metrics = Obs.Metrics.create () in
  (* register outside the record literal: field expressions evaluate in
     unspecified order, and the registry renders in registration order *)
  let c_lookups = Obs.Metrics.counter metrics "codecache.lookups" in
  let c_hits = Obs.Metrics.counter metrics "codecache.hits" in
  let c_misses = Obs.Metrics.counter metrics "codecache.misses" in
  let c_evictions = Obs.Metrics.counter metrics "codecache.evictions" in
  let c_insertions = Obs.Metrics.counter metrics "codecache.insertions" in
  {
    entries = Lru.create capacity;
    metrics;
    c_lookups;
    c_hits;
    c_misses;
    c_evictions;
    c_insertions;
  }

let metrics t = t.metrics
let length t = Lru.length t.entries

(* capacity <= 0 disables the cache: finds miss and adds are dropped,
   neither of them counted *)
let enabled t = Lru.capacity t.entries > 0

let find t ~digest ~arch ~trusted =
  if not (enabled t) then None
  else begin
    Obs.Metrics.incr t.c_lookups;
    match Lru.find t.entries (digest, arch, mode_of_trusted trusted) with
    | Some _ as hit ->
      Obs.Metrics.incr t.c_hits;
      hit
    | None ->
      Obs.Metrics.incr t.c_misses;
      None
  end

let mem t ~digest ~arch ~trusted =
  enabled t && Lru.mem t.entries (digest, arch, mode_of_trusted trusted)

let add t ~digest ~arch ~trusted ~program ~code =
  if enabled t then begin
    let evicted =
      Lru.add t.entries
        (digest, arch, mode_of_trusted trusted)
        { e_program = program; e_code = code }
    in
    Obs.Metrics.incr t.c_insertions;
    Obs.Metrics.incr ~by:evicted t.c_evictions
  end

let report t =
  let instrs =
    Lru.fold
      (fun _ e acc ->
        match e.e_code with
        | Ok c -> acc + Masm.instr_count c.masm
        | Error _ -> acc)
      t.entries 0
  in
  Printf.sprintf "%d entries (%d instrs), %d hits / %d misses, %d evictions"
    (length t) instrs
    (Obs.Metrics.count t.c_hits)
    (Obs.Metrics.count t.c_misses)
    (Obs.Metrics.count t.c_evictions)
