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

   Replacement is LRU over a bounded entry count, optionally also
   bounded by the total cached instruction count (the in-memory footprint
   proxy).  Eviction scans for the stalest stamp — caches are small
   (tens of entries), so O(n) eviction is simpler than a linked list and
   never shows up in a profile. *)

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
  e_instrs : int;
  mutable e_tick : int; (* last-use stamp (LRU) *)
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable insertions : int;
}

type t = {
  capacity : int; (* max entries; <= 0 disables the cache *)
  max_instrs : int option; (* optional bound on total cached instrs *)
  table : (string * string * verify_mode, entry) Hashtbl.t;
  mutable total_instrs : int;
  mutable tick : int;
  (* counters live in a metrics registry; [stats] is a snapshot view *)
  metrics : Obs.Metrics.t;
  c_lookups : Obs.Metrics.counter;
  c_hits : Obs.Metrics.counter;
  c_misses : Obs.Metrics.counter;
  c_evictions : Obs.Metrics.counter;
  c_insertions : Obs.Metrics.counter;
}

let create ?max_instrs ~capacity () =
  let metrics = Obs.Metrics.create () in
  (* register outside the record literal: field expressions evaluate in
     unspecified order, and the registry renders in registration order *)
  let c_lookups = Obs.Metrics.counter metrics "codecache.lookups" in
  let c_hits = Obs.Metrics.counter metrics "codecache.hits" in
  let c_misses = Obs.Metrics.counter metrics "codecache.misses" in
  let c_evictions = Obs.Metrics.counter metrics "codecache.evictions" in
  let c_insertions = Obs.Metrics.counter metrics "codecache.insertions" in
  {
    capacity;
    max_instrs;
    table = Hashtbl.create (max 16 capacity);
    total_instrs = 0;
    tick = 0;
    metrics;
    c_lookups;
    c_hits;
    c_misses;
    c_evictions;
    c_insertions;
  }

let enabled t = t.capacity > 0
let metrics t = t.metrics

(* Thin view: the historical record, snapshotted from the registry. *)
let stats t =
  {
    hits = Obs.Metrics.count t.c_hits;
    misses = Obs.Metrics.count t.c_misses;
    evictions = Obs.Metrics.count t.c_evictions;
    insertions = Obs.Metrics.count t.c_insertions;
  }

let lookups t = Obs.Metrics.count t.c_lookups
let length t = Hashtbl.length t.table
let total_instrs t = t.total_instrs

let hit_rate t =
  let hits = Obs.Metrics.count t.c_hits in
  let total = hits + Obs.Metrics.count t.c_misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let find t ~digest ~arch ~trusted =
  if not (enabled t) then None
  else begin
    Obs.Metrics.incr t.c_lookups;
    let key = digest, arch, mode_of_trusted trusted in
    match Hashtbl.find_opt t.table key with
    | Some e ->
      t.tick <- t.tick + 1;
      e.e_tick <- t.tick;
      Obs.Metrics.incr t.c_hits;
      Some e
    | None ->
      Obs.Metrics.incr t.c_misses;
      None
  end

let remove_key t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.table key;
    t.total_instrs <- t.total_instrs - e.e_instrs

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, stale) when stale.e_tick <= e.e_tick -> acc
        | _ -> Some (key, e))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
    remove_key t key;
    Obs.Metrics.incr t.c_evictions

let over_budget t =
  Hashtbl.length t.table > t.capacity
  ||
  match t.max_instrs with
  | Some budget -> t.total_instrs > budget
  | None -> false

let add t ~digest ~arch ~trusted ~program ~code =
  if enabled t then begin
    let key = digest, arch, mode_of_trusted trusted in
    let instrs =
      match code with Ok c -> Masm.instr_count c.masm | Error _ -> 0
    in
    remove_key t key;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.table key
      { e_program = program; e_code = code; e_instrs = instrs;
        e_tick = t.tick };
    t.total_instrs <- t.total_instrs + instrs;
    Obs.Metrics.incr t.c_insertions;
    (* the just-added entry carries the freshest tick, so it survives
       unless it alone exceeds the instruction budget *)
    while over_budget t && Hashtbl.length t.table > 0 do
      evict_lru t
    done
  end

let invalidate t ~digest =
  let doomed =
    Hashtbl.fold
      (fun ((d, _, _) as key) _ acc ->
        if String.equal d digest then key :: acc else acc)
      t.table []
  in
  List.iter (remove_key t) doomed

let clear t =
  Hashtbl.reset t.table;
  t.total_instrs <- 0

let report t =
  Printf.sprintf "%d entries (%d instrs), %d hits / %d misses, %d evictions"
    (length t) t.total_instrs
    (Obs.Metrics.count t.c_hits)
    (Obs.Metrics.count t.c_misses)
    (Obs.Metrics.count t.c_evictions)
