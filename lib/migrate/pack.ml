(* Pack and unpack: capturing and reconstructing whole-process state
   (paper, Section 4.2.2).

   pack:
   1. Store the live variables (the continuation arguments of the migrate
      instruction — exactly the paper's correspondence) into a freshly
      allocated [migrate_env] block, converting register state into the
      standard heap representation.
   2. Garbage-collect the heap (the paper's pack "first performs garbage
      collection"), with migrate_env and the speculation state as roots.
   3. Snapshot: FIR code, function table, pointer table (order preserved),
      heap cells, speculation records, the migrate_env index, and the
      resume label.

   unpack:
   1. Structurally verify the image (Wire.verify).
   2. Re-typecheck the FIR in strict mode unless the source is trusted.
   3. Rebuild heap + pointer table, re-create the speculation engine,
      extract the continuation arguments from migrate_env with the
      standard safety checks, and validate them against the continuation
      function's signature.
   4. Recompile for the local architecture — or, if the image carries a
      binary payload for the SAME architecture and the source is trusted,
      skip recompilation entirely (the binary fast path measured in
      experiment E1b). *)

open Runtime
open Vm

exception Unpack_error of string

type packed = {
  p_image : Wire.image;
  p_bytes : string; (* the encoded image: what actually travels *)
  p_digest : string; (* Wire.image_digest of p_image *)
  p_dirty : Heap.dirty_snapshot;
      (* (index, page) pairs written since the PREVIOUS pack — the
         change set a delta against that previous image may ship *)
}

type unpack_costs = {
  u_bytes : int; (* transferred size *)
  u_verified : bool; (* structural + type verification performed *)
  u_recompiled : bool; (* FIR -> MASM codegen performed *)
  u_cache_hit : bool; (* code served from the recompilation cache *)
  u_compile_cycles : int; (* simulated cycles charged for recompilation *)
}

(* ------------------------------------------------------------------ *)
(* pack                                                                *)
(* ------------------------------------------------------------------ *)

let pack ?(with_binary = true) ?(epoch = 0) ?dspec proc ~entry ~args ~label =
  let heap = proc.Process.heap in
  (* 1. migrate_env: all live data moves into the heap; afterwards the only
     "register" content is the migrate_env index itself *)
  let menv = Heap.alloc_tuple heap args in
  (* 2. collect, with migrate_env and speculation state as the roots *)
  let spec_roots =
    List.rev
      (Spec.Engine.fold_cont_args (fun acc a -> List.rev_append a acc) []
         proc.Process.spec)
  in
  let res =
    Gc.collect heap ~kind:Gc.Major
      ~roots:(Value.Vptr (menv, 0) :: spec_roots)
      ~pinned:(Spec.Engine.records proc.Process.spec)
  in
  Spec.Engine.rewrite_after_gc proc.Process.spec res;
  (* 3. snapshot; the program's payloads are the process's, encoded at
     most once in its lifetime.  One walk over the live cells copies
     them into the image, hashes them and sizes the packet, which is
     then written at exactly that size. *)
  let fir = Process.fir_payload proc in
  let image, p_bytes, p_digest =
    Wire.capture ~store:heap.Heap.store ~ncells:(Heap.used_cells heap)
    {
      Wire.i_arch = proc.Process.arch.Arch.name;
      i_digest = fir.Process.fir_digest;
      i_fir = fir.Process.fir_bytes;
      i_masm =
        (if with_binary then Some (Process.masm_payload proc) else None);
      i_ftable = Function_table.names proc.Process.ftable;
      i_ptable = Pointer_table.snapshot (Heap.pointer_table heap);
      i_cells = [||];
      i_spec = Spec.Engine.snapshot proc.Process.spec;
      i_menv = menv;
      i_entry = entry;
      i_label = label;
      i_epoch = epoch;
      i_dspec = dspec;
    }
  in
  (* The dirty set accumulated since the previous pack is exactly what a
     delta against that previous image may ship (the collector already
     dropped freed indices, and the snapshot keys are stable across the
     compaction slide).  Clearing it makes THIS image the new baseline
     that future writes are tracked against. *)
  let p_dirty = Heap.dirty_snapshot heap in
  Heap.clear_dirty heap;
  { p_image = image; p_bytes; p_digest; p_dirty }

(* Encode [packed] as a delta against [baseline] (identified on the wire
   by [base_digest], the baseline's {!Wire.image_digest}).  Returns
   [None] when a delta is semantically impossible — a different FIR
   payload — rather than merely unprofitable; byte-size policy is the
   caller's.  The baseline's architecture does not matter: heap cells
   are architecture-independent, and the delta names its own. *)
let delta ~baseline ~base_digest packed =
  let image = packed.p_image in
  if not (String.equal image.Wire.i_digest baseline.Wire.i_digest) then None
  else
    let d_blocks, stats =
      Wire.diff ~baseline ~image ~changed:(Heap.page_dirty packed.p_dirty)
    in
    let delta =
      {
        Wire.d_arch = image.Wire.i_arch;
        d_base = base_digest;
        d_fir_digest = image.Wire.i_digest;
        d_new_digest = packed.p_digest;
        d_ptable = image.Wire.i_ptable;
        d_blocks;
        d_spec = image.Wire.i_spec;
        d_menv = image.Wire.i_menv;
        d_entry = image.Wire.i_entry;
        d_label = image.Wire.i_label;
        d_epoch = image.Wire.i_epoch;
        d_dspec = image.Wire.i_dspec;
      }
    in
    Some (Wire.encode_delta delta, stats)

(* Pack a process that has stopped at a migration request. *)
let pack_request ?with_binary ?epoch ?dspec proc =
  match proc.Process.status with
  | Process.Migrating req ->
    pack ?with_binary ?epoch ?dspec proc ~entry:req.Process.m_entry
      ~args:req.Process.m_args ~label:req.Process.m_label
  | Process.Running | Process.Exited _ | Process.Trapped _ ->
    invalid_arg "Pack.pack_request: process is not at a migration point"

(* Pack a RUNNING process between basic blocks, without its cooperation:
   the current continuation is exactly the live state (the CPS property),
   so any inter-step boundary is a safe migration point.  This enables
   the paper's "dynamic transparent load balancing and mobile agents"
   (Section 7): "processes to be migrated without their specific
   knowledge for failure-recovery or load-balancing purposes"
   (Section 4.2.1). *)
let pack_running ?with_binary ?epoch ?dspec proc =
  match proc.Process.status with
  | Process.Running ->
    let entry, args = proc.Process.cont in
    pack ?with_binary ?epoch ?dspec proc ~entry ~args ~label:0
  | Process.Migrating _ | Process.Exited _ | Process.Trapped _ ->
    invalid_arg "Pack.pack_running: process is not running"

(* ------------------------------------------------------------------ *)
(* unpack                                                              *)
(* ------------------------------------------------------------------ *)

let value_matches program ftable_names ty v =
  let open Fir.Types in
  match ty, v with
  | Tunit, Value.Vunit -> true
  | Tint, Value.Vint _ -> true
  | Tfloat, Value.Vfloat _ -> true
  | Tbool, Value.Vbool _ -> true
  | Tenum c, Value.Venum (c', x) -> c = c' && x >= 0 && x < c
  | (Tptr _ | Ttuple _ | Traw), Value.Vptr _ -> true
  | Tfun tys, Value.Vfun f -> (
    match List.nth_opt ftable_names f with
    | Some name -> (
      match Fir.Ast.find_fun program name with
      | Some fd ->
        let sig_ = Fir.Ast.signature fd in
        List.length sig_ = List.length tys
        && List.for_all2 Fir.Types.equal sig_ tys
      | None -> false)
    | None -> false)
  | Tany, _ -> true
  | ( (Tunit | Tint | Tfloat | Tbool | Tenum _ | Tptr _ | Ttuple _ | Traw
      | Tfun _),
      _ ) ->
    false

(* The admission of one FIR payload at a destination: decode, strict
   typecheck (unless trusted), codegen — or, trusted and with a binary
   for this architecture, the binary fast path — then closure-compile,
   and admit the verdict to [cache], a rejection included (a negative
   entry).  This is the one compile path: [unpack_image]'s cache miss
   and a daemon compiling ahead of a cut-over ({!Server.compile_ahead})
   both run it.  [digest] names [fir], already recomputed over the
   received bytes by the caller.  Returns the program, its code, whether
   codegen ran and the cycles charged (codegen and link, or link only). *)
let admit_exn ~trusted ~extern_signatures ?cache ~arch ~digest ?binary fir =
  let program =
    try Fir.Serial.decode fir
    with Fir.Serial.Corrupt msg ->
      raise (Unpack_error ("corrupt FIR payload: " ^ msg))
  in
  if not trusted then begin
    match
      Fir.Typecheck.check_program ~strict:true ~externs:extern_signatures
        program
    with
    | Ok () -> ()
    | Error msg ->
      (* negative caching: remember the rejection *)
      (match cache with
      | Some c ->
        Codecache.add c ~digest ~arch:arch.Arch.name ~trusted ~program
          ~code:(Error msg)
      | None -> ());
      raise (Unpack_error ("FIR rejected: " ^ msg))
  end;
  (* decide the execution payload *)
  let masm, recompiled, compile_cycles =
    match binary with
    | Some payload when trusted ->
      let masm = Masm.decode payload in
      (* no recompilation, but the stub must still be linked *)
      masm, false, Codegen.simulated_link_cycles masm
    | Some _ | None ->
      let masm = Codegen.compile ~arch program in
      ( masm,
        true,
        Codegen.simulated_compile_cycles program
        + Codegen.simulated_link_cycles masm )
  in
  (* pre-resolve and closure-compile once, here, so the returned engine
     image and any future cache hit share the same translated forms *)
  let compiled = Compile.compile_masm masm in
  (match cache with
  | Some c ->
    Codecache.add c ~digest ~arch:arch.Arch.name ~trusted ~program
      ~code:(Ok { Codecache.masm; compiled })
  | None -> ());
  program, masm, compiled, recompiled, compile_cycles

let admit ?(trusted = false) ?(extern_signatures = Extern.signatures) ?cache
    ~arch ~digest fir =
  match admit_exn ~trusted ~extern_signatures ?cache ~arch ~digest fir with
  | _, _, _, _, compile_cycles -> Ok compile_cycles
  | exception Unpack_error msg -> Error msg

(* [extern_signatures] extends the strict typecheck with the host
   environment's externs (e.g. the cluster's message-passing set).

   [cache] is the destination node's recompilation cache.  The flow keeps
   the trust model intact: the cache is consulted only AFTER Wire.decode
   has recomputed the digest over the received bytes (so the key names
   exactly what arrived) and after the per-migration structural heap
   verification — Wire.verify checks THIS image's heap and can never be
   skipped.  A hit only elides the program-level work (FIR decode,
   typecheck, codegen), which is a pure function of the FIR bytes; a miss
   runs the full untrusted-source pipeline ([admit_exn]) and then
   populates the cache, including negative entries for payloads that
   fail the typecheck. *)
(* Reconstruct from an already-decoded image — the shared tail of the
   full-packet path ([unpack]), the delta path (the server decodes the
   packet, rebuilds the image against its retained baseline, then lands
   here) and resurrection.  [verify] runs the structural checks on the
   image's heap and [heap] builds the process's heap from it: over a
   received store that nothing else holds ([unpack_landed]), or over a
   copy of an image the caller keeps ([unpack_image]).  [bytes_len] is
   the on-the-wire size, for cost accounting. *)
let reconstruct ~pid ~seed ~trusted ~extern_signatures ?cache ~arch
    ~bytes_len ~verify ~heap image =
  try
    let verified = not trusted in
    (* structural heap checks are per-image state, never cacheable *)
    if verified then verify ();
    let cached =
      match cache with
      | Some c ->
        Codecache.find c ~digest:image.Wire.i_digest ~arch:arch.Arch.name
          ~trusted
      | None -> None
    in
    let program, masm, compiled, recompiled, cache_hit, compile_cycles =
      match cached with
      | Some { Codecache.e_code = Error msg; _ } ->
        (* negative entry: this exact payload already failed the
           typecheck here — reject without re-running it *)
        raise (Unpack_error ("FIR rejected: " ^ msg))
      | Some
          { Codecache.e_code = Ok { Codecache.masm; compiled };
            e_program;
            _ } ->
        (* typecheck + codegen elided; the stub must still be linked.
           The warm hop resumes straight into the cached closure-compiled
           image without re-compiling. *)
        ( e_program,
          masm,
          compiled,
          false,
          true,
          Codegen.simulated_link_cycles masm )
      | None ->
        (* the binary is only an option for this architecture *)
        let binary =
          if String.equal image.Wire.i_arch arch.Arch.name then
            image.Wire.i_masm
          else None
        in
        let program, masm, compiled, recompiled, compile_cycles =
          admit_exn ~trusted ~extern_signatures ?cache ~arch
            ~digest:image.Wire.i_digest ?binary image.Wire.i_fir
        in
        program, masm, compiled, recompiled, false, compile_cycles
    in
    (* the function table must be exactly the program's functions, in the
       canonical order (index order is load-bearing for Vfun values); the
       table is per-image state, so this runs on cache hits too *)
    let expected =
      List.sort String.compare (Fir.Ast.fun_names program)
    in
    if image.Wire.i_ftable <> expected then
      raise (Unpack_error "function table does not match the program");
    let heap = heap () in
    let proc =
      Process.restore ~pid ~arch ~seed ~program ~heap
        ~spec_snapshot:image.Wire.i_spec
        ~cont:(image.Wire.i_entry, []) ()
    in
    (* the image's FIR bytes are the program's encoding (the program was
       decoded from them, or cached under their digest), and the digest
       was recomputed over them on receipt: a later pack re-ships them *)
    Process.seed_fir_payload proc ~fir_bytes:image.Wire.i_fir
      ~fir_digest:image.Wire.i_digest;
    (* extract the continuation arguments from migrate_env with the
       standard safety checks applied as they are read (Section 4.2.2) *)
    let entry_fd =
      match Fir.Ast.find_fun program image.Wire.i_entry with
      | Some fd -> fd
      | None ->
        raise (Unpack_error ("unknown resume function " ^ image.Wire.i_entry))
    in
    let nargs = List.length entry_fd.Fir.Ast.f_params in
    if Heap.block_size heap image.Wire.i_menv <> nargs then
      raise (Unpack_error "migrate_env size does not match resume signature");
    let args =
      List.init nargs (fun k -> Heap.read heap image.Wire.i_menv k)
    in
    List.iteri
      (fun k ((_, ty), v) ->
        if verified
           && not (value_matches program image.Wire.i_ftable ty v)
        then
          raise
            (Unpack_error
               (Printf.sprintf
                  "resume argument %d has wrong representation (%s vs %s)" k
                  (Value.to_string v) (Fir.Types.to_string ty))))
      (List.combine entry_fd.Fir.Ast.f_params args);
    proc.Process.cont <- image.Wire.i_entry, args;
    Ok
      ( proc,
        masm,
        compiled,
        {
          u_bytes = bytes_len;
          u_verified = verified;
          u_recompiled = recompiled;
          u_cache_hit = cache_hit;
          u_compile_cycles = compile_cycles;
        } )
  with
  | Unpack_error msg -> Error msg
  | Wire.Corrupt msg -> Error ("corrupt image: " ^ msg)
  | Heap.Runtime_error msg -> Error ("bad heap in image: " ^ msg)
  | Pointer_table.Invalid_pointer msg -> Error ("bad pointer table: " ^ msg)
  | Function_table.Invalid_function msg ->
    Error ("bad function table: " ^ msg)
  | Spec.Engine.Invalid_level msg -> Error ("bad speculation state: " ^ msg)

let unpack_image ?(pid = 0) ?(seed = 42) ?(trusted = false)
    ?(extern_signatures = Extern.signatures) ?cache ~arch ~bytes_len image =
  reconstruct ~pid ~seed ~trusted ~extern_signatures ?cache ~arch ~bytes_len
    image
    ~verify:(fun () -> Wire.verify image)
    ~heap:(fun () ->
      Heap.restore ~cells:image.Wire.i_cells
        ~ptable_snapshot:image.Wire.i_ptable)

let unpack_landed ?(pid = 0) ?(seed = 42) ?(trusted = false)
    ?(extern_signatures = Extern.signatures) ?cache ~arch ~bytes_len
    (landed : Wire.landed) =
  let image = landed.Wire.l_image in
  reconstruct ~pid ~seed ~trusted ~extern_signatures ?cache ~arch ~bytes_len
    image
    ~verify:(fun () -> Wire.verify_landed landed)
    ~heap:(fun () ->
      Heap.adopt ~store:landed.Wire.l_store ~used:landed.Wire.l_cells
        ~ptable_snapshot:image.Wire.i_ptable)

(* Nothing keeps a decoded packet, so its heap adopts the store. *)
let unpack ?pid ?seed ?trusted ?extern_signatures ?cache ~arch bytes =
  match Wire.decode_arrival bytes with
  | Wire.Landed landed ->
    unpack_landed ?pid ?seed ?trusted ?extern_signatures ?cache ~arch
      ~bytes_len:(String.length bytes) landed
  | Wire.Patch _ ->
    Error "corrupt image: delta packet where a full image was expected"
  | exception Wire.Corrupt msg -> Error ("corrupt image: " ^ msg)
