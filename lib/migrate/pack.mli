(** Pack and unpack: capturing and reconstructing whole-process state
    (paper, Section 4.2.2).

    Packing stores the live variables into a fresh [migrate_env] block,
    garbage-collects, and snapshots code + tables + heap + speculation
    state.  Unpacking structurally verifies the image, re-typechecks the
    FIR (unless trusted), rebuilds the heap, validates the resume
    arguments against the continuation's signature, and recompiles for
    the local architecture — or takes the binary fast path for a trusted
    same-architecture image. *)

open Vm

exception Unpack_error of string

type packed = {
  p_image : Wire.image;
  p_bytes : string;  (** the encoded full image: what travels cold *)
  p_digest : string;
      (** {!Wire.image_digest} of [p_image], computed at pack time so
          {!delta} and the sender's baseline bookkeeping need not hash
          the image again *)
  p_dirty : Runtime.Heap.dirty_snapshot;
      (** (pointer-table index, page) pairs written since the PREVIOUS
          pack of this process — the change set {!delta} may ship, read
          with {!Runtime.Heap.page_dirty} *)
}

type unpack_costs = {
  u_bytes : int;
  u_verified : bool;
  u_recompiled : bool;
  u_cache_hit : bool;
      (** typecheck + codegen served from the recompilation cache *)
  u_compile_cycles : int;
    (** simulated recompile+link cycles (link only on the fast path or a
        cache hit) *)
}

val pack :
  ?with_binary:bool ->
  ?epoch:int ->
  ?dspec:Wire.dspec_ctx ->
  Process.t ->
  entry:string -> args:Runtime.Value.t list -> label:int ->
  packed
(** [with_binary] (default true) attaches the compiled MASM payload for
    the same-architecture fast path; FIR-only images force recompilation
    everywhere (the paper's untrusted WAN setting).  [epoch] (default 0)
    stamps the image with the process's rank incarnation epoch, carried
    on hops and checkpoints for fencing.  [dspec] carries the open
    distributed transaction the process coordinates, if any. *)

val pack_request :
  ?with_binary:bool -> ?epoch:int -> ?dspec:Wire.dspec_ctx ->
  Process.t -> packed
(** Pack a process stopped at a migration request.
    @raise Invalid_argument if the process is not [Migrating]. *)

val pack_running :
  ?with_binary:bool -> ?epoch:int -> ?dspec:Wire.dspec_ctx ->
  Process.t -> packed
(** Pack a RUNNING process between basic blocks without its cooperation —
    the CPS continuation is the complete live state, so every inter-step
    boundary is a safe migration point.  The basis for transparent load
    balancing (paper, Sections 4.2.1 and 7).
    @raise Invalid_argument if the process is not [Running]. *)

val delta :
  baseline:Wire.image -> base_digest:string -> packed ->
  (string * Wire.dstats) option
(** Encode a freshly-packed process as a delta against [baseline]
    (identified on the wire by [base_digest], its {!Wire.image_digest}),
    shipping only the pages its dirty set marks.  The baseline may come
    from another architecture (the heap image is architecture-
    independent).  [None] when a delta is impossible (different FIR
    payload); whether a possible delta is worth sending is the caller's
    policy. *)

val admit :
  ?trusted:bool -> ?extern_signatures:Fir.Typecheck.extern_lookup ->
  ?cache:Codecache.t -> arch:Arch.t -> digest:string -> string ->
  (int, string) result
(** Admit a FIR payload on its own, ahead of any image: decode, strict
    typecheck unless [trusted], codegen and closure-compile for [arch],
    and add the verdict to [cache] under [digest] — a rejection as a
    negative entry.  The same code path as {!unpack_image}'s cache miss
    (a payload without a binary).  [digest] must be the
    {!Fir.Digest.of_encoded} of the payload, recomputed by the caller
    over the bytes it received.  Returns the simulated compile cycles
    (codegen plus link), or the rejection. *)

val unpack :
  ?pid:int -> ?seed:int -> ?trusted:bool ->
  ?extern_signatures:Fir.Typecheck.extern_lookup ->
  ?cache:Codecache.t ->
  arch:Arch.t -> string ->
  (Process.t * Masm.image * Compile.image * unpack_costs, string) result
(** Verify and reconstruct a process from image bytes.  [trusted] skips
    verification and enables the binary fast path;
    [extern_signatures] extends the strict typecheck with the host
    environment's externs.  [cache] is the destination node's
    recompilation cache: it is consulted only after the wire layer has
    recomputed the digest over the received bytes and after the
    per-image structural heap verification; a hit elides FIR decode,
    typecheck and codegen (charging link cycles only), a miss runs the
    full pipeline and populates the cache.  The returned
    {!Compile.image} is the closure-compiled form of the returned code
    (embedding its pre-resolved {!Link.image}) — on a cache hit it is
    the entry's cached one, so repeated migrations of the same program
    never re-link or re-compile: warm hops resume straight into compiled
    code. *)

val unpack_image :
  ?pid:int -> ?seed:int -> ?trusted:bool ->
  ?extern_signatures:Fir.Typecheck.extern_lookup ->
  ?cache:Codecache.t ->
  arch:Arch.t -> bytes_len:int -> Wire.image ->
  (Process.t * Masm.image * Compile.image * unpack_costs, string) result
(** As {!unpack}, from an already-decoded image the caller may keep (a
    resurrection keeps the replayed checkpoint as its baseline): the
    heap is a copy of its cells ({!Runtime.Heap.restore}).  [bytes_len]
    is the on-the-wire size charged to [u_bytes]. *)

val unpack_landed :
  ?pid:int -> ?seed:int -> ?trusted:bool ->
  ?extern_signatures:Fir.Typecheck.extern_lookup ->
  ?cache:Codecache.t ->
  arch:Arch.t -> bytes_len:int -> Wire.landed ->
  (Process.t * Masm.image * Compile.image * unpack_costs, string) result
(** As {!unpack_image}, from an image received straight into a heap
    store ({!Wire.decode_arrival}, {!Wire.land_delta}): the same checks
    run over that store, and the heap adopts it without a copy
    ({!Runtime.Heap.adopt}).  {!unpack} and {!Server.handle} take this
    path. *)
