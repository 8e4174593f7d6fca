(** The architecture-independent process image format (paper, Section
    4.2): FIR code, function table (name order preserved), pointer table
    (index order preserved), raw heap cells under standard byte-order
    rules, speculation snapshot, and the resume point (migrate_env index,
    continuation name, migration label).  An optional MASM payload rides
    along for the trusted same-architecture fast path.

    v7 adds a second packet kind: a {e delta} names a previously-shipped
    baseline image by content digest and carries only the heap blocks
    (and within a block, only the {!Runtime.Heap.dirty_page_cells}-cell
    pages) written since that baseline was packed.  The FIR, MASM and
    function table never travel again on a warm path.  Heap segments use
    zigzag-varint integers and run-length cell runs in both kinds.

    v8 appends the rank incarnation epoch to both packet kinds:
    resurrection bumps it, migration hops and checkpoint writes carry
    it, and the cluster rejects stale-epoch traffic (fencing).  The
    epoch is incarnation metadata, excluded from {!image_digest}.

    v9 appends the optional distributed-speculation context to both
    packet kinds: a migrating coordinator's open transaction travels
    with it (transaction id, root level's snapshot position, service
    laddr, participant epoch pins), so the destination re-registers the
    rebound process with the cluster's transaction table.  Like the
    epoch, it is metadata excluded from {!image_digest}.

    v10 leaves every packet byte of v9 in place except the version
    stamp, and redefines {!image_digest} (which deltas carry as
    [d_base] and [d_new_digest]): heap cells are hashed directly as
    64-bit words instead of through their serialization.  It also lets
    a delta cross architectures: {!apply_delta} takes the image's
    architecture from the delta.

    {!verify} applies the structural safety checks a migration target
    runs before trusting a received heap. *)

open Runtime

exception Corrupt of string

type dspec_ctx = {
  x_txn : int;  (** transaction id in the cluster's table *)
  x_root : int;
      (** index of the transaction's root level in [i_spec], oldest
          first (stable level uids are engine-local and do not survive
          restore; snapshot order does) *)
  x_coord_laddr : int;
      (** logical address of the coordinating service, [-1] if none *)
  x_parts : (int * int) list;  (** participant (rank, epoch) pins *)
}

type image = {
  i_arch : string;
  i_digest : string;
      (** {!Fir.Digest} of [i_fir]; {!decode} recomputes it over the
          received bytes and rejects mismatches (integrity metadata — it
          never substitutes for verification) *)
  i_fir : string;  (** {!Fir.Serial} encoding of the program *)
  i_masm : string option;
  i_ftable : string list;
  i_ptable : int array;
  i_cells : Value.t array;
  i_spec : Spec.Engine.snapshot_level list;
  i_menv : int;  (** pointer-table index of the migrate_env block *)
  i_entry : string;
  i_label : int;
  i_epoch : int;
      (** rank incarnation epoch; bumped on every resurrection, [0] for
          processes with no rank *)
  i_dspec : dspec_ctx option;
      (** distributed-speculation context, present while the process
          coordinates an open transaction *)
}

val encode : image -> string
(** A full packet: checksummed, versioned, little-endian regardless of
    the source architecture.  Full and delta packets are written by
    {!Fir.Serial}'s writer, which fills a single byte buffer (frame
    header reserved in front, filled in once the body's checksum is
    known) and copies it once. *)

val decode : string -> image
(** @raise Corrupt on bad magic/version/checksum/truncation, bytes after
    the frame, or if the bytes hold a delta packet rather than a full
    image. *)

val verify : image -> unit
(** Structural verification: the block chain tiles the heap exactly,
    pointer-table entries target their own blocks, reference and function
    cells are in range, speculation records reference valid blocks, and
    migrate_env is live.
    @raise Corrupt on any violation. *)

(** {2 Delta images}

    A delta is valid against exactly one baseline, named by
    {!image_digest}.  Reconstruction ({!apply_delta}) inherits the
    baseline's FIR and function table (and its MASM when both were
    packed on one architecture), and is digest-verified
    against the sender's post-mutation digest — any disagreement (stale
    baseline, corrupt dirty tracking) raises, and the caller falls back
    to a full image. *)

type dblock =
  | Dcopy of int
      (** unchanged since the baseline: reuse its block verbatim *)
  | Dlit of { idx : int; tag : int; cells : Value.t array }
      (** new block, or one whose tag/size changed: full payload *)
  | Dpatch of { idx : int; ranges : (int * Value.t array) list }
      (** same shape as the baseline block: overwrite (offset, cells)
          ranges covering the dirty pages *)

type delta = {
  d_arch : string;
  d_base : string;  (** {!image_digest} of the baseline this patches *)
  d_fir_digest : string;  (** must equal the baseline's [i_digest] *)
  d_new_digest : string;  (** {!image_digest} of the reconstruction *)
  d_ptable : int array;
  d_blocks : dblock list;  (** new heap's blocks, in chain order *)
  d_spec : Spec.Engine.snapshot_level list;
  d_menv : int;
  d_entry : string;
  d_label : int;
  d_epoch : int;  (** incarnation epoch of the reconstruction *)
  d_dspec : dspec_ctx option;
      (** transaction context of the reconstruction *)
}

type packet = Full of image | Delta of delta

type dstats = {
  ds_blocks : int;
  ds_copy : int;
  ds_patch : int;
  ds_lit : int;
  ds_shipped_cells : int;  (** data cells that travel in the delta *)
  ds_total_cells : int;  (** data cells in the new image *)
}

val image_digest : image -> string
(** Content address of the image's semantic payload, as 16 hex
    characters: architecture, FIR digest, function table, pointer
    table, cell count, every heap cell, speculation snapshot,
    migrate_env index, entry and label.  It excludes the raw FIR bytes
    (the FIR digest already names them), the MASM payload (delta
    reconstruction inherits it from the baseline), the incarnation
    epoch and the distributed-speculation context (metadata: two
    incarnations of the same state share a baseline digest), so sender
    and receiver agree on digests for reconstructed images.

    The fields other than the cells are encoded as in a packet and fed to
    FNV-1a.  The cells are hashed as 64-bit words with no intermediate
    buffer: each cell gives a tag word and then the fixed number of
    payload words its tag implies (a float gives its IEEE bit pattern,
    so -0.0 and 0.0 differ and NaNs with one pattern agree, as in
    {!cell_equal}), folded by a multiply-xor step.  Because the cell
    count precedes the cells and each tag fixes its cell's length, the
    word stream is prefix-free: images that differ in a digested field
    hash different streams. *)

val diff :
  baseline:image -> image:image -> changed:(int -> int -> bool) ->
  dblock list * dstats
(** [diff ~baseline ~image ~changed] computes the block list shipping
    [image] against [baseline]; [changed idx page] is the heap's dirty
    tracking (a [false] answer asserts the page is byte-identical to the
    baseline). *)

val apply_delta : baseline:image -> delta -> image
(** Rebuild the image [delta] describes.  Its architecture is
    [d_arch]; when that differs from the baseline's, the baseline's
    MASM payload is dropped rather than inherited.
    @raise Corrupt if the delta does not match the baseline (FIR digest
    / a block absent from it / a patch range overrunning its block), a
    literal block has a bad tag, or the digest recomputed over the
    reconstruction disagrees with [d_new_digest]. *)

val encode_delta : delta -> string

val decode_packet : string -> packet
(** Either packet kind. @raise Corrupt as {!decode}. *)

(** {2 The warm-hop paths}

    The functions above are the reference codec.  A sender and a
    migration server use the two below instead, which produce the same
    bytes, digests and checks with fewer walks and copies of the heap. *)

val capture :
  image -> store:Value.t array -> ncells:int -> image * string * string
(** [capture image ~store ~ncells] is [image] with its cells replaced by
    a fresh copy of [store]'s first [ncells] cells, together with that
    image's {!encode} bytes and its {!image_digest}.  One walk over
    [store] copies, hashes and sizes the cells, and the packet is
    written into a buffer of exactly its length.  [image]'s own
    [i_cells] is ignored. *)

type landed = {
  l_image : image;  (** every field but the cells: [i_cells] is empty *)
  l_store : Value.t array;
      (** the cells, then {!Runtime.Heap.restore_slack} unit cells: a
          store {!Runtime.Heap.adopt} takes without copying *)
  l_cells : int;  (** how many of [l_store]'s cells are the image's *)
}
(** An image received straight into the store of the heap that will run
    it.  Whoever adopts [l_store] owns it: nothing else may keep it. *)

type arrival = Landed of landed | Patch of delta

val decode_arrival : string -> arrival
(** {!decode_packet}, with a full image's cells decoded into a store
    with the restore slack.  @raise Corrupt as {!decode}. *)

val land_delta : baseline:image -> delta -> landed
(** {!apply_delta}, rebuilt straight into a store with the restore
    slack; the digest is recomputed over the store's image cells.
    [baseline] is only read.  @raise Corrupt as {!apply_delta}. *)

val verify_landed : landed -> unit
(** {!verify} of the image in a landed store.  @raise Corrupt as
    {!verify}. *)

(** {2 Cell codec (shared with tests)} *)

val encode_value : Value.t -> string
(** One cell as a heap segment writes it (tag, then payload).  Test
    introspection, as are {!get_value} and {!cell_equal}: the codec
    tests pin the cell encoding through them. *)

val get_value : Fir.Serial.reader -> Value.t
val cell_equal : Value.t -> Value.t -> bool
(** Bit-exact: floats compare by IEEE bit pattern (-0.0 ≠ 0.0, NaN =
    itself), matching what the wire transports. *)
