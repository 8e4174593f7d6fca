(* The architecture-independent process image format (paper, Section 4.2).

   A packed process contains, in order: the FIR code, the function table
   (name order preserved), the pointer table snapshot (index order
   preserved — Section 4.2.2), the raw heap cells under standard encoding
   rules, the speculation snapshot, and the resume point (the migrate_env
   block index, the continuation function name, and the migration label).
   An optional MASM payload rides along for the same-architecture binary
   fast path; heterogeneous targets ignore it and recompile from FIR.

   All integers are little-endian regardless of the (simulated) source
   architecture's endianness or word size: this is the "standard byte
   ordering and alignment rules on heap data" that make cross-architecture
   migration possible without guessing at C data layouts.

   Packets are written with {!Fir.Serial}'s writer, the one that writes
   FIR and MASM too, and read with its readers; they share the FIR frame
   (magic, version, Adler-32, body length). *)

open Runtime
open Fir.Serial

exception Corrupt = Fir.Serial.Corrupt

let magic = "MPRC"

(* v7: two packet kinds share the frame.  A FULL packet is the complete
   image (as in v6, but with varint/run-length heap segments).  A DELTA
   packet names a baseline image by content digest and carries only the
   blocks that changed since that baseline was packed; the FIR, MASM and
   function table never travel again.  v8 appends the rank incarnation
   epoch to both kinds: resurrection bumps it, hops and checkpoints
   carry it, and the cluster fences stale incarnations on it.  v9
   appends the optional distributed-speculation context: when the
   migrating process coordinates an open distributed transaction, the
   transaction id, the root level's position in the speculation
   snapshot, the coordinating service's logical address and the
   participant (rank, epoch) set travel with the image so the
   destination can re-register the rebound coordinator.  v10 keeps every
   packet byte of v9 but redefines [image_digest], which deltas carry:
   heap cells are hashed as words instead of as their serialization.
   [decode] recomputes the FIR digest over the received bytes of a full
   packet and rejects mismatches, so anything downstream — the
   recompilation cache in particular — can rely on the digest naming
   exactly the bytes that arrived.  Digests are integrity metadata only;
   they never stand in for verification or typechecking. *)
let version = 10

let kind_full = 0
let kind_delta = 1

(* The distributed-speculation context of a migrating coordinator (v9):
   enough for the destination to re-register the process — under its new
   pid and translated level uids — with the cluster-global transaction
   table.  [x_root] is the root level's position in [i_spec] (oldest
   first): stable level UIDS are engine-local and do not survive
   restore, but snapshot order does. *)
type dspec_ctx = {
  x_txn : int; (* transaction id in the cluster's table *)
  x_root : int; (* index of the root level in i_spec, oldest first *)
  x_coord_laddr : int; (* coordinating service's laddr, -1 if none *)
  x_parts : (int * int) list; (* participant (rank, epoch) pins *)
}

type image = {
  i_arch : string; (* source architecture name *)
  i_digest : string; (* Fir.Digest of i_fir, recomputed on receipt *)
  i_fir : string; (* Fir.Serial encoding of the program *)
  i_masm : string option; (* binary payload for the same-arch fast path *)
  i_ftable : string list;
  i_ptable : int array;
  i_cells : Value.t array;
  i_spec : Spec.Engine.snapshot_level list;
  i_menv : int; (* pointer-table index of the migrate_env block *)
  i_entry : string; (* continuation function *)
  i_label : int; (* migration label *)
  i_epoch : int;
      (* rank incarnation epoch (v8): bumped on every resurrection and
         carried on hops and checkpoints so stale incarnations can be
         fenced; 0 for processes with no rank *)
  i_dspec : dspec_ctx option;
      (* distributed-speculation context (v9): present while the process
         coordinates an open transaction *)
}

(* ------------------------------------------------------------------ *)
(* Value cells                                                         *)
(* ------------------------------------------------------------------ *)

(* Integers dominate heap segments (block headers, counters, enum
   payloads), and most are small: zigzag varints where v6 spent fixed
   eight-byte words. *)
let put_value w = function
  | Value.Vunit -> put_u8 w 0
  | Value.Vint n ->
    put_u8 w 1;
    put_varint w n
  | Value.Vfloat f ->
    put_u8 w 2;
    put_f64_bits w f
  | Value.Vbool b ->
    put_u8 w 3;
    put_bool w b
  | Value.Venum (c, v) ->
    put_u8 w 4;
    put_varint w c;
    put_varint w v
  | Value.Vptr (i, o) ->
    put_u8 w 5;
    put_varint w i;
    put_varint w o
  | Value.Vfun f ->
    put_u8 w 6;
    put_varint w f

let encode_value v =
  let w = writer 16 in
  put_value w v;
  contents w

let get_value r =
  match get_u8 r with
  | 0 -> Value.Vunit
  | 1 -> Value.Vint (get_varint r)
  | 2 -> Value.Vfloat (get_f64_bits r)
  | 3 -> Value.Vbool (get_bool r)
  | 4 ->
    let c = get_varint r in
    let v = get_varint r in
    Value.Venum (c, v)
  | 5 ->
    let i = get_varint r in
    let o = get_varint r in
    Value.Vptr (i, o)
  | 6 -> Value.Vfun (get_varint r)
  | n -> raise (Corrupt (Printf.sprintf "bad value tag %d" n))

(* Bit-exact cell equality.  Stdlib polymorphic equality is wrong for
   floats here: it conflates -0.0 with 0.0 (distinct bit patterns that
   must survive a round trip byte-identically) and makes NaN unequal to
   itself (which would break every run containing one).  [Value.equal]
   compares the transported representation, one constructor at a
   time. *)
let cell_equal = Value.equal

(* [cell_equal], with the common unequal floats told apart by a float
   comparison rather than two bit-pattern loads: IEEE-equal floats have
   one bit pattern unless they are zeros, and only NaNs are unequal to
   themselves. *)
let[@inline] same_cell a b =
  match a, b with
  | Value.Vfloat x, Value.Vfloat y ->
    if x = y then
      x <> 0.0
      || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    else
      x <> x && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Vint x, Value.Vint y -> x = y
  | _ -> cell_equal a b

(* One run: uvarint count, then the cell once.  Float cells, the common
   wide case, are stored straight into the buffer. *)
let put_run w v count =
  put_uvarint w count;
  match v with
  | Value.Vfloat x ->
    room w 9;
    Bytes.unsafe_set w.buf w.pos '\002';
    Bytes.set_int64_le w.buf (w.pos + 1) (Int64.bits_of_float x);
    w.pos <- w.pos + 9
  | _ -> put_value w v

(* Run-length heap segments: maximal runs of [cell_equal] cells.
   Initialised arrays and freshly-zeroed pages collapse to a few bytes;
   the worst case (no two adjacent cells equal) costs one extra byte per
   cell, which the varint integer encoding more than buys back. *)
let put_cells w cells lo len =
  let hi = lo + len in
  let start = ref lo in
  for i = lo + 1 to hi - 1 do
    if not (same_cell (Array.unsafe_get cells !start) (Array.unsafe_get cells i))
    then begin
      put_run w (Array.unsafe_get cells !start) (i - !start);
      start := i
    end
  done;
  if len > 0 then put_run w (Array.unsafe_get cells !start) (hi - !start)

let get_cells r dst lo len =
  let i = ref lo in
  let hi = lo + len in
  while !i < hi do
    let run = get_uvarint r in
    if run <= 0 || !i + run > hi then
      raise (Corrupt "bad heap-segment run length");
    let v = get_value r in
    Array.fill dst !i run v;
    i := !i + run
  done

let put_ptable w ptable =
  put_uvarint w (Array.length ptable);
  Array.iter (put_varint w) ptable

let get_ptable r =
  let n = get_uvarint r in
  if n > 100_000_000 then raise (Corrupt "bad pointer-table size");
  Array.init n (fun _ -> get_varint r)

let put_spec_level w (s : Spec.Engine.snapshot_level) =
  put_string w s.Spec.Engine.s_entry;
  put_list w put_value s.Spec.Engine.s_args;
  put_list w
    (fun w (idx, addr) ->
      put_varint w idx;
      put_varint w addr)
    s.Spec.Engine.s_saved

let get_spec_level r =
  let s_entry = get_string r in
  let s_args = get_list r get_value in
  let s_saved =
    get_list r (fun r ->
        let idx = get_varint r in
        let addr = get_varint r in
        idx, addr)
  in
  { Spec.Engine.s_entry; s_args; s_saved }

let put_dspec w = function
  | None -> put_u8 w 0
  | Some c ->
    put_u8 w 1;
    put_varint w c.x_txn;
    put_varint w c.x_root;
    put_varint w c.x_coord_laddr;
    put_list w
      (fun w (r, e) ->
        put_varint w r;
        put_varint w e)
      c.x_parts

let get_dspec r =
  match get_u8 r with
  | 0 -> None
  | 1 ->
    let x_txn = get_varint r in
    let x_root = get_varint r in
    let x_coord_laddr = get_varint r in
    let x_parts =
      get_list r (fun r ->
          let rank = get_varint r in
          let epoch = get_varint r in
          rank, epoch)
    in
    if x_txn < 0 || x_root < 0 then
      raise (Corrupt "bad distributed-speculation context");
    Some { x_txn; x_root; x_coord_laddr; x_parts }
  | n -> raise (Corrupt (Printf.sprintf "bad dspec flag %d" n))

(* ------------------------------------------------------------------ *)
(* Image content digest                                                *)
(* ------------------------------------------------------------------ *)

(* Content address of an image's SEMANTIC payload: architecture, FIR
   digest, function table, pointer table, heap cells, speculation
   snapshot and resume point.  Deliberately excludes the raw FIR bytes
   (the digest already names them) and the MASM payload (a delta-
   reconstructed image inherits the baseline's binary, which may differ
   from what the sender would have attached) — so sender and receiver
   compute identical digests for semantically identical images.
   i_epoch and i_dspec are deliberately excluded too: they are
   incarnation and transaction METADATA, not semantic payload — two
   incarnations of the same state must share a baseline digest so delta
   negotiation still works across a resurrection, and opening a
   transaction must not invalidate a retained baseline.

   v10 hashes the heap cells themselves rather than their serialization.
   The small fields (everything but the cells, the cell count included)
   are written as a packet writes them and fed to FNV-1a; the cells
   then fold in as 64-bit words, one tag word per cell followed
   by the fixed number of payload words its tag implies (floats by IEEE
   bit pattern, as [cell_equal] compares them).  The metadata encoding is
   self-delimiting, the count fixes how many cells follow, and each tag
   fixes its cell's length, so the word stream is prefix-free: two images
   that differ in any digested field feed different streams. *)

(* The fold step: xor the word in, multiply by an odd constant (carries
   spread each bit upward), then xor the high half down so later
   multiplies carry the high bits back into the low ones. *)
let[@inline] fold h w =
  let h = Int64.mul (Int64.logxor h w) 0x9e3779b97f4a7c15L in
  Int64.logxor h (Int64.shift_right_logical h 32)

(* One cell's words; the tag words are [put_value]'s tag bytes. *)
let[@inline] fold_value h = function
  | Value.Vunit -> fold h 0L
  | Value.Vint n -> fold (fold h 1L) (Int64.of_int n)
  | Value.Vfloat f -> fold (fold h 2L) (Int64.bits_of_float f)
  | Value.Vbool b -> fold (fold h 3L) (if b then 1L else 0L)
  | Value.Venum (c, v) ->
    fold (fold (fold h 4L) (Int64.of_int c)) (Int64.of_int v)
  | Value.Vptr (i, o) ->
    fold (fold (fold h 5L) (Int64.of_int i)) (Int64.of_int o)
  | Value.Vfun f -> fold (fold h 6L) (Int64.of_int f)

(* The heap cells are the first [ncells] of [cells]: an image's own
   array, or a received store with room after them. *)
let digest_cells image cells ncells =
  let w = writer (256 + (2 * Array.length image.i_ptable)) in
  put_string w image.i_arch;
  put_string w image.i_digest;
  put_list w put_string image.i_ftable;
  put_ptable w image.i_ptable;
  put_uvarint w ncells;
  put_list w put_spec_level image.i_spec;
  put_varint w image.i_menv;
  put_string w image.i_entry;
  put_varint w image.i_label;
  let small = contents w in
  let h = ref (fnv_feed fnv_basis small ~off:0 ~len:(String.length small)) in
  for i = 0 to ncells - 1 do
    h := fold_value !h (Array.unsafe_get cells i)
  done;
  fnv_hex !h

let image_digest image =
  digest_cells image image.i_cells (Array.length image.i_cells)

(* ------------------------------------------------------------------ *)
(* Delta images                                                        *)
(* ------------------------------------------------------------------ *)

(* One entry per block of the NEW heap, in block-chain order; the
   receiver rebuilds the cell array by appending them.  [Dcopy] and
   [Dpatch] pull the block's bytes out of the named baseline image, so
   only genuinely-dirty ranges travel. *)
type dblock =
  | Dcopy of int  (* unchanged: baseline block for this index, verbatim *)
  | Dlit of { idx : int; tag : int; cells : Value.t array }
      (* new or reshaped block: full payload *)
  | Dpatch of { idx : int; ranges : (int * Value.t array) list }
      (* same shape as baseline: overwrite (offset, cells) ranges *)

type delta = {
  d_arch : string;
  d_base : string; (* image_digest of the baseline this patches *)
  d_fir_digest : string; (* must equal the baseline's i_digest *)
  d_new_digest : string; (* image_digest of the reconstruction *)
  d_ptable : int array;
  d_blocks : dblock list;
  d_spec : Spec.Engine.snapshot_level list;
  d_menv : int;
  d_entry : string;
  d_label : int;
  d_epoch : int; (* incarnation epoch of the reconstruction *)
  d_dspec : dspec_ctx option; (* transaction context of the reconstruction *)
}

type packet = Full of image | Delta of delta

type dstats = {
  ds_blocks : int;
  ds_copy : int;
  ds_patch : int;
  ds_lit : int;
  ds_shipped_cells : int; (* data cells that travel in the delta *)
  ds_total_cells : int; (* data cells in the new image *)
}

(* Block map of an image: pointer-table index -> (addr, tag code, size).
   Indices are unique within a well-formed image (verify checks this);
   building the map does not require a verified image, only a tiling
   block chain, which the walk itself checks. *)
let block_map image =
  let ncells = Array.length image.i_cells in
  let header_at addr k =
    match image.i_cells.(addr + k) with
    | Value.Vint n -> n
    | _ -> raise (Corrupt "non-integer block header cell")
  in
  let map = Hashtbl.create 256 in
  let addr = ref 0 in
  while !addr < ncells do
    if !addr + Heap.header_cells > ncells then
      raise (Corrupt "truncated block header");
    let size = header_at !addr Heap.h_size in
    let idx = header_at !addr Heap.h_index in
    let tag = header_at !addr Heap.h_tag in
    if size < 0 || !addr + Heap.header_cells + size > ncells then
      raise (Corrupt "block overruns heap");
    Hashtbl.replace map idx (!addr, tag, size);
    addr := !addr + Heap.header_cells + size
  done;
  if !addr <> ncells then raise (Corrupt "block chain does not tile heap");
  map

(* Compute the delta between [baseline] and [image].  [changed idx page]
   reports whether the heap's dirty tracking saw a write to that
   {!Heap.dirty_page_cells}-cell page of the block at pointer-table index
   [idx] since [baseline] was packed (see Heap: a clean page is
   guaranteed identical to the baseline).  Blocks whose index is absent
   from the baseline, or whose tag or size differ, ship in full. *)
let diff ~baseline ~image ~changed =
  let base = block_map baseline in
  let blocks = ref [] in
  let copy = ref 0 and patch = ref 0 and lit = ref 0 in
  let shipped = ref 0 and total = ref 0 in
  let ncells = Array.length image.i_cells in
  let header_at addr k =
    match image.i_cells.(addr + k) with
    | Value.Vint n -> n
    | _ -> raise (Corrupt "non-integer block header cell")
  in
  let addr = ref 0 in
  while !addr < ncells do
    if !addr + Heap.header_cells > ncells then
      raise (Corrupt "truncated block header");
    let size = header_at !addr Heap.h_size in
    let idx = header_at !addr Heap.h_index in
    let tag = header_at !addr Heap.h_tag in
    if size < 0 || !addr + Heap.header_cells + size > ncells then
      raise (Corrupt "block overruns heap");
    total := !total + size;
    let data = !addr + Heap.header_cells in
    (match Hashtbl.find_opt base idx with
    | Some (_, btag, bsize) when btag = tag && bsize = size ->
      (* same shape: collect maximal runs of contiguous dirty pages *)
      let npages = Heap.pages_of_size size in
      let ranges = ref [] in
      let p = ref 0 in
      while !p < npages do
        if changed idx !p then begin
          let q = ref (!p + 1) in
          while !q < npages && changed idx !q do
            incr q
          done;
          let off = !p * Heap.dirty_page_cells in
          let len = min (!q * Heap.dirty_page_cells) size - off in
          ranges := (off, Array.sub image.i_cells (data + off) len) :: !ranges;
          shipped := !shipped + len;
          p := !q
        end
        else incr p
      done;
      if !ranges = [] then begin
        blocks := Dcopy idx :: !blocks;
        incr copy
      end
      else begin
        blocks := Dpatch { idx; ranges = List.rev !ranges } :: !blocks;
        incr patch
      end
    | Some _ | None ->
      blocks :=
        Dlit { idx; tag; cells = Array.sub image.i_cells data size }
        :: !blocks;
      shipped := !shipped + size;
      incr lit);
    addr := !addr + Heap.header_cells + size
  done;
  if !addr <> ncells then raise (Corrupt "block chain does not tile heap");
  ( List.rev !blocks,
    {
      ds_blocks = !copy + !patch + !lit;
      ds_copy = !copy;
      ds_patch = !patch;
      ds_lit = !lit;
      ds_shipped_cells = !shipped;
      ds_total_cells = !total;
    } )

(* An image received into the store of the heap that will run it: the
   cells are the first [l_cells] of [l_store], which has
   {!Heap.restore_slack} cells after them ({!Heap.adopt} takes it as
   is), and [l_image] carries every other field with no cells of its
   own.  Internally the slack may be 0, and then the store is exactly
   the image's cell array ([image_of_landed]). *)
type landed = { l_image : image; l_store : Value.t array; l_cells : int }

let image_of_landed l = { l.l_image with i_cells = l.l_store }

(* Reconstruct the new image from [baseline] and a delta.  The FIR and
   function table are inherited from the baseline, and so is its MASM
   payload when the delta was packed on the baseline's architecture.  A
   delta packed elsewhere (a heterogeneous bounce: FIR is architecture-
   independent, so a hop can patch a baseline from another machine)
   takes its architecture from [d_arch] and drops the baseline's binary,
   which was compiled for the wrong target.  The rebuilt image's content
   digest must match [d_new_digest] — a mismatch means the sender's dirty
   tracking and our baseline disagree, and the caller must fall back to
   requesting a full image.  The receiver recomputes that digest itself:
   the sender's value is only what the reconstruction is checked
   against.

   Two passes over the block list: the first resolves every block
   against the baseline (rejecting absent indices and bad tags) and sums
   the new heap's size, the second blits baseline blocks and patch
   ranges straight into a store of exactly that size plus [slack]. *)
let rebuild ~slack ~baseline delta =
  if not (String.equal delta.d_fir_digest baseline.i_digest) then
    raise (Corrupt "delta FIR digest does not match baseline");
  let base = block_map baseline in
  let resolve what idx =
    match Hashtbl.find_opt base idx with
    | Some found -> found
    | None ->
      raise (Corrupt ("delta " ^ what ^ " a block absent from baseline"))
  in
  let block_cells = function
    | Dcopy idx ->
      let _, _, size = resolve "copies" idx in
      size
    | Dpatch { idx; _ } ->
      let _, _, size = resolve "patches" idx in
      size
    | Dlit { tag; cells; _ } ->
      (match Heap.tag_of_code tag with
      | _ -> ()
      | exception Heap.Runtime_error _ ->
        raise (Corrupt (Printf.sprintf "delta block has bad tag %d" tag)));
      Array.length cells
  in
  let ncells =
    List.fold_left
      (fun n db -> n + Heap.header_cells + block_cells db)
      0 delta.d_blocks
  in
  let store = Array.make (ncells + slack) Value.Vunit in
  let pos = ref 0 in
  (* collector flags are always clear in an image *)
  let header idx tag size =
    let at = !pos in
    store.(at + Heap.h_index) <- Value.Vint idx;
    store.(at + Heap.h_tag) <- Value.Vint tag;
    store.(at + Heap.h_size) <- Value.Vint size;
    store.(at + Heap.h_flags) <- Value.Vint 0;
    pos := at + Heap.header_cells
  in
  let base_block idx =
    let addr, tag, size = Hashtbl.find base idx in
    header idx tag size;
    Array.blit baseline.i_cells (addr + Heap.header_cells) store !pos size;
    size
  in
  List.iter
    (fun db ->
      match db with
      | Dcopy idx -> pos := !pos + base_block idx
      | Dlit { idx; tag; cells } ->
        let size = Array.length cells in
        header idx tag size;
        Array.blit cells 0 store !pos size;
        pos := !pos + size
      | Dpatch { idx; ranges } ->
        let size = base_block idx in
        List.iter
          (fun (off, cells) ->
            let len = Array.length cells in
            if off < 0 || off + len > size then
              raise (Corrupt "delta patch range overruns block");
            Array.blit cells 0 store (!pos + off) len)
          ranges;
        pos := !pos + size)
    delta.d_blocks;
  let same_arch = String.equal delta.d_arch baseline.i_arch in
  let image =
    {
      baseline with
      i_arch = delta.d_arch;
      i_masm = (if same_arch then baseline.i_masm else None);
      i_ptable = delta.d_ptable;
      i_cells = [||];
      i_spec = delta.d_spec;
      i_menv = delta.d_menv;
      i_entry = delta.d_entry;
      i_label = delta.d_label;
      i_epoch = delta.d_epoch;
      i_dspec = delta.d_dspec;
    }
  in
  if not (String.equal (digest_cells image store ncells) delta.d_new_digest)
  then raise (Corrupt "delta reconstruction digest mismatch");
  { l_image = image; l_store = store; l_cells = ncells }

let apply_delta ~baseline delta =
  image_of_landed (rebuild ~slack:0 ~baseline delta)

let land_delta ~baseline delta =
  rebuild ~slack:Heap.restore_slack ~baseline delta

(* ------------------------------------------------------------------ *)
(* Packet codec                                                        *)
(* ------------------------------------------------------------------ *)

(* Initial size: ten bytes per cell (a run byte, a tag and eight float
   bytes — the cost of a float cell, the widest common case), so the
   largest images are written without regrowing. *)
let encode image =
  let masm_len =
    match image.i_masm with Some m -> String.length m | None -> 0
  in
  let w =
    writer
      (256
      + (10 * Array.length image.i_cells)
      + (2 * Array.length image.i_ptable)
      + String.length image.i_fir + masm_len)
  in
  put_u8 w kind_full;
  put_string w image.i_arch;
  put_string w image.i_digest;
  put_string w image.i_fir;
  (match image.i_masm with
  | None -> put_u8 w 0
  | Some payload ->
    put_u8 w 1;
    put_string w payload);
  put_list w put_string image.i_ftable;
  put_ptable w image.i_ptable;
  put_uvarint w (Array.length image.i_cells);
  put_cells w image.i_cells 0 (Array.length image.i_cells);
  put_list w put_spec_level image.i_spec;
  put_varint w image.i_menv;
  put_string w image.i_entry;
  put_varint w image.i_label;
  put_varint w image.i_epoch;
  put_dspec w image.i_dspec;
  finish w ~magic ~version

(* ------------------------------------------------------------------ *)
(* Capture: the sender's one walk over a live heap                     *)
(* ------------------------------------------------------------------ *)

let uvarint_bytes n =
  let rec go n k = if n lsr 7 = 0 then k else go (n lsr 7) (k + 1) in
  go n 1

let varint_bytes n = uvarint_bytes ((n lsl 1) lxor (n asr 62))

(* What [put_value] writes for one cell. *)
let value_bytes = function
  | Value.Vunit -> 1
  | Value.Vint n | Value.Vfun n -> 1 + varint_bytes n
  | Value.Vfloat _ -> 9
  | Value.Vbool _ -> 2
  | Value.Venum (a, b) | Value.Vptr (a, b) ->
    1 + varint_bytes a + varint_bytes b

(* What [put_run] writes for the run [start, stop) of [cells]. *)
let run_bytes cells start stop =
  uvarint_bytes (stop - start) + value_bytes (Array.unsafe_get cells start)

(* Copy [store]'s first [n] cells into a fresh array, folding each into
   the running digest [h] and summing the bytes [put_cells] writes for
   them, in one walk: runs end where [put_cells] ends them. *)
let capture_cells h store n =
  let snap = Array.make n Value.Vunit in
  let h = ref h and bytes = ref 0 and start = ref 0 in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get store i in
    Array.unsafe_set snap i v;
    h := fold_value !h v;
    if i > !start && not (same_cell (Array.unsafe_get store !start) v) then begin
      bytes := !bytes + run_bytes store !start i;
      start := i
    end
  done;
  if n > 0 then bytes := !bytes + run_bytes store !start n;
  snap, !h, !bytes

let put_raw w s =
  let n = String.length s in
  room w n;
  Bytes.blit_string s 0 w.buf w.pos n;
  w.pos <- w.pos + n

(* [encode] and [image_digest] of [image] with [store]'s first [ncells]
   cells, from one walk over the store: the walk copies the cells,
   hashes them and sizes their run-length stream.  The packet then has
   a known size, so it is written into a buffer of exactly that size
   ({!Fir.Serial.writer} reserves exactly what it is asked for beyond
   64 bytes) and framed without a copy; the cells are written from the
   copy.  The fields around the cells are written once into small
   writers that feed both the digest and the packet.  [image]'s own
   cells are ignored; the result holds the copy. *)
let capture image ~store ~ncells =
  if ncells < 0 || ncells > Array.length store then
    invalid_arg "Wire.capture: more cells than the store holds";
  let head = writer 64 in
  put_string head image.i_arch;
  put_string head image.i_digest;
  let mid = writer (16 + (2 * Array.length image.i_ptable)) in
  put_list mid put_string image.i_ftable;
  put_ptable mid image.i_ptable;
  put_uvarint mid ncells;
  let tail = writer 64 in
  let tail0 = tail.pos in
  put_list tail put_spec_level image.i_spec;
  put_varint tail image.i_menv;
  put_string tail image.i_entry;
  put_varint tail image.i_label;
  (* the digest stops here: the epoch and dspec are metadata *)
  let digested = tail.pos - tail0 in
  put_varint tail image.i_epoch;
  put_dspec tail image.i_dspec;
  let head = contents head and mid = contents mid and tail = contents tail in
  let h = fnv_feed fnv_basis head ~off:0 ~len:(String.length head) in
  let h = fnv_feed h mid ~off:0 ~len:(String.length mid) in
  let h = fnv_feed h tail ~off:0 ~len:digested in
  let cells, h, cell_bytes = capture_cells h store ncells in
  let masm_bytes =
    match image.i_masm with Some m -> 9 + String.length m | None -> 1
  in
  let size =
    1 + String.length head + 8
    + String.length image.i_fir
    + masm_bytes + String.length mid + cell_bytes + String.length tail
  in
  let w = writer size in
  let body = w.pos in
  put_u8 w kind_full;
  put_raw w head;
  put_string w image.i_fir;
  (match image.i_masm with
  | None -> put_u8 w 0
  | Some payload ->
    put_u8 w 1;
    put_string w payload);
  put_raw w mid;
  put_cells w cells 0 ncells;
  put_raw w tail;
  (* the walk sized the stream [put_cells] wrote *)
  assert (w.pos - body = size);
  { image with i_cells = cells }, finish w ~magic ~version, fnv_hex h

(* A full image's body, its cells decoded straight into a store [slack]
   cells longer than the heap. *)
let get_landed ~slack r =
  let i_arch = get_string r in
  let i_digest = get_string r in
  let i_fir = get_string r in
  (* the digest names the FIR content; recompute it over the bytes that
     actually arrived BEFORE anything (the recompilation cache included)
     can key off it *)
  if not (String.equal (Fir.Digest.of_encoded i_fir) i_digest) then
    raise (Corrupt "FIR digest mismatch");
  let i_masm =
    match get_u8 r with
    | 0 -> None
    | 1 -> Some (get_string r)
    | n -> raise (Corrupt (Printf.sprintf "bad masm flag %d" n))
  in
  let i_ftable = get_list r get_string in
  let i_ptable = get_ptable r in
  let ncells = get_uvarint r in
  if ncells > 1_000_000_000 then raise (Corrupt "bad heap size");
  let store = Array.make (ncells + slack) Value.Vunit in
  get_cells r store 0 ncells;
  let i_spec = get_list r get_spec_level in
  let i_menv = get_varint r in
  let i_entry = get_string r in
  let i_label = get_varint r in
  let i_epoch = get_varint r in
  if i_epoch < 0 then raise (Corrupt "negative incarnation epoch");
  let i_dspec = get_dspec r in
  {
    l_image =
      {
        i_arch;
        i_digest;
        i_fir;
        i_masm;
        i_ftable;
        i_ptable;
        i_cells = [||];
        i_spec;
        i_menv;
        i_entry;
        i_label;
        i_epoch;
        i_dspec;
      };
    l_store = store;
    l_cells = ncells;
  }

let put_dblock w = function
  | Dcopy idx ->
    put_u8 w 0;
    put_varint w idx
  | Dlit { idx; tag; cells } ->
    put_u8 w 1;
    put_varint w idx;
    put_u8 w tag;
    put_uvarint w (Array.length cells);
    put_cells w cells 0 (Array.length cells)
  | Dpatch { idx; ranges } ->
    put_u8 w 2;
    put_varint w idx;
    put_uvarint w (List.length ranges);
    List.iter
      (fun (off, cells) ->
        put_uvarint w off;
        put_uvarint w (Array.length cells);
        put_cells w cells 0 (Array.length cells))
      ranges

let get_dblock r =
  match get_u8 r with
  | 0 -> Dcopy (get_varint r)
  | 1 ->
    let idx = get_varint r in
    let tag = get_u8 r in
    let size = get_uvarint r in
    if size > 1_000_000_000 then raise (Corrupt "bad delta block size");
    let cells = Array.make size Value.Vunit in
    get_cells r cells 0 size;
    Dlit { idx; tag; cells }
  | 2 ->
    let idx = get_varint r in
    let nranges = get_uvarint r in
    if nranges > 100_000_000 then raise (Corrupt "bad delta range count");
    let ranges =
      List.init nranges (fun _ ->
          let off = get_uvarint r in
          let len = get_uvarint r in
          if len > 1_000_000_000 then raise (Corrupt "bad delta range length");
          let cells = Array.make len Value.Vunit in
          get_cells r cells 0 len;
          off, cells)
    in
    Dpatch { idx; ranges }
  | n -> raise (Corrupt (Printf.sprintf "bad delta block kind %d" n))

let encode_delta delta =
  let w = writer 8192 in
  put_u8 w kind_delta;
  put_string w delta.d_arch;
  put_string w delta.d_base;
  put_string w delta.d_fir_digest;
  put_string w delta.d_new_digest;
  put_ptable w delta.d_ptable;
  put_uvarint w (List.length delta.d_blocks);
  List.iter (put_dblock w) delta.d_blocks;
  put_list w put_spec_level delta.d_spec;
  put_varint w delta.d_menv;
  put_string w delta.d_entry;
  put_varint w delta.d_label;
  put_varint w delta.d_epoch;
  put_dspec w delta.d_dspec;
  finish w ~magic ~version

let get_delta r =
  let d_arch = get_string r in
  let d_base = get_string r in
  let d_fir_digest = get_string r in
  let d_new_digest = get_string r in
  let d_ptable = get_ptable r in
  let nblocks = get_uvarint r in
  if nblocks > 100_000_000 then raise (Corrupt "bad delta block count");
  let d_blocks = List.init nblocks (fun _ -> get_dblock r) in
  let d_spec = get_list r get_spec_level in
  let d_menv = get_varint r in
  let d_entry = get_string r in
  let d_label = get_varint r in
  let d_epoch = get_varint r in
  if d_epoch < 0 then raise (Corrupt "negative incarnation epoch");
  let d_dspec = get_dspec r in
  {
    d_arch;
    d_base;
    d_fir_digest;
    d_new_digest;
    d_ptable;
    d_blocks;
    d_spec;
    d_menv;
    d_entry;
    d_label;
    d_epoch;
    d_dspec;
  }

type arrival = Landed of landed | Patch of delta

let read_packet ~slack s =
  let r = unframe ~magic ~version ~what:"process-image" s in
  let kind = get_u8 r in
  let packet =
    if kind = kind_full then Landed (get_landed ~slack r)
    else if kind = kind_delta then Patch (get_delta r)
    else raise (Corrupt (Printf.sprintf "bad packet kind %d" kind))
  in
  if r.pos <> String.length s then
    raise (Corrupt "trailing garbage in process image");
  packet

let decode_packet s =
  match read_packet ~slack:0 s with
  | Landed l -> Full (image_of_landed l)
  | Patch d -> Delta d

let decode_arrival s = read_packet ~slack:Heap.restore_slack s

let decode s =
  match decode_packet s with
  | Full image -> image
  | Delta _ -> raise (Corrupt "delta packet where a full image was expected")

(* ------------------------------------------------------------------ *)
(* Structural verification                                             *)
(* ------------------------------------------------------------------ *)

(* The safety checks a migration target applies to a received heap before
   resuming it: the block chain must tile the cell array exactly, every
   pointer-table entry must target a block header carrying its own index,
   every reference cell must point into the table (or be nil), every
   function value must be in the function table, and every speculation
   record must reference a valid block.  Together with the FIR typecheck
   this is what lets mutually untrusting machines exchange processes. *)
let verify_cells image cells ncells =
  let nfuns = List.length image.i_ftable in
  let header_at addr k =
    match cells.(addr + k) with
    | Value.Vint n -> n
    | _ -> raise (Corrupt "non-integer block header cell")
  in
  (* walk the block chain *)
  let starts = Hashtbl.create 256 in
  let addr = ref 0 in
  while !addr < ncells do
    if !addr + Heap.header_cells > ncells then
      raise (Corrupt "truncated block header");
    let size = header_at !addr Heap.h_size in
    let idx = header_at !addr Heap.h_index in
    if size < 0 || !addr + Heap.header_cells + size > ncells then
      raise (Corrupt "block overruns heap");
    ignore (Heap.tag_of_code (header_at !addr Heap.h_tag));
    Hashtbl.replace starts !addr idx;
    addr := !addr + Heap.header_cells + size
  done;
  if !addr <> ncells then raise (Corrupt "block chain does not tile heap");
  (* pointer-table entries target their own blocks *)
  Array.iteri
    (fun idx addr ->
      if addr <> -1 then
        match Hashtbl.find_opt starts addr with
        | Some idx' when idx' = idx -> ()
        | Some _ -> raise (Corrupt "pointer-table entry index mismatch")
        | None -> raise (Corrupt "pointer-table entry not at a block start"))
    image.i_ptable;
  (* reference and function cells *)
  let check_value v =
    match v with
    | Value.Vptr (-1, _) -> () (* nil *)
    | Value.Vptr (i, _) ->
      if i < 0 || i >= Array.length image.i_ptable
         || image.i_ptable.(i) = -1
      then raise (Corrupt "heap cell references an invalid pointer index")
    | Value.Vfun f ->
      if f < 0 || f >= nfuns then
        raise (Corrupt "heap cell references an invalid function index")
    | Value.Vunit | Value.Vint _ | Value.Vfloat _ | Value.Vbool _
    | Value.Venum _ ->
      ()
  in
  Hashtbl.iter
    (fun addr _ ->
      let size = header_at addr Heap.h_size in
      for k = 0 to size - 1 do
        check_value cells.(addr + Heap.header_cells + k)
      done)
    starts;
  (* speculation records reference valid blocks with matching indices *)
  List.iter
    (fun s ->
      List.iter check_value s.Spec.Engine.s_args;
      List.iter
        (fun (idx, addr) ->
          match Hashtbl.find_opt starts addr with
          | Some idx' when idx' = idx -> ()
          | Some _ | None ->
            raise (Corrupt "speculation record references a bad block"))
        s.Spec.Engine.s_saved)
    image.i_spec;
  (* the transaction context's root level must exist in the snapshot *)
  (match image.i_dspec with
  | Some c when c.x_root >= List.length image.i_spec ->
    raise (Corrupt "dspec root index out of range")
  | Some _ | None -> ());
  (* the migrate_env block must be a live pointer-table target *)
  if image.i_menv < 0
     || image.i_menv >= Array.length image.i_ptable
     || image.i_ptable.(image.i_menv) = -1
  then raise (Corrupt "migrate_env index is invalid")

let verify image = verify_cells image image.i_cells (Array.length image.i_cells)
let verify_landed l = verify_cells l.l_image l.l_store l.l_cells
