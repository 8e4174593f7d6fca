(* The MCC heap (paper, Section 4.1).

   The heap is a flat array of cells.  Each memory structure (block) is
   stored contiguously: a 4-cell header followed by the data cells.  The
   header records the block's pointer-table index, its tag, its data size,
   and a flags word used by the collector.  This concrete layout is what
   makes the paper's ">12 bytes per block" bookkeeping overhead real in
   this implementation (4 header cells + a pointer-table entry), and it
   makes compaction a genuine memory move rather than a no-op.

   Blocks are allocated bump-style at [alloc_ptr].  Addresses at or above
   [young_start] form the young generation; minor collections only examine
   that region.  A write barrier records (by pointer-table index, which is
   stable across moves) old blocks into which a young reference was
   stored.

   Copy-on-write for speculation: once a write has passed its bounds
   check, and before it mutates anything, the [before_write] hook fires
   with the block's index; the speculation engine clones the block (via
   [clone_for_cow]) and saves the original's address in the current
   level's checkpoint record.  The original block stays in the heap, no
   longer referenced by the pointer table — exactly the "special blocks"
   of Section 4.1 that are tracked by a checkpoint record.

   [read] and [write] are the hottest runtime calls on every engine
   tier, and dune's dev profile compiles every module [-opaque], so each
   call into another module is an unknown call.  Each therefore does its
   whole fast path in one function body: the pointer table's two checks
   read its entry array directly, then the header's size check, and for
   a write the hook, the barrier test, the dirty mark and the store.
   The fast checks accept exactly the accesses that [addr_of] and
   [check_offset] accept; where one fails, [trap] runs those two, which
   raise what they always raised, before any hook, mark or store.  Only
   the barrier's rare young-into-old case touches a hash table. *)

exception Runtime_error of string

type tag = Tuple | Array | Raw

let tag_code = function Tuple -> 0 | Array -> 1 | Raw -> 2

let tag_of_code = function
  | 0 -> Tuple
  | 1 -> Array
  | 2 -> Raw
  | n -> raise (Runtime_error (Printf.sprintf "bad block tag code %d" n))

let header_cells = 4

(* Header cell offsets. *)
let h_index = 0
let h_tag = 1
let h_size = 2
let h_flags = 3

(* Dirty-block tracking for delta migration (incremental pack): every
   mutation marks the touched page of the touched block, keyed by the
   block's pointer-table INDEX — stable across compaction, so a
   collection needs no fixups beyond dropping freed indices.  Pages are
   sub-block granules so one write into a large array does not force the
   whole array onto the wire.  The set is conservative by construction:
   allocation, copy-on-write cloning and rollback retargeting mark every
   page of the affected block, so "not dirty" always means "identical to
   the last cleared baseline".

   The set is an array indexed by pointer-table index holding one byte
   per page ([Bytes.empty] until the index is first marked after a
   clear), so marking a page is an array load and a byte store, and
   never hashes.  Beside it [dirty_listed] lists every index whose map
   is non-empty, so a clear costs the indices touched, not the table. *)
let dirty_page_cells = 64

type t = {
  mutable store : Value.t array;
  mutable cap : int;
  mutable alloc_ptr : int;
  mutable young_start : int;
  ptable : Pointer_table.t;
  remembered : (int, unit) Hashtbl.t; (* indices of old blocks with young refs *)
  mutable before_write : (int -> unit) option;
  (* ablation knob: with minor collections disabled every collection is a
     full major sweep (used by bench a2 to quantify the generational
     design choice) *)
  mutable minor_enabled : bool;
  mutable dirty : Bytes.t array;
      (* index -> one byte per page, nonzero when written since the last
         [clear_dirty]; [Bytes.empty] when not listed *)
  mutable dirty_listed : int list; (* indices whose map is non-empty *)
}

(* Everything in [0, alloc_ptr) starts in the old generation, and
   nothing is dirty: a restored heap IS the image it was restored from. *)
let make ~store ~cap ~alloc_ptr ~ptable =
  {
    store;
    cap;
    alloc_ptr;
    young_start = alloc_ptr;
    ptable;
    remembered = Hashtbl.create 64;
    before_write = None;
    minor_enabled = true;
    dirty = Array.make (Pointer_table.capacity ptable) Bytes.empty;
    dirty_listed = [];
  }

let create ?(initial_cells = 4096) () =
  let cap = max 64 initial_cells in
  make ~store:(Array.make cap Value.Vunit) ~cap ~alloc_ptr:0
    ~ptable:(Pointer_table.create ())

(* -------------------- dirty-block tracking -------------------- *)

let pages_of_size size = max 1 ((size + dirty_page_cells - 1) / dirty_page_cells)

(* The page map of [idx], sized for a block of [size] data cells.  A map
   stays listed until the next clear, and its length always matches the
   current block of its index: only a reuse of a freed index can change
   the size, and reuse goes through [alloc], which marks the whole block. *)
let dirty_map t idx ~size =
  let n = Array.length t.dirty in
  if idx >= n then begin
    let dirty = Array.make (max (2 * n) (idx + 1)) Bytes.empty in
    Array.blit t.dirty 0 dirty 0 n;
    t.dirty <- dirty
  end;
  let map = t.dirty.(idx) in
  let pages = pages_of_size size in
  if Bytes.length map = pages then map
  else begin
    if Bytes.length map = 0 then t.dirty_listed <- idx :: t.dirty_listed;
    let map = Bytes.make pages '\000' in
    t.dirty.(idx) <- map;
    map
  end

let mark_dirty_block t idx ~size =
  let map = dirty_map t idx ~size in
  Bytes.fill map 0 (Bytes.length map) '\001'

(* A freed index's map is zeroed, not unlisted: it stays listed (and the
   list duplicate-free) until the next clear. *)
let drop_dirty t idx =
  if idx < Array.length t.dirty then begin
    let map = t.dirty.(idx) in
    Bytes.fill map 0 (Bytes.length map) '\000'
  end

let clear_dirty t =
  List.iter (fun idx -> t.dirty.(idx) <- Bytes.empty) t.dirty_listed;
  t.dirty_listed <- []

type dirty_snapshot = Bytes.t array

(* Copy for the pack layer: the snapshot survives the clear that pack
   performs once the image becomes the new baseline, and later marks. *)
let dirty_snapshot t =
  let n = List.fold_left max (-1) t.dirty_listed + 1 in
  let snap = Array.make n Bytes.empty in
  List.iter (fun idx -> snap.(idx) <- Bytes.copy t.dirty.(idx)) t.dirty_listed;
  snap

let page_dirty snap idx page =
  idx >= 0
  && idx < Array.length snap
  && page >= 0
  && page < Bytes.length snap.(idx)
  && Bytes.get snap.(idx) page <> '\000'

let set_minor_enabled t flag = t.minor_enabled <- flag
let pointer_table t = t.ptable
let used_cells t = t.alloc_ptr
let young_cells t = t.alloc_ptr - t.young_start
let set_before_write t hook = t.before_write <- hook

(* Capacity is the GC-pacing number: [needs_major] and the mutator's
   collection policy (Vm.Process.maybe_collect) read it, and it grows by
   doubling exactly as an array length would.  The physical store is a
   separate matter: it grows on demand, by doubling, up to the capacity
   (a restored heap's store may exceed it by the restore slack), so
   raising the capacity allocates nothing. *)
let capacity t = t.cap

let raise_capacity t needed =
  if needed > t.cap then begin
    let cap = ref t.cap in
    while !cap < needed do
      cap := !cap * 2
    done;
    t.cap <- !cap
  end

let ensure_capacity t extra =
  let needed = t.alloc_ptr + extra in
  raise_capacity t needed;
  if needed > Array.length t.store then begin
    let len = ref (Array.length t.store) in
    while !len < needed do
      len := !len * 2
    done;
    let store = Array.make (min !len t.cap) Value.Vunit in
    Array.blit t.store 0 store 0 t.alloc_ptr;
    t.store <- store
  end

(* ------------------------------------------------------------------ *)
(* Header access                                                       *)
(* ------------------------------------------------------------------ *)

let header_int t addr k =
  match t.store.(addr + k) with
  | Value.Vint n -> n
  | v ->
    raise
      (Runtime_error
         (Printf.sprintf "corrupt block header at %d: %s" addr
            (Value.to_string v)))

let block_index_at t addr = header_int t addr h_index
let block_size_at t addr = header_int t addr h_size
let block_tag_at t addr = tag_of_code (header_int t addr h_tag)
let block_flags_at t addr = header_int t addr h_flags
let set_block_flags_at t addr f = t.store.(addr + h_flags) <- Value.Vint f

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let write_header t addr ~index ~tag ~size =
  t.store.(addr + h_index) <- Value.Vint index;
  t.store.(addr + h_tag) <- Value.Vint (tag_code tag);
  t.store.(addr + h_size) <- Value.Vint size;
  t.store.(addr + h_flags) <- Value.Vint 0

let alloc t ~tag ~size ~init =
  if size < 0 then raise (Runtime_error "negative allocation size");
  ensure_capacity t (header_cells + size);
  let addr = t.alloc_ptr in
  t.alloc_ptr <- addr + header_cells + size;
  let idx = Pointer_table.alloc t.ptable addr in
  write_header t addr ~index:idx ~tag ~size;
  Array.fill t.store (addr + header_cells) size init;
  (* a fresh block is dirty by definition — and the index may be a reused
     slot whose baseline content was something else entirely *)
  mark_dirty_block t idx ~size;
  idx

(* Allocate a tuple from an initial cell list. *)
let alloc_tuple t values =
  let idx = alloc t ~tag:Tuple ~size:(List.length values) ~init:Value.Vunit in
  let addr = Pointer_table.get t.ptable idx in
  List.iteri (fun k v -> t.store.(addr + header_cells + k) <- v) values;
  idx

(* Allocate a raw block from a string (one byte per cell). *)
let alloc_raw t s =
  let n = String.length s in
  let idx = alloc t ~tag:Raw ~size:n ~init:(Value.Vint 0) in
  let addr = Pointer_table.get t.ptable idx in
  String.iteri
    (fun k c -> t.store.(addr + header_cells + k) <- Value.Vint (Char.code c))
    s;
  idx

(* ------------------------------------------------------------------ *)
(* Checked access                                                      *)
(* ------------------------------------------------------------------ *)

let addr_of t idx = Pointer_table.get t.ptable idx

let block_size t idx = block_size_at t (addr_of t idx)
let block_tag t idx = block_tag_at t (addr_of t idx)

let check_offset t addr off =
  let size = block_size_at t addr in
  if off < 0 || off >= size then
    raise
      (Runtime_error
         (Printf.sprintf "offset %d out of bounds for block of size %d" off
            size))

(* Where a fast check of [read] or [write] fails, the composed checks
   raise exactly what they always raised (see the header comment). *)
let trap t idx off =
  check_offset t (addr_of t idx) off;
  assert false

let read t idx off =
  let pt = t.ptable in
  if idx >= 0 && idx < pt.Pointer_table.high then begin
    let addr = pt.Pointer_table.entries.(idx) in
    if addr <> Pointer_table.free_marker then
      match t.store.(addr + h_size) with
      | Value.Vint size when off >= 0 && off < size ->
        t.store.(addr + header_cells + off)
      | _ -> trap t idx off
    else trap t idx off
  end
  else trap t idx off

(* The generational write barrier: a young reference stored into an old
   block is remembered (by the old block's stable index) so minor
   collections can find it without scanning the old generation.  [write]
   calls it for a reference [j] stored into the old block [idx]. *)
let barrier t idx j =
  if Pointer_table.is_valid t.ptable j
     && Pointer_table.get t.ptable j >= t.young_start
  then Hashtbl.replace t.remembered idx ()

(* [dirty_map]'s fast path: a listed map always has the length of its
   index's current block (the block at [addr]). *)
let mark_dirty_cell t idx ~addr off =
  let map =
    if idx < Array.length t.dirty && Bytes.length t.dirty.(idx) > 0 then
      t.dirty.(idx)
    else dirty_map t idx ~size:(block_size_at t addr)
  in
  Bytes.set map (off / dirty_page_cells) '\001'

(* Bounds first: a trapping write must not clone, save or dirty.  The
   hook may clone the block and retarget its entry, so the address is
   re-read after it ([high] never shrinks). *)
let write t idx off v =
  let pt = t.ptable in
  if idx >= 0 && idx < pt.Pointer_table.high then begin
    let addr = pt.Pointer_table.entries.(idx) in
    if addr <> Pointer_table.free_marker then
      match t.store.(addr + h_size) with
      | Value.Vint size when off >= 0 && off < size ->
        let addr =
          match t.before_write with
          | None -> addr
          | Some hook ->
            hook idx;
            let addr = pt.Pointer_table.entries.(idx) in
            if addr <> Pointer_table.free_marker then addr else trap t idx off
        in
        (match v with
        | Value.Vptr (j, _) when addr < t.young_start -> barrier t idx j
        | _ -> ());
        let dirty = t.dirty in
        let map =
          if idx < Array.length dirty then dirty.(idx) else Bytes.empty
        in
        if Bytes.length map > 0 then
          Bytes.set map (off / dirty_page_cells) '\001'
        else mark_dirty_cell t idx ~addr off;
        t.store.(addr + header_cells + off) <- v
      | _ -> trap t idx off
    else trap t idx off
  end
  else trap t idx off

(* Read a raw block back as a string; used to decode migration target
   strings and for I/O externs. *)
let raw_to_string t idx =
  let addr = addr_of t idx in
  (match block_tag_at t addr with
  | Raw -> ()
  | Tuple | Array ->
    raise (Runtime_error "raw_to_string: block is not raw data"));
  let size = block_size_at t addr in
  String.init size (fun k ->
      match t.store.(addr + header_cells + k) with
      | Value.Vint b -> Char.chr (b land 0xff)
      | v ->
        raise
          (Runtime_error
             ("raw_to_string: non-byte cell " ^ Value.to_string v)))

(* ------------------------------------------------------------------ *)
(* Copy-on-write support for speculation (paper, Section 4.3)          *)
(* ------------------------------------------------------------------ *)

(* Clone the block at [idx]'s current target and retarget the pointer table
   to the clone.  Returns the ORIGINAL block's address, which the caller
   (the speculation engine) stores in the current level's checkpoint
   record.  The heap contents of both copies are untouched: all references
   are indices, so the clone is immediately consistent. *)
let clone_for_cow t idx =
  let old_addr = addr_of t idx in
  let size = block_size_at t old_addr in
  let tag = block_tag_at t old_addr in
  ensure_capacity t (header_cells + size);
  let new_addr = t.alloc_ptr in
  t.alloc_ptr <- new_addr + header_cells + size;
  write_header t new_addr ~index:idx ~tag ~size;
  Array.blit t.store (old_addr + header_cells) t.store
    (new_addr + header_cells) size;
  Pointer_table.set t.ptable idx new_addr;
  (* conservatively dirty: the clone will diverge from the original, and
     a later rollback may retarget to content older than the baseline *)
  mark_dirty_block t idx ~size;
  old_addr

(* Restore an index to a previously saved address (rollback).  The
   restored original's content need not match the delta baseline (the
   baseline may have been taken after the clone), so the whole block is
   conservatively dirty. *)
let retarget t idx addr =
  Pointer_table.set t.ptable idx addr;
  mark_dirty_block t idx ~size:(block_size_at t addr)

(* ------------------------------------------------------------------ *)
(* Remembered set and GC pacing (used by the collector)               *)
(* ------------------------------------------------------------------ *)

let remembered_indices t =
  Hashtbl.fold (fun idx () acc -> idx :: acc) t.remembered []

let clear_remembered t = Hashtbl.reset t.remembered

(* Count of live blocks (pointer-table targets). *)
let live_blocks t = Pointer_table.live_count t.ptable

(* A rough GC-pressure signal for the mutator loop. *)
let needs_minor t = t.minor_enabled && young_cells t > 32_768
let needs_major t =
  t.alloc_ptr > 3 * t.cap / 4
  || ((not t.minor_enabled) && young_cells t > 32_768)

(* Raise the capacity (used after an unproductive major collection: if
   live data fills most of the heap, collecting again soon is wasted
   work — pace the next collection later instead).  The store itself
   grows only when allocation reaches it. *)
let reserve t cells = raise_capacity t cells

(* Cells of store a restored heap holds beyond its image, so the first
   allocations after a resume (a migrate_env, a few tuples) do not grow
   the store. *)
let restore_slack = 64

(* Rebuild a heap from a migrated image: the raw cell dump and the pointer
   table snapshot (paper, Section 4.2.2 — the heap is reconstructed on the
   target from the transmitted contents).  Everything arrives promoted to
   the old generation.  The capacity is the image's size (at least 64),
   the store the image plus [restore_slack].

   [adopt] takes a store the caller built that way (a migration server
   decodes or rebuilds a received image straight into it) and gives it
   up; [restore] copies an image its caller keeps. *)
let adopt ~store ~used ~ptable_snapshot =
  if used < 0 || Array.length store <> used + restore_slack then
    invalid_arg "Heap.adopt: the store is not an image plus the restore slack";
  make ~store ~cap:(max 64 used) ~alloc_ptr:used
    ~ptable:(Pointer_table.restore ptable_snapshot)

let restore ~cells ~ptable_snapshot =
  adopt
    ~store:(Array.append cells (Array.make restore_slack Value.Vunit))
    ~used:(Array.length cells) ~ptable_snapshot

(* The raw cell dump an image of this heap holds. *)
let cells t = Array.sub t.store 0 t.alloc_ptr

(* Internal consistency check, used by the property tests after random
   operation sequences: the block chain tiles [0, alloc_ptr) exactly,
   every pointer-table entry targets a block header carrying its own
   index, and every pointer cell in a live block references a live
   entry. *)
let validate t =
  let starts = Hashtbl.create 64 in
  let addr = ref 0 in
  while !addr < t.alloc_ptr do
    let size = block_size_at t !addr in
    if size < 0 || !addr + header_cells + size > t.alloc_ptr then
      raise (Runtime_error "validate: block overruns the heap");
    ignore (tag_of_code (header_int t !addr h_tag));
    Hashtbl.replace starts !addr (block_index_at t !addr);
    addr := !addr + header_cells + size
  done;
  if !addr <> t.alloc_ptr then
    raise (Runtime_error "validate: block chain does not tile the heap");
  Pointer_table.iter_live
    (fun idx addr ->
      match Hashtbl.find_opt starts addr with
      | Some idx' when idx' = idx -> ()
      | Some _ -> raise (Runtime_error "validate: entry/index mismatch")
      | None -> raise (Runtime_error "validate: entry not at a block start"))
    t.ptable;
  Pointer_table.iter_live
    (fun _ addr ->
      let size = block_size_at t addr in
      for k = 0 to size - 1 do
        match t.store.(addr + header_cells + k) with
        | Value.Vptr (j, _) when j >= 0 ->
          if not (Pointer_table.is_valid t.ptable j) then
            raise (Runtime_error "validate: dangling pointer cell")
        | _ -> ()
      done)
    t.ptable
