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

   Copy-on-write for speculation: before any mutation, the [before_write]
   hook fires with the block's index; the speculation engine clones the
   block (via [clone_for_cow]) and saves the original's address in the
   current level's checkpoint record.  The original block stays in the
   heap, no longer referenced by the pointer table — exactly the "special
   blocks" of Section 4.1 that are tracked by a checkpoint record. *)

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
   the last cleared baseline". *)
let dirty_page_cells = 64

type t = {
  mutable store : Value.t array;
  mutable alloc_ptr : int;
  mutable young_start : int;
  ptable : Pointer_table.t;
  remembered : (int, unit) Hashtbl.t; (* indices of old blocks with young refs *)
  mutable before_write : (int -> unit) option;
  (* ablation knob: with minor collections disabled every collection is a
     full major sweep (used by bench a2 to quantify the generational
     design choice) *)
  mutable minor_enabled : bool;
  dirty : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* index -> dirty pages since the last [clear_dirty] *)
  (* one-entry cache over [mark_dirty_cell]: consecutive writes land
     overwhelmingly on the page just marked, and marking is idempotent,
     so remembering the last (index, page) pair turns the common case
     into two integer compares instead of two hashtable operations *)
  mutable last_dirty_idx : int;
  mutable last_dirty_page : int;
}

(* Everything in [0, alloc_ptr) starts in the old generation, and
   nothing is dirty: a restored heap IS the image it was restored from. *)
let make ~store ~alloc_ptr ~ptable =
  {
    store;
    alloc_ptr;
    young_start = alloc_ptr;
    ptable;
    remembered = Hashtbl.create 64;
    before_write = None;
    minor_enabled = true;
    dirty = Hashtbl.create 64;
    last_dirty_idx = -1;
    last_dirty_page = -1;
  }

let create ?(initial_cells = 4096) () =
  make
    ~store:(Array.make (max 64 initial_cells) Value.Vunit)
    ~alloc_ptr:0 ~ptable:(Pointer_table.create ())

(* -------------------- dirty-block tracking -------------------- *)

let pages_of_size size = max 1 ((size + dirty_page_cells - 1) / dirty_page_cells)

let dirty_page_set t idx =
  match Hashtbl.find_opt t.dirty idx with
  | Some pages -> pages
  | None ->
    let pages = Hashtbl.create 4 in
    Hashtbl.add t.dirty idx pages;
    pages

let mark_dirty_cell t idx off =
  let page = off / dirty_page_cells in
  if idx <> t.last_dirty_idx || page <> t.last_dirty_page then begin
    Hashtbl.replace (dirty_page_set t idx) page ();
    t.last_dirty_idx <- idx;
    t.last_dirty_page <- page
  end

let mark_dirty_block t idx ~size =
  let pages = dirty_page_set t idx in
  for p = 0 to pages_of_size size - 1 do
    Hashtbl.replace pages p ()
  done

let drop_dirty t idx =
  Hashtbl.remove t.dirty idx;
  if t.last_dirty_idx = idx then begin
    t.last_dirty_idx <- -1;
    t.last_dirty_page <- -1
  end

let clear_dirty t =
  Hashtbl.reset t.dirty;
  t.last_dirty_idx <- -1;
  t.last_dirty_page <- -1

(* Flattened copy for the pack layer: the set survives the clear that
   pack performs once the image becomes the new baseline. *)
let dirty_snapshot t =
  let snap = Hashtbl.create (max 16 (Hashtbl.length t.dirty)) in
  Hashtbl.iter
    (fun idx pages ->
      Hashtbl.iter (fun page () -> Hashtbl.replace snap (idx, page) ()) pages)
    t.dirty;
  snap
let set_minor_enabled t flag = t.minor_enabled <- flag
let pointer_table t = t.ptable
let used_cells t = t.alloc_ptr
let young_cells t = t.alloc_ptr - t.young_start
let capacity t = Array.length t.store
let set_before_write t hook = t.before_write <- hook

let ensure_capacity t extra =
  let needed = t.alloc_ptr + extra in
  if needed > Array.length t.store then begin
    let cap = ref (Array.length t.store) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let store = Array.make !cap Value.Vunit in
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

let read t idx off =
  let addr = addr_of t idx in
  check_offset t addr off;
  t.store.(addr + header_cells + off)

(* The generational write barrier: a young reference stored into an old
   block is remembered (by the old block's stable index) so minor
   collections can find it without scanning the old generation. *)
let barrier t idx addr v =
  if addr < t.young_start then
    match v with
    | Value.Vptr (j, _) ->
      if Pointer_table.is_valid t.ptable j
         && Pointer_table.get t.ptable j >= t.young_start
      then Hashtbl.replace t.remembered idx ()
    | Value.Vunit | Value.Vint _ | Value.Vfloat _ | Value.Vbool _
    | Value.Venum _ | Value.Vfun _ ->
      ()

let write t idx off v =
  (match t.before_write with Some hook -> hook idx | None -> ());
  (* the hook may have cloned the block; re-resolve the address *)
  let addr = addr_of t idx in
  check_offset t addr off;
  barrier t idx addr v;
  mark_dirty_cell t idx off;
  t.store.(addr + header_cells + off) <- v

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
(* Iteration (used by the collector and the wire codec)                *)
(* ------------------------------------------------------------------ *)

(* Iterate over all blocks in [lo, hi) address order, including blocks that
   are no longer the pointer-table target of their index (speculation
   originals, garbage). *)
let iter_blocks_range t ~lo ~hi f =
  let addr = ref lo in
  while !addr < hi do
    let size = block_size_at t !addr in
    f !addr;
    addr := !addr + header_cells + size
  done

let remembered_indices t =
  Hashtbl.fold (fun idx () acc -> idx :: acc) t.remembered []

let clear_remembered t = Hashtbl.reset t.remembered

(* Count of live blocks (pointer-table targets). *)
let live_blocks t = Pointer_table.live_count t.ptable

(* A rough GC-pressure signal for the mutator loop. *)
let needs_minor t = t.minor_enabled && young_cells t > 32_768
let needs_major t =
  t.alloc_ptr > 3 * Array.length t.store / 4
  || ((not t.minor_enabled) && young_cells t > 32_768)

(* Pre-size the store (used after an unproductive major collection: if
   live data fills most of the heap, collecting again soon is wasted
   work — grow instead). *)
let reserve t cells = ensure_capacity t (max 0 (cells - t.alloc_ptr))

(* Rebuild a heap from a migrated image: the raw cell dump and the pointer
   table snapshot (paper, Section 4.2.2 — the heap is reconstructed on the
   target from the transmitted contents).  Everything arrives promoted to
   the old generation. *)
let restore ~cells ~ptable_snapshot =
  let len = Array.length cells in
  let store = Array.make (max 64 len) Value.Vunit in
  Array.blit cells 0 store 0 len;
  make ~store ~alloc_ptr:len ~ptable:(Pointer_table.restore ptable_snapshot)

(* The raw cell dump for the wire codec. *)
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
