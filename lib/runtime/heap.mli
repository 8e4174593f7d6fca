(** The MCC heap (paper, Section 4.1).

    A flat array of cells.  Each block is stored contiguously: a 4-cell
    header (pointer-table index, tag, size, collector flags) followed by
    the data cells — the paper's ">12 bytes per block" bookkeeping made
    concrete.  Addresses at or above {!field-young_start} form the young
    generation; a write barrier remembers old blocks that received young
    references.

    The type is exposed concretely because the collector ({!Gc}) slides
    blocks within [store] directly; mutate the fields only from there. *)

exception Runtime_error of string

type tag = Tuple | Array | Raw

val tag_code : tag -> int
val tag_of_code : int -> tag

val header_cells : int
(** Cells of header per block (4). *)

val h_index : int
val h_tag : int
val h_size : int
val h_flags : int

type t = {
  mutable store : Value.t array;
  mutable alloc_ptr : int;
  mutable young_start : int;
  ptable : Pointer_table.t;
  remembered : (int, unit) Hashtbl.t;
  mutable before_write : (int -> unit) option;
  mutable minor_enabled : bool;
  dirty : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (** index -> dirty pages since the last {!clear_dirty} *)
  mutable last_dirty_idx : int;
      (** one-entry mark cache: last block index marked dirty *)
  mutable last_dirty_page : int;  (** page paired with [last_dirty_idx] *)
}

val create : ?initial_cells:int -> unit -> t
val pointer_table : t -> Pointer_table.t
val used_cells : t -> int
val young_cells : t -> int
val capacity : t -> int

val set_minor_enabled : t -> bool -> unit
(** Ablation knob: disabling minor collections makes every collection a
    full major sweep (bench a2 quantifies the generational design). *)

val set_before_write : t -> (int -> unit) option -> unit
(** Install the copy-on-write hook called (with the block's index) before
    every mutation; the speculation engine uses it to clone on first
    write within a level. *)

val ensure_capacity : t -> int -> unit

(** {2 Header access (collector / codec support)} *)

val block_index_at : t -> int -> int
val block_size_at : t -> int -> int
val block_tag_at : t -> int -> tag
val block_flags_at : t -> int -> int
val set_block_flags_at : t -> int -> int -> unit

(** {2 Allocation} *)

val alloc : t -> tag:tag -> size:int -> init:Value.t -> int
(** Allocate a block; returns its pointer-table index. *)

val alloc_tuple : t -> Value.t list -> int
val alloc_raw : t -> string -> int

(** {2 Checked access}

    Every read and write validates the pointer-table index (two checks,
    Section 4.1.1) and the cell offset against the block size; a
    violation raises rather than corrupting memory. *)

val addr_of : t -> int -> int
val block_size : t -> int -> int
val block_tag : t -> int -> tag
val read : t -> int -> int -> Value.t
val write : t -> int -> int -> Value.t -> unit

val raw_to_string : t -> int -> string
(** Decode a raw block as a string (migration target strings, I/O). *)

(** {2 Copy-on-write (speculation support)} *)

val clone_for_cow : t -> int -> int
(** Clone the block currently targeted by the index, retarget the pointer
    table to the clone, and return the ORIGINAL block's address for the
    speculation checkpoint record. *)

val retarget : t -> int -> int -> unit
(** Point an index back at a saved original (rollback). *)

(** {2 Iteration and GC pacing} *)

val iter_blocks_range : t -> lo:int -> hi:int -> (int -> unit) -> unit
val remembered_indices : t -> int list
val clear_remembered : t -> unit
val live_blocks : t -> int
val needs_minor : t -> bool
val needs_major : t -> bool
val reserve : t -> int -> unit

(** {2 Dirty-block tracking (delta migration)}

    Every mutation marks the touched {!dirty_page_cells}-cell page of the
    touched block, keyed by pointer-table index (stable across
    compaction).  Allocation, copy-on-write cloning and rollback
    retargeting conservatively mark the whole block, so a clean page is
    guaranteed identical to the last baseline cleared with
    {!clear_dirty}.  The collector drops freed indices. *)

val dirty_page_cells : int
(** Cells per dirty-tracking page (64). *)

val pages_of_size : int -> int
(** Dirty-tracking pages covering a block of [size] data cells (≥ 1). *)

val mark_dirty_cell : t -> int -> int -> unit
val mark_dirty_block : t -> int -> size:int -> unit
val drop_dirty : t -> int -> unit
val clear_dirty : t -> unit

val dirty_snapshot : t -> (int * int, unit) Hashtbl.t
(** Flattened (index, page) copy, decoupled from later clears. *)

(** {2 Migration support} *)

val restore : cells:Value.t array -> ptable_snapshot:int array -> t
(** Rebuild a heap from an unpacked image; everything arrives promoted to
    the old generation. *)

val cells : t -> Value.t array
(** The raw cell dump [0, alloc_ptr) for the wire codec. *)

val validate : t -> unit
(** Internal consistency check (block chain, pointer-table/header
    agreement, no dangling live pointer cells); for the test suites.
    @raise Runtime_error on a violation. *)
