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

val tag_of_code : int -> tag

val header_cells : int
(** Cells of header per block (4). *)

val h_index : int
val h_tag : int
val h_size : int
val h_flags : int

type t = {
  mutable store : Value.t array;
      (** the physical cells; grows on demand, by doubling, up to [cap]
          (a restored heap's store may exceed it by {!restore_slack}) *)
  mutable cap : int;
      (** the logical capacity, see {!capacity} *)
  mutable alloc_ptr : int;
  mutable young_start : int;
  ptable : Pointer_table.t;
  remembered : (int, unit) Hashtbl.t;
  mutable before_write : (int -> unit) option;
  mutable minor_enabled : bool;
  mutable dirty : Bytes.t array;
      (** pointer-table index -> one byte per {!dirty_page_cells}-cell
          page, nonzero when the page was written since the last
          {!clear_dirty}; [Bytes.empty] for an index not in
          [dirty_listed].  A listed map always has one byte per page of
          its index's current block. *)
  mutable dirty_listed : int list;
      (** the indices whose map in [dirty] is non-empty, each once; a
          clear resets exactly these *)
}

val create : ?initial_cells:int -> unit -> t
val pointer_table : t -> Pointer_table.t
val used_cells : t -> int

val capacity : t -> int
(** The GC-pacing capacity: {!needs_major} fires above three quarters of
    it, it doubles when an allocation outgrows it, and {!reserve} raises
    it.  It is not the length of the store, which grows only as far as
    allocation reaches. *)

val set_minor_enabled : t -> bool -> unit
(** Ablation knob: disabling minor collections makes every collection a
    full major sweep (bench a2 quantifies the generational design). *)

val set_before_write : t -> (int -> unit) option -> unit
(** Install the copy-on-write hook called (with the block's index) before
    every mutation; the speculation engine uses it to clone on first
    write within a level. *)

(** {2 Header access (collector / codec support)} *)

val block_index_at : t -> int -> int
val block_size_at : t -> int -> int
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

(** {2 Remembered set and GC pacing} *)

val remembered_indices : t -> int list
val clear_remembered : t -> unit
val live_blocks : t -> int
val needs_minor : t -> bool
val needs_major : t -> bool

val reserve : t -> int -> unit
(** [reserve t cells] doubles the capacity until it holds [cells];
    allocates nothing. *)

(** {2 Dirty-block tracking (delta migration)}

    Every mutation marks the touched {!dirty_page_cells}-cell page of the
    touched block, keyed by pointer-table index (stable across
    compaction).  Allocation, copy-on-write cloning and rollback
    retargeting conservatively mark the whole block, so a clean page is
    guaranteed identical to the last baseline cleared with
    {!clear_dirty}.  The collector drops freed indices; a freed index
    that is reused comes back with only its new block's pages marked.
    Marking never hashes: it loads the index's page map from an array
    and stores a byte. *)

val dirty_page_cells : int
(** Cells per dirty-tracking page (64). *)

val pages_of_size : int -> int
(** Dirty-tracking pages covering a block of [size] data cells (≥ 1). *)

val drop_dirty : t -> int -> unit
(** Forget a freed index's dirty pages (the collector calls this). *)

val clear_dirty : t -> unit
(** Make the current heap the baseline: nothing is dirty afterwards.
    Costs the indices marked since the previous clear. *)

type dirty_snapshot
(** An immutable copy of the dirty set, decoupled from later marks and
    clears. *)

val dirty_snapshot : t -> dirty_snapshot

val page_dirty : dirty_snapshot -> int -> int -> bool
(** [page_dirty snap idx page]: was [page] of the block at index [idx]
    marked when [snap] was taken?  [false] for any index or page the
    snapshot does not cover. *)

(** {2 Migration support} *)

val restore_slack : int
(** Cells of store a restored heap holds beyond its image (64). *)

val restore : cells:Value.t array -> ptable_snapshot:int array -> t
(** Rebuild a heap from an unpacked image; everything arrives promoted to
    the old generation.  The capacity is the image's size (at least 64);
    the store holds the image plus {!restore_slack} cells.  The cells are
    copied, so the caller may keep the image. *)

val adopt : store:Value.t array -> used:int -> ptable_snapshot:int array -> t
(** {!restore} without the copy: [store] is the image's [used] cells
    followed by {!restore_slack} unit cells, and becomes the heap's
    store.  The caller gives the array up; only a receiver that built it
    for this heap (a decoded or delta-rebuilt image nothing retains) may
    adopt.  The heap equals {!restore} of the same cells, store length
    and capacity included.
    @raise Invalid_argument if [store] is not [used + restore_slack]
    cells long. *)

val cells : t -> Value.t array
(** A copy of the raw cells [0, alloc_ptr): what an image of this heap
    holds.  (A pack reads [store] in place.) *)

val validate : t -> unit
(** Internal consistency check (block chain, pointer-table/header
    agreement, no dangling live pointer cells); for the test suites.
    @raise Runtime_error on a violation. *)
