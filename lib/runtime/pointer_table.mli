(** The pointer table (paper, Section 4.1.1).

    Every valid heap block has exactly one entry; every non-free entry
    points to a valid block.  Heap cells and registers refer to blocks
    exclusively through table indices, which is what makes relocation
    (compaction, migration) and speculation (copy-on-write retargeting)
    free of heap rewrites.

    Dereferencing validates in two steps, exactly as the paper describes:
    the index is checked against the table size, and the entry is checked
    to be non-free. *)

type t = private {
  mutable entries : int array;
      (** index -> block address, or {!free_marker}; may be longer than
          [high] *)
  mutable high : int;  (** indices in [0, high) have been issued *)
  mutable free_list : int list;  (** freed indices available for reuse *)
  mutable live : int;  (** non-free entries *)
}
(** Readable so {!Heap.read} and {!Heap.write} can do the two
    validation checks inline, without a call per access; [private], so
    only this module builds a table or mutates its fields. *)

exception Invalid_pointer of string

val free_marker : int
(** The address value marking a free entry ([-1]). *)

val create : ?initial_capacity:int -> unit -> t

val alloc : t -> int -> int
(** [alloc t addr] allocates an entry targeting [addr] and returns its
    index.  Freed indices are reused first. *)

val get : t -> int -> int
(** [get t idx] returns the block address of [idx], applying the two
    validation checks.
    @raise Invalid_pointer on an out-of-range index or a free entry. *)

val set : t -> int -> int -> unit
(** Retarget a live entry (garbage-collector relocation, copy-on-write,
    speculation rollback).
    @raise Invalid_pointer if the entry is out of range or free. *)

val free : t -> int -> unit
(** Release an entry for reuse; no-op on an already-free entry. *)

val is_valid : t -> int -> bool
val size : t -> int  (** Indices issued so far (table size for bounds). *)

val live_count : t -> int
val capacity : t -> int
val iter_live : (int -> int -> unit) -> t -> unit

val snapshot : t -> int array
(** Entry array in index order — migration must preserve order in the
    pointer table (paper, Section 4.2.2). *)

val restore : int array -> t
(** Rebuild a table from a snapshot, reconstructing the free list. *)
