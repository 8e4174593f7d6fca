(** Generational, mark-sweep, compacting collection (paper, Section 4).

    Two phases, as in MCC: a fast minor collection over the young region
    and a major sweep-and-compact of the entire heap.  Compaction slides
    live blocks towards low addresses in allocation order (preserving
    temporal locality) and is possible because the pointer table gives
    every block exactly one relocation slot.

    Speculation integration: [pinned] carries the checkpoint records —
    (index, original address) pairs.  Originals are marked and scanned;
    the current target of a recorded index is marked too, so a recorded
    index can never be freed while a rollback could restore it.  Moved
    addresses are reported in {!field-forward} so the speculation engine
    can rewrite its records. *)

type kind = Minor | Major

type forwarding
(** Old block address -> new address, for the blocks a collection
    moved: two sorted arrays read by binary search, since compaction
    slides blocks in address order.  Read it with {!forward_addr}. *)

type result = {
  kind : kind;
  forward : forwarding;
  live_blocks : int;
  collected_blocks : int;
  collected_cells : int;
}

val collect :
  Heap.t ->
  kind:kind ->
  roots:Value.t list ->
  pinned:(int * int) list ->
  result
(** [collect heap ~kind ~roots ~pinned] marks from [roots] (continuation
    arguments, speculation continuations) plus [pinned] records, then
    compacts the collected region.  Survivors are promoted; the
    remembered set is reset. *)

val moved : result -> int
(** How many blocks the collection moved. *)

val forward_addr : result -> int -> int
(** Map an address through the forwarding table (identity if unmoved). *)

val metrics : Obs.Metrics.t
(** Process-global collection metrics: counters [gc.minor_collections],
    [gc.major_collections], [gc.collected_blocks], [gc.collected_cells]
    and histogram [gc.live_blocks].  Heaps are per-process; per-node
    attribution happens through the [on_gc] hook in [Vm.Process]. *)
