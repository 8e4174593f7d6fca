(** The speculation engine (paper, Section 4.3).

    A process may be inside N nested speculation levels, numbered 1
    (oldest) to N (newest); level 0 means "not speculating".  Each level
    keeps a checkpoint record: the blocks modified since the level was
    entered, saved by copy-on-write through the heap's write hook.

    - {!enter} pushes a level and snapshots the continuation (entry
      function + arguments — the complete live state, since the FIR is
      CPS).
    - {!commit} folds a level's record into its parent; commits may
      happen out of order (any level 1..N); committing level 1 makes the
      changes durable.
    - {!rollback} restores every record from the newest level down to the
      target, re-enters the target level with the same continuation (the
      paper's retry semantics), and returns the continuation for the
      caller to resume with a fresh rollback code.

    Entry is O(1); commit and rollback are O(blocks modified) — the
    source of the mutation-percentile curves in the paper's Section 5.
    Entry allocates only the level's record: a level that has saved at
    most eight blocks answers "has this level saved the block?" from its
    list, and builds a set of its indices only when it saves a ninth. *)

open Runtime

exception Invalid_level of string

type cont = { entry : string; args : Value.t list }
(** A level's continuation: the speculation entry function and the
    arguments it was entered with. *)

type level

type t

val create : Heap.t -> t
(** Create an engine over [heap], installing its copy-on-write hook. *)

val metrics : t -> Obs.Metrics.t
(** The live registry: counters [spec.entered], [spec.committed],
    [spec.rolled_back], [spec.blocks_saved], [spec.blocks_discarded]. *)

val depth : t -> int

val level_saved_count : t -> int -> int
(** Number of blocks saved in the given level's record (1..N).
    @raise Invalid_level if out of range. *)

(** {2 Distributed-speculation introspection}

    Level numbers shift when levels commit; unique ids are stable.  A
    message sent from inside a speculation is tagged with the sending
    level's unique id, and a later cascade asks whether that level is
    still open. *)

val unique_ids : t -> int list
(** Unique ids of all open levels, newest first. *)

val current_unique : t -> int option
val level_of_unique : t -> int -> int option

(** {2 The three operations} *)

val enter : t -> cont:cont -> int
(** Enter a new level; returns the new depth (= the level's number). *)

val commit : t -> int -> unit
(** [commit t l] folds level [l] into its parent.  The parent's older
    original wins when both saved the same block.
    @raise Invalid_level if [l] is not in 1..N. *)

val rollback : t -> int -> cont
(** [rollback t l] restores the heap to its state at entry to level [l],
    discards levels [l..N], re-enters level [l], and returns its
    continuation.  The caller resumes it with a fresh rollback code
    prepended to the arguments.
    @raise Invalid_level if [l] is not in 1..N. *)

val set_hooks :
  ?on_enter:(uid:int -> depth:int -> unit) ->
  t -> on_rollback:(int list -> unit) ->
  on_commit:(uid:int -> parent:int option -> unit) -> unit
(** Install host-environment observers: [on_enter] fires when a level is
    pushed (with its unique id and the resulting depth); [on_rollback]
    receives the unique ids of every level just undone (newest first);
    [on_commit] receives the committed level's unique id and its parent's
    ([None] when folding into level 0). *)

(** {2 GC integration} *)

val records : t -> (int * int) list
(** All (index, original address) pairs across all levels — the
    collector's [pinned] argument. *)

val fold_cont_args : ('a -> Value.t list -> 'a) -> 'a -> t -> 'a
(** Fold over every level's continuation arguments, oldest level
    first — the collector's roots besides the process's own
    continuation. *)

val rewrite_after_gc : t -> Gc.result -> unit
(** Rewrite recorded original addresses through a collection's forwarding
    map. *)

(** {2 Migration support} *)

type snapshot_level = {
  s_entry : string;
  s_args : Value.t list;
  s_saved : (int * int) list;
}

val snapshot : t -> snapshot_level list
(** Levels oldest-first, for the wire codec. *)

val restore : t -> snapshot_level list -> unit
(** Re-install levels into a fresh engine (over a restored heap).
    @raise Invalid_level if the engine already has open levels. *)
