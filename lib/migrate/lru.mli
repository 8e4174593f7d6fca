(** A bounded table with least-recently-used replacement: the one LRU
    behind the migration daemon's recompilation cache ({!Codecache}) and
    its delta-baseline cache ({!Server}). *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create capacity]; a capacity [<= 0] holds nothing. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Refreshes the entry's stamp. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Does not refresh the entry's stamp. *)

val add : ('k, 'v) t -> 'k -> 'v -> int
(** Bind (or rebind) the key with a fresh stamp, then evict the stalest
    entries until the capacity holds; returns how many were evicted.  A
    no-op returning 0 when the capacity is [<= 0]. *)

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
val clear : ('k, 'v) t -> unit
