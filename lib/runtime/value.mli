(** Runtime values: the contents of heap cells, registers and continuation
    arguments.

    The crucial property (paper, Section 4.1.1): base pointers are NEVER
    stored — {!Vptr} carries a pointer-table index plus an offset, and
    {!Vfun} a function-table index, so relocating a block or migrating the
    whole heap never rewrites cell contents. *)

type t =
  | Vunit
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Venum of int * int  (** cardinality, value *)
  | Vptr of int * int  (** pointer-table index, cell offset *)
  | Vfun of int  (** function-table index *)

val equal : t -> t -> bool
(** Structural equality; floats compare by bit pattern (NaN = NaN). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val pointer_index : t -> int option
(** The pointer-table index of a reference value, if any. *)
