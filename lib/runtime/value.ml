(* Runtime values.

   Every cell in the heap, every register, and every continuation argument
   holds one of these.  The crucial property (paper, Section 4.1.1): base
   pointers are NEVER stored directly — [Vptr (index, offset)] carries a
   pointer-table index, so relocating a block only updates the pointer
   table, never the heap contents.  [Vfun] likewise refers to the function
   table by index.  This is what makes heap images byte-identical across
   relocation, garbage collection, and migration. *)

type t =
  | Vunit
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Venum of int * int (* cardinality, value *)
  | Vptr of int * int (* pointer-table index, cell offset *)
  | Vfun of int (* function-table index *)

let equal a b =
  match a, b with
  | Vunit, Vunit -> true
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Vbool x, Vbool y -> x = y
  | Venum (c1, v1), Venum (c2, v2) -> c1 = c2 && v1 = v2
  | Vptr (i1, o1), Vptr (i2, o2) -> i1 = i2 && o1 = o2
  | Vfun f1, Vfun f2 -> f1 = f2
  | (Vunit | Vint _ | Vfloat _ | Vbool _ | Venum _ | Vptr _ | Vfun _), _ ->
    false

let pp fmt = function
  | Vunit -> Format.pp_print_string fmt "()"
  | Vint n -> Format.pp_print_int fmt n
  | Vfloat f -> Format.fprintf fmt "%g" f
  | Vbool b -> Format.pp_print_bool fmt b
  | Venum (c, v) -> Format.fprintf fmt "enum[%d]{%d}" c v
  | Vptr (i, o) -> Format.fprintf fmt "<ptr %d+%d>" i o
  | Vfun f -> Format.fprintf fmt "<fun %d>" f

let to_string v = Format.asprintf "%a" pp v

(* Pointer-table index of a value, if it is a reference. *)
let pointer_index = function
  | Vptr (i, _) -> Some i
  | Vunit | Vint _ | Vfloat _ | Vbool _ | Venum _ | Vfun _ -> None
