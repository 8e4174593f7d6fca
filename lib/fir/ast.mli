(** The FIR abstract syntax (paper, Sections 3, 4.2.1 and 4.3.1).

    Continuation-passing style: every function ends in a tail call, a
    process exit, or a pseudo-instruction; loops are recursive functions;
    variables are immutable and the heap is mutable.

    Pseudo-instructions:
    - [Migrate (i, dst, f, args)] — the paper's
      [migrate \[i, aptr, aoff\] f(a1...an)]: [i] is the unique resume
      label, [dst] points to the raw target string, [f] is the
      continuation; the live variables are exactly [args].
    - [Speculate (f, args)] — enters a level and calls [f] with a fresh
      rollback code [0] prepended; on rollback [f] is re-called with the
      same [args] and the new code.
    - [Commit (l, f, args)] — folds level [l] into its parent, then calls
      [f args].
    - [Rollback (l, c)] — restores the state at entry to level [l] and
      re-enters it with code [c]. *)

type unop =
  | Neg
  | Not
  | Fneg
  | Int_of_float
  | Float_of_int
  | Int_of_bool
  | Int_of_enum

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** traps on zero *)
  | Rem  (** traps on zero *)
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Feq
  | Fne
  | Flt
  | Fle
  | Fgt
  | Fge
  | And
  | Or
  | Padd  (** pointer + int: advance the offset *)
  | Peq  (** pointer equality (base and offset) *)

type atom =
  | Unit
  | Int of int
  | Float of float
  | Bool of bool
  | Enum of int * int  (** cardinality, value *)
  | Var of Var.t
  | Fun of string  (** reference to a global function *)
  | Nil of Types.ty  (** null reference of a reference type *)

type exp =
  | Let_atom of Var.t * Types.ty * atom * exp
  | Let_cast of Var.t * Types.ty * atom * exp
      (** checked downcast from [Tany]; traps on mismatch *)
  | Let_unop of Var.t * Types.ty * unop * atom * exp
  | Let_binop of Var.t * Types.ty * binop * atom * atom * exp
  | Let_tuple of Var.t * (Types.ty * atom) list * exp
  | Let_array of Var.t * Types.ty * atom * atom * exp
      (** element type, size, initial value *)
  | Let_string of Var.t * string * exp  (** raw block from a literal *)
  | Let_proj of Var.t * Types.ty * atom * int * exp
  | Set_proj of atom * int * atom * exp
  | Let_load of Var.t * Types.ty * atom * atom * exp  (** block, index *)
  | Store of atom * atom * atom * exp  (** block, index, value *)
  | Let_ext of Var.t * Types.ty * string * atom list * exp
      (** external call: the only non-tail call *)
  | If of atom * exp * exp
  | Switch of atom * (int * exp) list * exp  (** cases, default *)
  | Call of atom * atom list  (** tail call *)
  | Exit of atom
  | Migrate of int * atom * atom * atom list
  | Speculate of atom * atom list
  | Commit of atom * atom * atom list
  | Rollback of atom * atom

type fundef = {
  f_name : string;
  f_params : (Var.t * Types.ty) list;
  f_body : exp;
}

module String_map : Map.S with type key = string

type program = { p_funs : fundef String_map.t; p_main : string }

val program : fundef list -> main:string -> program
(** @raise Invalid_argument on duplicate names or a missing main. *)

val find_fun : program -> string -> fundef option
val fun_exn : program -> string -> fundef
val fun_names : program -> string list
val fun_count : program -> int
val iter_funs : (fundef -> unit) -> program -> unit
val fold_funs : (fundef -> 'a -> 'a) -> program -> 'a -> 'a
val map_funs : (fundef -> fundef) -> program -> program
val signature : fundef -> Types.ty list

val exp_size : exp -> int
(** Structural size (AST nodes); the inliner threshold and the simulated
    compile-cost unit. *)

val program_size : program -> int
val free_vars : exp -> Var.Set.t
val called_funs : exp -> string list
