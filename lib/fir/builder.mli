(** A combinator DSL for constructing FIR programs from OCaml.

    Every binding combinator takes its continuation last and passes the
    freshly bound variable to it as an atom, mirroring the CPS structure
    of the FIR itself.  Used by the test suites and benches. *)

open Ast

type k = atom -> exp

(** {2 Atoms} *)

val int : int -> atom
val float : float -> atom
val bool : bool -> atom
val unit : atom
val enum : int -> int -> atom
val fn : string -> atom
val nil : Types.ty -> atom

(** {2 Bindings} *)

val atom : ?name:string -> Types.ty -> atom -> k -> exp
val any : ?name:string -> atom -> k -> exp
(** Upcast: bind any value at type [Tany]. *)

val cast : ?name:string -> Types.ty -> atom -> k -> exp
(** Checked downcast from [Tany]. *)

val unop : ?name:string -> Types.ty -> unop -> atom -> k -> exp
val binop : ?name:string -> Types.ty -> binop -> atom -> atom -> k -> exp
val tuple : ?name:string -> (Types.ty * atom) list -> k -> exp
val array : ?name:string -> Types.ty -> size:atom -> init:atom -> k -> exp
val string : ?name:string -> string -> k -> exp
val proj : ?name:string -> Types.ty -> atom -> int -> k -> exp
val load : ?name:string -> Types.ty -> atom -> atom -> k -> exp
val store : atom -> atom -> atom -> exp -> exp
val ext : ?name:string -> Types.ty -> string -> atom list -> k -> exp

(** {2 Control} *)

val if_ : atom -> exp -> exp -> exp
val switch : atom -> (int * exp) list -> exp -> exp
val call : atom -> atom list -> exp
val callf : string -> atom list -> exp
val exit_ : atom -> exp
val migrate : label:int -> atom -> atom -> atom list -> exp
val speculate : atom -> atom list -> exp
val commit : atom -> atom -> atom list -> exp
val rollback : atom -> atom -> exp

(** {2 Integer shorthands} *)

val add : atom -> atom -> k -> exp
val sub : atom -> atom -> k -> exp
val mul : atom -> atom -> k -> exp
val div : atom -> atom -> k -> exp
val rem : atom -> atom -> k -> exp
val lt : atom -> atom -> k -> exp
val le : atom -> atom -> k -> exp
val gt : atom -> atom -> k -> exp
val ge : atom -> atom -> k -> exp
val eq : atom -> atom -> k -> exp
val ne : atom -> atom -> k -> exp

(** {2 Programs} *)

val func : string -> (string * Types.ty) list -> (atom list -> exp) -> fundef
val prog : ?main:string -> fundef list -> program

val for_loop :
  name:string -> lo:atom -> hi:atom -> state_tys:Types.ty list ->
  state:atom list ->
  body:(atom -> atom list -> (atom list -> exp) -> exp) ->
  after:(atom list -> exp) ->
  fundef * exp
(** The recursive-function encoding of
    [for (i = lo; i < hi; i++) body], threading an accumulator list. *)
