(** FIR typechecker — the safety check a migration target runs before
    resuming a received process (paper, Section 4.2), also applied after
    every front-end lowering and optimizer pass.

    External functions are checked against a caller-supplied signature
    lookup; unknown externs are errors under [~strict:true] (the
    migration-server setting) and trusted otherwise. *)

exception Type_error of string

type extern_lookup = string -> (Types.ty list * Types.ty) option

val assignable : expected:Types.ty -> Types.ty -> bool
(** Assignment compatibility: a [Tany] sink accepts any value. *)

val check_program :
  ?strict:bool -> ?externs:extern_lookup -> Ast.program ->
  (unit, string) result

val well_typed :
  ?strict:bool -> ?externs:extern_lookup -> Ast.program -> bool
