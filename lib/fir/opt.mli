(** FIR optimizer — the "compiler" part of recompilation when a migrated
    process is rebuilt on the target, and the cleanup pass after
    front-end lowering.

    Passes: constant folding (including [If]/[Switch] on constants, and
    a C-style truth test [int_of_bool b != 0] to [b], [== 0] to
    [not b]), copy propagation, common-subexpression elimination of pure operations,
    dead-code elimination of pure unused lets (trapping operations are
    kept), inlining of small functions — never of bodies containing
    migration or speculation points, whose resume labels and continuation
    identities must stay stable — and removal of functions unreachable
    from [main].  All passes preserve well-typedness. *)

val optimize : ?threshold:int -> Ast.program -> Ast.program

val subst_exp : rename:bool -> Ast.atom Var.Map.t -> Ast.exp -> Ast.exp
(** Capture-avoiding substitution; [rename] refreshes binders (required
    when a body is duplicated). *)

val eliminate_common_subexpressions : Ast.exp -> Ast.exp

val reachable : Ast.program -> (string, unit) Hashtbl.t
