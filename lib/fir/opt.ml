(* FIR optimizer.

   Run as part of "recompilation" when a migrated process is rebuilt on the
   target machine, and after front-end lowering.  Passes:

   - constant folding of unary/binary operators and of [If]/[Switch] on
     constant scrutinees, and of a C-style truth test
     [int_of_bool b != 0] (to [b]) or [== 0] (to [not b]);
   - copy propagation (a let binding of an atom is substituted away);
   - dead-code elimination of pure, unused lets;
   - inlining of small or called-once functions (the FIR is CPS, so
     inlining a tail call is pure substitution with alpha-renaming);
   - removal of functions unreachable from [main].

   All passes preserve well-typedness; the pipeline re-typechecks after
   optimization as a defence-in-depth measure. *)

open Ast

(* ------------------------------------------------------------------ *)
(* Substitution with alpha-renaming.                                   *)
(* ------------------------------------------------------------------ *)

let subst_atom env = function
  | Var v as a -> ( match Var.Map.find_opt v env with Some a' -> a' | None -> a)
  | (Unit | Int _ | Float _ | Bool _ | Enum _ | Fun _ | Nil _) as a -> a

(* [rename] controls whether binders are refreshed; inlining a function body
   more than once requires fresh binders to keep variable ids unique. *)
let rec subst_exp ~rename env e =
  let sa = subst_atom env in
  let bind v k =
    if rename then (
      let v' = Var.fresh (Var.name v) in
      k v' (Var.Map.add v (Var v') env))
    else k v env
  in
  match e with
  | Let_atom (v, t, a, e) ->
    let a = sa a in
    bind v (fun v env -> Let_atom (v, t, a, subst_exp ~rename env e))
  | Let_cast (v, t, a, e) ->
    let a = sa a in
    bind v (fun v env -> Let_cast (v, t, a, subst_exp ~rename env e))
  | Let_unop (v, t, op, a, e) ->
    let a = sa a in
    bind v (fun v env -> Let_unop (v, t, op, a, subst_exp ~rename env e))
  | Let_binop (v, t, op, a, b, e) ->
    let a = sa a and b = sa b in
    bind v (fun v env -> Let_binop (v, t, op, a, b, subst_exp ~rename env e))
  | Let_tuple (v, fields, e) ->
    let fields = List.map (fun (t, a) -> t, sa a) fields in
    bind v (fun v env -> Let_tuple (v, fields, subst_exp ~rename env e))
  | Let_array (v, t, size, init, e) ->
    let size = sa size and init = sa init in
    bind v (fun v env ->
        Let_array (v, t, size, init, subst_exp ~rename env e))
  | Let_string (v, s, e) ->
    bind v (fun v env -> Let_string (v, s, subst_exp ~rename env e))
  | Let_proj (v, t, a, i, e) ->
    let a = sa a in
    bind v (fun v env -> Let_proj (v, t, a, i, subst_exp ~rename env e))
  | Set_proj (a, i, x, e) ->
    Set_proj (sa a, i, sa x, subst_exp ~rename env e)
  | Let_load (v, t, a, i, e) ->
    let a = sa a and i = sa i in
    bind v (fun v env -> Let_load (v, t, a, i, subst_exp ~rename env e))
  | Store (a, i, x, e) -> Store (sa a, sa i, sa x, subst_exp ~rename env e)
  | Let_ext (v, t, name, args, e) ->
    let args = List.map sa args in
    bind v (fun v env -> Let_ext (v, t, name, args, subst_exp ~rename env e))
  | If (a, e1, e2) ->
    If (sa a, subst_exp ~rename env e1, subst_exp ~rename env e2)
  | Switch (a, cases, default) ->
    Switch
      ( sa a,
        List.map (fun (n, e) -> n, subst_exp ~rename env e) cases,
        subst_exp ~rename env default )
  | Call (f, args) -> Call (sa f, List.map sa args)
  | Exit a -> Exit (sa a)
  | Migrate (i, dst, f, args) -> Migrate (i, sa dst, sa f, List.map sa args)
  | Speculate (f, args) -> Speculate (sa f, List.map sa args)
  | Commit (l, f, args) -> Commit (sa l, sa f, List.map sa args)
  | Rollback (l, c) -> Rollback (sa l, sa c)

(* ------------------------------------------------------------------ *)
(* Constant folding and copy propagation.                              *)
(* ------------------------------------------------------------------ *)

let fold_unop op a =
  match op, a with
  | Neg, Int n -> Some (Int (-n))
  | Not, Bool b -> Some (Bool (not b))
  | Fneg, Float f -> Some (Float (-.f))
  | Int_of_float, Float f -> Some (Int (int_of_float f))
  | Float_of_int, Int n -> Some (Float (float_of_int n))
  | Int_of_bool, Bool b -> Some (Int (if b then 1 else 0))
  | Int_of_enum, Enum (_, v) -> Some (Int v)
  | ( (Neg | Not | Fneg | Int_of_float | Float_of_int | Int_of_bool
      | Int_of_enum),
      _ ) ->
    None

let fold_binop op a b =
  match op, a, b with
  | Add, Int x, Int y -> Some (Int (x + y))
  | Sub, Int x, Int y -> Some (Int (x - y))
  | Mul, Int x, Int y -> Some (Int (x * y))
  | Div, Int x, Int y when y <> 0 -> Some (Int (x / y))
  | Rem, Int x, Int y when y <> 0 -> Some (Int (x mod y))
  | Band, Int x, Int y -> Some (Int (x land y))
  | Bor, Int x, Int y -> Some (Int (x lor y))
  | Bxor, Int x, Int y -> Some (Int (x lxor y))
  | Shl, Int x, Int y when y >= 0 && y < 62 -> Some (Int (x lsl y))
  | Shr, Int x, Int y when y >= 0 && y < 62 -> Some (Int (x asr y))
  | Eq, Int x, Int y -> Some (Bool (x = y))
  | Ne, Int x, Int y -> Some (Bool (x <> y))
  | Lt, Int x, Int y -> Some (Bool (x < y))
  | Le, Int x, Int y -> Some (Bool (x <= y))
  | Gt, Int x, Int y -> Some (Bool (x > y))
  | Ge, Int x, Int y -> Some (Bool (x >= y))
  | Fadd, Float x, Float y -> Some (Float (x +. y))
  | Fsub, Float x, Float y -> Some (Float (x -. y))
  | Fmul, Float x, Float y -> Some (Float (x *. y))
  | Fdiv, Float x, Float y when y <> 0.0 -> Some (Float (x /. y))
  | Feq, Float x, Float y -> Some (Bool (x = y))
  | Fne, Float x, Float y -> Some (Bool (x <> y))
  | Flt, Float x, Float y -> Some (Bool (x < y))
  | Fle, Float x, Float y -> Some (Bool (x <= y))
  | Fgt, Float x, Float y -> Some (Bool (x > y))
  | Fge, Float x, Float y -> Some (Bool (x >= y))
  | And, Bool x, Bool y -> Some (Bool (x && y))
  | Or, Bool x, Bool y -> Some (Bool (x || y))
  (* algebraic identities *)
  | Add, a, Int 0 | Add, Int 0, a -> Some a
  | Sub, a, Int 0 -> Some a
  | Mul, a, Int 1 | Mul, Int 1, a -> Some a
  | Mul, _, Int 0 | Mul, Int 0, _ -> Some (Int 0)
  | And, a, Bool true | And, Bool true, a -> Some a
  | And, _, Bool false | And, Bool false, _ -> Some (Bool false)
  | Or, a, Bool false | Or, Bool false, a -> Some a
  | Or, _, Bool true | Or, Bool true, _ -> Some (Bool true)
  | Padd, p, Int 0 -> Some p
  | _ -> None

(* A C-style truth value tested against zero: [int_of_bool b != 0] is
   [b] and [int_of_bool b == 0] is [not b].  [bools] maps each variable
   bound by [Int_of_bool] to its operand; this returns [b] when one side
   of the comparison is such a variable and the other is [0]. *)
let tested_bool bools a b =
  match a, b with
  | Var x, Int 0 | Int 0, Var x -> Var.Map.find_opt x bools
  | _ -> None

let rec simplify env bools e =
  let sa = subst_atom env in
  let go env e = simplify env bools e in
  match e with
  | Let_atom (v, _, a, e) ->
    (* copy propagation: replace v by (substituted) a everywhere *)
    go (Var.Map.add v (sa a) env) e
  | Let_cast (v, t, a, e) -> Let_cast (v, t, sa a, go env e)
  | Let_unop (v, t, op, a, e) -> (
    let a = sa a in
    match fold_unop op a, op with
    | Some a', _ -> go (Var.Map.add v a' env) e
    | None, Int_of_bool ->
      Let_unop (v, t, op, a, simplify env (Var.Map.add v a bools) e)
    | None, _ -> Let_unop (v, t, op, a, go env e))
  | Let_binop (v, t, op, a, b, e) -> (
    let a = sa a and b = sa b in
    match fold_binop op a b with
    | Some a' -> go (Var.Map.add v a' env) e
    | None -> (
      match op, tested_bool bools a b with
      | Ne, Some c -> go (Var.Map.add v c env) e
      | Eq, Some c -> Let_unop (v, t, Not, c, go env e)
      | _ -> Let_binop (v, t, op, a, b, go env e)))
  | Let_tuple (v, fields, e) ->
    Let_tuple (v, List.map (fun (t, a) -> t, sa a) fields, go env e)
  | Let_array (v, t, size, init, e) ->
    Let_array (v, t, sa size, sa init, go env e)
  | Let_string (v, s, e) -> Let_string (v, s, go env e)
  | Let_proj (v, t, a, i, e) -> Let_proj (v, t, sa a, i, go env e)
  | Set_proj (a, i, x, e) -> Set_proj (sa a, i, sa x, go env e)
  | Let_load (v, t, a, i, e) -> Let_load (v, t, sa a, sa i, go env e)
  | Store (a, i, x, e) -> Store (sa a, sa i, sa x, go env e)
  | Let_ext (v, t, name, args, e) ->
    Let_ext (v, t, name, List.map sa args, go env e)
  | If (a, e1, e2) -> (
    match sa a with
    | Bool true -> go env e1
    | Bool false -> go env e2
    | a -> If (a, go env e1, go env e2))
  | Switch (a, cases, default) -> (
    match sa a with
    | Int n | Enum (_, n) -> (
      match List.assoc_opt n cases with
      | Some e -> go env e
      | None -> go env default)
    | a ->
      Switch
        (a, List.map (fun (n, e) -> n, go env e) cases,
         go env default))
  | Call (f, args) -> Call (sa f, List.map sa args)
  | Exit a -> Exit (sa a)
  | Migrate (i, dst, f, args) -> Migrate (i, sa dst, sa f, List.map sa args)
  | Speculate (f, args) -> Speculate (sa f, List.map sa args)
  | Commit (l, f, args) -> Commit (sa l, sa f, List.map sa args)
  | Rollback (l, c) -> Rollback (sa l, sa c)

(* ------------------------------------------------------------------ *)
(* Common-subexpression elimination.                                   *)
(* ------------------------------------------------------------------ *)

(* Pure unary/binary operations with identical operands compute the same
   value; a later occurrence is replaced by the earlier binding.  Because
   the FIR is a tree of expressions and a let dominates everything below
   it, the available-expression environment simply flows down — including
   into both branches of an [If]/[Switch].  Heap reads are NOT candidates
   (stores may intervene); trapping operations (Div/Rem) are candidates
   only because replacing a LATER duplicate cannot remove the first
   (dominating) trap. *)

type cse_key =
  | Kunop of unop * atom
  | Kbinop of binop * atom * atom

module Cse_map = Map.Make (struct
  type t = cse_key

  let compare = compare
end)

let commutative = function
  | Add | Mul | Band | Bor | Bxor | Eq | Ne | Fadd | Fmul | Feq | Fne
  | And | Or | Peq ->
    true
  | Sub | Div | Rem | Shl | Shr | Lt | Le | Gt | Ge | Fsub | Fdiv | Flt
  | Fle | Fgt | Fge | Padd ->
    false

(* normalize operand order of commutative operators so [a+b] and [b+a]
   share a key *)
let binop_key op a b =
  if commutative op && compare b a < 0 then Kbinop (op, b, a)
  else Kbinop (op, a, b)

let rec cse_exp env subst e =
  let sa = subst_atom subst in
  match e with
  | Let_unop (v, t, op, a, rest) -> (
    let a = sa a in
    let key = Kunop (op, a) in
    match Cse_map.find_opt key env with
    | Some prior -> cse_exp env (Var.Map.add v prior subst) rest
    | None ->
      Let_unop
        (v, t, op, a, cse_exp (Cse_map.add key (Var v) env) subst rest))
  | Let_binop (v, t, op, a, b, rest) -> (
    let a = sa a and b = sa b in
    let key = binop_key op a b in
    match Cse_map.find_opt key env with
    | Some prior -> cse_exp env (Var.Map.add v prior subst) rest
    | None ->
      Let_binop
        (v, t, op, a, b, cse_exp (Cse_map.add key (Var v) env) subst rest))
  | Let_atom (v, t, a, rest) -> Let_atom (v, t, sa a, cse_exp env subst rest)
  | Let_cast (v, t, a, rest) -> Let_cast (v, t, sa a, cse_exp env subst rest)
  | Let_tuple (v, fields, rest) ->
    Let_tuple
      (v, List.map (fun (t, a) -> t, sa a) fields, cse_exp env subst rest)
  | Let_array (v, t, size, init, rest) ->
    Let_array (v, t, sa size, sa init, cse_exp env subst rest)
  | Let_string (v, str, rest) -> Let_string (v, str, cse_exp env subst rest)
  | Let_proj (v, t, a, i, rest) ->
    Let_proj (v, t, sa a, i, cse_exp env subst rest)
  | Set_proj (a, i, x, rest) ->
    Set_proj (sa a, i, sa x, cse_exp env subst rest)
  | Let_load (v, t, a, i, rest) ->
    Let_load (v, t, sa a, sa i, cse_exp env subst rest)
  | Store (a, i, x, rest) -> Store (sa a, sa i, sa x, cse_exp env subst rest)
  | Let_ext (v, t, name, args, rest) ->
    Let_ext (v, t, name, List.map sa args, cse_exp env subst rest)
  | If (a, e1, e2) -> If (sa a, cse_exp env subst e1, cse_exp env subst e2)
  | Switch (a, cases, default) ->
    Switch
      ( sa a,
        List.map (fun (n, e) -> n, cse_exp env subst e) cases,
        cse_exp env subst default )
  | Call (f, args) -> Call (sa f, List.map sa args)
  | Exit a -> Exit (sa a)
  | Migrate (i, dst, f, args) -> Migrate (i, sa dst, sa f, List.map sa args)
  | Speculate (f, args) -> Speculate (sa f, List.map sa args)
  | Commit (l, f, args) -> Commit (sa l, sa f, List.map sa args)
  | Rollback (l, c) -> Rollback (sa l, sa c)

let eliminate_common_subexpressions e = cse_exp Cse_map.empty Var.Map.empty e

(* ------------------------------------------------------------------ *)
(* Dead-code elimination (pure, unused lets).                          *)
(* ------------------------------------------------------------------ *)

let rec eliminate_dead e =
  match e with
  | Let_atom (v, t, a, e) ->
    let e = eliminate_dead e in
    if Var.Set.mem v (free_vars e) then Let_atom (v, t, a, e) else e
  | Let_cast (v, t, a, e) ->
    (* casts can trap; never eliminated *)
    Let_cast (v, t, a, eliminate_dead e)
  | Let_unop (v, t, op, a, e) ->
    let e = eliminate_dead e in
    if Var.Set.mem v (free_vars e) then Let_unop (v, t, op, a, e) else e
  | Let_binop (v, t, op, a, b, e) ->
    let e = eliminate_dead e in
    (* Div/Rem can trap; keep them. *)
    let can_trap = match op with Div | Rem -> true | _ -> false in
    if can_trap || Var.Set.mem v (free_vars e) then
      Let_binop (v, t, op, a, b, e)
    else e
  | Let_tuple (v, fields, e) ->
    let e = eliminate_dead e in
    if Var.Set.mem v (free_vars e) then Let_tuple (v, fields, e) else e
  | Let_array (v, t, size, init, e) ->
    let e = eliminate_dead e in
    if Var.Set.mem v (free_vars e) then Let_array (v, t, size, init, e) else e
  | Let_string (v, s, e) ->
    let e = eliminate_dead e in
    if Var.Set.mem v (free_vars e) then Let_string (v, s, e) else e
  | Let_proj (v, t, a, i, e) ->
    (* loads can trap on invalid pointers; projections on nil likewise *)
    Let_proj (v, t, a, i, eliminate_dead e)
  | Set_proj (a, i, x, e) -> Set_proj (a, i, x, eliminate_dead e)
  | Let_load (v, t, a, i, e) -> Let_load (v, t, a, i, eliminate_dead e)
  | Store (a, i, x, e) -> Store (a, i, x, eliminate_dead e)
  | Let_ext (v, t, name, args, e) ->
    (* externs are effectful; never eliminated *)
    Let_ext (v, t, name, args, eliminate_dead e)
  | If (a, e1, e2) -> If (a, eliminate_dead e1, eliminate_dead e2)
  | Switch (a, cases, default) ->
    Switch
      ( a,
        List.map (fun (n, e) -> n, eliminate_dead e) cases,
        eliminate_dead default )
  | (Call _ | Exit _ | Migrate _ | Speculate _ | Commit _ | Rollback _) as e
    ->
    e

(* ------------------------------------------------------------------ *)
(* Inlining.                                                           *)
(* ------------------------------------------------------------------ *)

let default_inline_threshold = 24

(* A function is inlinable at a call site if it is small, its body does
   not contain migration points or speculation operations, and it does
   not name itself.  Pseudo-instructions record a resume label /
   continuation identity, which must stay stable across recompilations
   (paper, Section 4.2.1 — the label [i] correlates runtime execution
   points with FIR points).  A self-recursive function is a loop:
   inlining it would only unroll it, growing every call site by copies
   of the body. *)
let rec has_pseudo = function
  | Migrate _ | Speculate _ | Commit _ | Rollback _ -> true
  | Let_atom (_, _, _, e)
  | Let_cast (_, _, _, e)
  | Let_unop (_, _, _, _, e)
  | Let_binop (_, _, _, _, _, e)
  | Let_tuple (_, _, e)
  | Let_array (_, _, _, _, e)
  | Let_string (_, _, e)
  | Let_proj (_, _, _, _, e)
  | Set_proj (_, _, _, e)
  | Let_load (_, _, _, _, e)
  | Store (_, _, _, e)
  | Let_ext (_, _, _, _, e) ->
    has_pseudo e
  | If (_, e1, e2) -> has_pseudo e1 || has_pseudo e2
  | Switch (_, cases, default) ->
    List.exists (fun (_, e) -> has_pseudo e) cases || has_pseudo default
  | Call _ | Exit _ -> false

let inlinable ~threshold fd =
  exp_size fd.f_body <= threshold
  && (not (has_pseudo fd.f_body))
  && not (List.mem fd.f_name (called_funs fd.f_body))

let rec inline_exp p ~threshold ~depth e =
  if depth <= 0 then e
  else
    match e with
    | Call (Fun f, args) -> (
      match find_fun p f with
      | Some fd
        when inlinable ~threshold fd
             && List.length fd.f_params = List.length args ->
        let env =
          List.fold_left2
            (fun env (v, _) a -> Var.Map.add v a env)
            Var.Map.empty fd.f_params args
        in
        let body = subst_exp ~rename:true env fd.f_body in
        inline_exp p ~threshold ~depth:(depth - 1) body
      | Some _ | None -> e)
    | Let_atom (v, t, a, e) ->
      Let_atom (v, t, a, inline_exp p ~threshold ~depth e)
    | Let_cast (v, t, a, e) ->
      Let_cast (v, t, a, inline_exp p ~threshold ~depth e)
    | Let_unop (v, t, op, a, e) ->
      Let_unop (v, t, op, a, inline_exp p ~threshold ~depth e)
    | Let_binop (v, t, op, a, b, e) ->
      Let_binop (v, t, op, a, b, inline_exp p ~threshold ~depth e)
    | Let_tuple (v, fields, e) ->
      Let_tuple (v, fields, inline_exp p ~threshold ~depth e)
    | Let_array (v, t, size, init, e) ->
      Let_array (v, t, size, init, inline_exp p ~threshold ~depth e)
    | Let_string (v, s, e) ->
      Let_string (v, s, inline_exp p ~threshold ~depth e)
    | Let_proj (v, t, a, i, e) ->
      Let_proj (v, t, a, i, inline_exp p ~threshold ~depth e)
    | Set_proj (a, i, x, e) ->
      Set_proj (a, i, x, inline_exp p ~threshold ~depth e)
    | Let_load (v, t, a, i, e) ->
      Let_load (v, t, a, i, inline_exp p ~threshold ~depth e)
    | Store (a, i, x, e) -> Store (a, i, x, inline_exp p ~threshold ~depth e)
    | Let_ext (v, t, name, args, e) ->
      Let_ext (v, t, name, args, inline_exp p ~threshold ~depth e)
    | If (a, e1, e2) ->
      If
        ( a,
          inline_exp p ~threshold ~depth e1,
          inline_exp p ~threshold ~depth e2 )
    | Switch (a, cases, default) ->
      Switch
        ( a,
          List.map (fun (n, e) -> n, inline_exp p ~threshold ~depth e) cases,
          inline_exp p ~threshold ~depth default )
    | (Call _ | Exit _ | Migrate _ | Speculate _ | Commit _ | Rollback _) as
      e ->
      e

(* ------------------------------------------------------------------ *)
(* Reachability.                                                       *)
(* ------------------------------------------------------------------ *)

(* Functions reachable from main through [Fun] atoms.  Unreachable
   functions are dropped: this keeps migrated images small. *)
let reachable p =
  let seen = Hashtbl.create 64 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      match find_fun p name with
      | Some fd -> List.iter visit (called_funs fd.f_body)
      | None -> ()
    end
  in
  visit p.p_main;
  seen

let remove_unreachable p =
  let live = reachable p in
  let funs =
    String_map.filter (fun name _ -> Hashtbl.mem live name) p.p_funs
  in
  { p with p_funs = funs }

(* ------------------------------------------------------------------ *)
(* The pass pipeline.                                                  *)
(* ------------------------------------------------------------------ *)

let optimize_exp ?(threshold = default_inline_threshold) p e =
  let e = simplify Var.Map.empty Var.Map.empty e in
  let e = inline_exp p ~threshold ~depth:3 e in
  let e = simplify Var.Map.empty Var.Map.empty e in
  let e = eliminate_common_subexpressions e in
  eliminate_dead e

let optimize ?(threshold = default_inline_threshold) p =
  let p = map_funs (fun fd -> { fd with f_body = optimize_exp ~threshold p fd.f_body }) p in
  remove_unreachable p
