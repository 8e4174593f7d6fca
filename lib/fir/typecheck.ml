(* FIR typechecker.

   This is the safety check run by a migration target before resuming a
   received process (paper, Section 4.2): the FIR is re-typechecked so that
   a malicious or corrupted image cannot make the runtime perform unsafe
   heap accesses.  It is also run after every front-end lowering and after
   every optimizer pass in the compile pipeline.

   External functions are typechecked against a signature lookup supplied by
   the caller; an unknown external is an error under [~strict:true] (the
   migration-server setting) and trusted otherwise. *)

open Ast

exception Type_error of string

type extern_lookup = string -> (Types.ty list * Types.ty) option

let err fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let type_of_atom p env = function
  | Unit -> Types.Tunit
  | Int _ -> Types.Tint
  | Float _ -> Types.Tfloat
  | Bool _ -> Types.Tbool
  | Enum (card, v) ->
    if v < 0 || v >= card then err "enum value %d out of range [0,%d)" v card;
    Types.Tenum card
  | Var v -> (
    match Var.Map.find_opt v env with
    | Some t -> t
    | None -> err "unbound variable %s" (Var.to_string v))
  | Fun f -> (
    match find_fun p f with
    | Some fd -> Types.Tfun (signature fd)
    | None -> err "unknown function @@%s" f)
  | Nil t ->
    if Types.is_reference t then t
    else err "nil of non-reference type %s" (Types.to_string t)

(* Assignment compatibility: a [Tany] sink accepts any value (the upcast
   is representation-free; reading back requires a checked [Let_cast]). *)
let assignable ~expected t =
  Types.equal expected t || Types.equal expected Types.Tany

let check_atom p env expected a =
  let t = type_of_atom p env a in
  if not (assignable ~expected t) then
    err "atom %s has type %s, expected %s"
      (Format.asprintf "%a" Pp.pp_atom a)
      (Types.to_string t) (Types.to_string expected)

let unop_signature op arg_ty =
  match op, arg_ty with
  | Neg, Types.Tint -> Types.Tint
  | Not, Types.Tbool -> Types.Tbool
  | Fneg, Types.Tfloat -> Types.Tfloat
  | Int_of_float, Types.Tfloat -> Types.Tint
  | Float_of_int, Types.Tint -> Types.Tfloat
  | Int_of_bool, Types.Tbool -> Types.Tint
  | Int_of_enum, Types.Tenum _ -> Types.Tint
  | ( (Neg | Not | Fneg | Int_of_float | Float_of_int | Int_of_bool
      | Int_of_enum),
      t ) ->
    err "unary %s applied to %s" (Pp.unop_to_string op) (Types.to_string t)

let binop_signature op ta tb =
  let open Types in
  let int_arith = function
    | Add | Sub | Mul | Div | Rem | Band | Bor | Bxor | Shl | Shr -> true
    | _ -> false
  in
  let int_cmp = function Eq | Ne | Lt | Le | Gt | Ge -> true | _ -> false in
  let float_arith = function Fadd | Fsub | Fmul | Fdiv -> true | _ -> false in
  let float_cmp = function
    | Feq | Fne | Flt | Fle | Fgt | Fge -> true
    | _ -> false
  in
  match op, ta, tb with
  | op, Tint, Tint when int_arith op -> Tint
  | op, Tint, Tint when int_cmp op -> Tbool
  | op, Tfloat, Tfloat when float_arith op -> Tfloat
  | op, Tfloat, Tfloat when float_cmp op -> Tbool
  | (And | Or), Tbool, Tbool -> Tbool
  | Padd, Tptr t, Tint -> Tptr t
  | Padd, Traw, Tint -> Traw
  | Peq, Tptr a, Tptr b when equal a b -> Tbool
  | Peq, Traw, Traw -> Tbool
  | Peq, Ttuple a, Ttuple b when equal (Ttuple a) (Ttuple b) -> Tbool
  | op, ta, tb ->
    err "binary %s applied to %s and %s" (Pp.binop_to_string op)
      (to_string ta) (to_string tb)

let check_fun_atom p env f args_tys what =
  match type_of_atom p env f with
  | Types.Tfun tys ->
    if List.length tys <> List.length args_tys then
      err "%s: arity mismatch (%d parameters, %d arguments)" what
        (List.length tys) (List.length args_tys)
    else
      List.iteri
        (fun i (want, got) ->
          if not (assignable ~expected:want got) then
            err "%s: argument %d has type %s, expected %s" what i
              (Types.to_string got) (Types.to_string want))
        (List.combine tys args_tys)
  | t -> err "%s: callee has non-function type %s" what (Types.to_string t)

let rec check_exp p ~strict ~externs env = function
  | Let_atom (v, t, a, e) ->
    (* any value may be bound at type Tany (upcast is representation-free) *)
    if Types.equal t Types.Tany then ignore (type_of_atom p env a)
    else check_atom p env t a;
    check_exp p ~strict ~externs (Var.Map.add v t env) e
  | Let_cast (v, t, a, e) ->
    (* checked downcast, normally from Tany; any source type is accepted
       statically because the representation check happens at runtime (and
       optimizer passes may substitute concrete atoms into cast
       positions) *)
    ignore (type_of_atom p env a);
    if Types.equal t Types.Tany then err "cast to any is never needed";
    check_exp p ~strict ~externs (Var.Map.add v t env) e
  | Let_unop (v, t, op, a, e) ->
    let ta = type_of_atom p env a in
    let tr = unop_signature op ta in
    if not (Types.equal t tr) then
      err "let %s: unop result is %s, annotated %s" (Var.to_string v)
        (Types.to_string tr) (Types.to_string t);
    check_exp p ~strict ~externs (Var.Map.add v t env) e
  | Let_binop (v, t, op, a, b, e) ->
    let tr = binop_signature op (type_of_atom p env a) (type_of_atom p env b) in
    if not (Types.equal t tr) then
      err "let %s: binop result is %s, annotated %s" (Var.to_string v)
        (Types.to_string tr) (Types.to_string t);
    check_exp p ~strict ~externs (Var.Map.add v t env) e
  | Let_tuple (v, fields, e) ->
    List.iter (fun (t, a) -> check_atom p env t a) fields;
    let t = Types.Ttuple (List.map fst fields) in
    check_exp p ~strict ~externs (Var.Map.add v t env) e
  | Let_array (v, t, size, init, e) ->
    check_atom p env Types.Tint size;
    check_atom p env t init;
    check_exp p ~strict ~externs (Var.Map.add v (Types.Tptr t) env) e
  | Let_string (v, _, e) ->
    check_exp p ~strict ~externs (Var.Map.add v Types.Traw env) e
  | Let_proj (v, t, a, i, e) -> (
    match type_of_atom p env a with
    | Types.Ttuple tys ->
      if i < 0 || i >= List.length tys then
        err "projection .%d out of bounds for %d-tuple" i (List.length tys);
      let ti = List.nth tys i in
      if not (Types.equal t ti) then
        err "projection .%d has type %s, annotated %s" i (Types.to_string ti)
          (Types.to_string t);
      check_exp p ~strict ~externs (Var.Map.add v t env) e
    | t -> err "projection from non-tuple type %s" (Types.to_string t))
  | Set_proj (a, i, x, e) -> (
    match type_of_atom p env a with
    | Types.Ttuple tys ->
      if i < 0 || i >= List.length tys then
        err "projection .%d out of bounds for %d-tuple" i (List.length tys);
      check_atom p env (List.nth tys i) x;
      check_exp p ~strict ~externs env e
    | t -> err "set-projection on non-tuple type %s" (Types.to_string t))
  | Let_load (v, t, a, i, e) ->
    check_atom p env Types.Tint i;
    (match type_of_atom p env a with
    | Types.Tptr telt ->
      if not (Types.equal t telt) then
        err "load has type %s, annotated %s" (Types.to_string telt)
          (Types.to_string t)
    | Types.Traw ->
      if not (Types.equal t Types.Tint) then
        err "raw load has type int, annotated %s" (Types.to_string t)
    | t -> err "load from non-array type %s" (Types.to_string t));
    check_exp p ~strict ~externs (Var.Map.add v t env) e
  | Store (a, i, x, e) ->
    check_atom p env Types.Tint i;
    (match type_of_atom p env a with
    | Types.Tptr telt -> check_atom p env telt x
    | Types.Traw -> check_atom p env Types.Tint x
    | t -> err "store to non-array type %s" (Types.to_string t));
    check_exp p ~strict ~externs env e
  | Let_ext (v, t, name, args, e) ->
    let arg_tys = List.map (type_of_atom p env) args in
    (match externs name with
    | Some (want_args, want_ret) ->
      if List.length want_args <> List.length arg_tys then
        err "extern %s: arity mismatch (%d parameters, %d arguments)" name
          (List.length want_args) (List.length arg_tys)
      else
        List.iteri
          (fun i (want, got) ->
            if not (Types.equal want got) then
              err "extern %s: argument %d has type %s, expected %s" name i
                (Types.to_string got) (Types.to_string want))
          (List.combine want_args arg_tys);
      if not (Types.equal t want_ret) then
        err "extern %s returns %s, annotated %s" name
          (Types.to_string want_ret) (Types.to_string t)
    | None -> if strict then err "unknown extern %s in strict mode" name);
    check_exp p ~strict ~externs (Var.Map.add v t env) e
  | If (a, e1, e2) ->
    check_atom p env Types.Tbool a;
    check_exp p ~strict ~externs env e1;
    check_exp p ~strict ~externs env e2
  | Switch (a, cases, default) ->
    (match type_of_atom p env a with
    | Types.Tint -> ()
    | Types.Tenum card ->
      List.iter
        (fun (n, _) ->
          if n < 0 || n >= card then
            err "switch case %d out of enum range [0,%d)" n card)
        cases
    | t -> err "switch on non-integer type %s" (Types.to_string t));
    List.iter (fun (_, e) -> check_exp p ~strict ~externs env e) cases;
    check_exp p ~strict ~externs env default
  | Call (f, args) ->
    check_fun_atom p env f (List.map (type_of_atom p env) args) "tail call"
  | Exit a -> check_atom p env Types.Tint a
  | Migrate (_, dst, f, args) ->
    check_atom p env Types.Traw dst;
    check_fun_atom p env f (List.map (type_of_atom p env) args) "migrate"
  | Speculate (f, args) ->
    let arg_tys = List.map (type_of_atom p env) args in
    check_fun_atom p env f (Types.Tint :: arg_tys) "speculate"
  | Commit (l, f, args) ->
    check_atom p env Types.Tint l;
    check_fun_atom p env f (List.map (type_of_atom p env) args) "commit"
  | Rollback (l, c) ->
    check_atom p env Types.Tint l;
    check_atom p env Types.Tint c

let check_fundef p ~strict ~externs fd =
  let env =
    List.fold_left
      (fun env (v, t) ->
        if Var.Map.mem v env then
          err "function %s: duplicate parameter %s" fd.f_name (Var.to_string v)
        else Var.Map.add v t env)
      Var.Map.empty fd.f_params
  in
  try check_exp p ~strict ~externs env fd.f_body
  with Type_error msg -> err "in function %s: %s" fd.f_name msg

let no_externs : extern_lookup = fun _ -> None

let check_program ?(strict = false) ?(externs = no_externs) p =
  match
    let main = fun_exn p p.p_main in
    if main.f_params <> [] then err "main function %s takes parameters"
        p.p_main;
    iter_funs (check_fundef p ~strict ~externs) p
  with
  | () -> Ok ()
  | exception Type_error msg -> Error msg

let well_typed ?strict ?externs p =
  match check_program ?strict ?externs p with Ok () -> true | Error _ -> false
