(* Mini-C typechecker.

   Produces a typed AST annotated with the two pieces of information the
   CPS lowering needs:

   - [tsplits]: whether evaluating the subtree performs a CONTINUATION
     SPLIT (a user-function call or one of speculate/commit/migrate).  At
     a split the rest of the computation moves into a fresh FIR function,
     so values computed earlier in the same expression would die with the
     old function's scope.
   - [ttemp]: for every value that must survive a later sibling's split,
     the name of a frame temporary (a hidden local) the lowering spills it
     into.  Temporaries are just extra locals; the lowering gives every
     local a slot in the activation's heap frame, so spilled values ride
     in the heap across splits (exactly like the paper's migrate_env
     discipline: live data in the heap, nothing in registers).

   The pass also collects the function's frame: parameters, declared
   locals (function-scoped, duplicates rejected), and generated
   temporaries. *)

open Ast

exception Error of string

let err pos fmt =
  Printf.ksprintf
    (fun s -> raise (Error (Printf.sprintf "%d:%d: %s" pos.line pos.col s)))
    fmt

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

type builtin_kind =
  | Bext of string (* plain extern under this runtime name *)
  | Bspeculate
  | Bcommit
  | Babort
  | Bmigrate
  | Balloc of cty (* element type *)

type builtin = {
  b_args : cty list;
  b_ret : cty;
  b_kind : builtin_kind;
}

let builtins : (string * builtin) list =
  [
    "print_int", { b_args = [ Cint ]; b_ret = Cvoid; b_kind = Bext "print_int" };
    ( "print_float",
      { b_args = [ Cfloat ]; b_ret = Cvoid; b_kind = Bext "print_float" } );
    ( "print_str",
      { b_args = [ Cstr ]; b_ret = Cvoid; b_kind = Bext "print_string" } );
    "print_nl", { b_args = []; b_ret = Cvoid; b_kind = Bext "print_newline" };
    "rand", { b_args = [ Cint ]; b_ret = Cint; b_kind = Bext "rand" };
    "sqrtf", { b_args = [ Cfloat ]; b_ret = Cfloat; b_kind = Bext "float_sqrt" };
    "fabsf", { b_args = [ Cfloat ]; b_ret = Cfloat; b_kind = Bext "float_abs" };
    "spec_level", { b_args = []; b_ret = Cint; b_kind = Bext "spec_level" };
    "heap_used", { b_args = []; b_ret = Cint; b_kind = Bext "heap_used" };
    "pid", { b_args = []; b_ret = Cint; b_kind = Bext "pid" };
    "rank", { b_args = []; b_ret = Cint; b_kind = Bext "rank" };
    "sim_now_us", { b_args = []; b_ret = Cint; b_kind = Bext "sim_now_us" };
    "cycles", { b_args = []; b_ret = Cint; b_kind = Bext "cycles" };
    "gc_minor", { b_args = []; b_ret = Cvoid; b_kind = Bext "gc_minor" };
    "work_us", { b_args = [ Cint ]; b_ret = Cvoid; b_kind = Bext "work_us" };
    "gc_major", { b_args = []; b_ret = Cvoid; b_kind = Bext "gc_major" };
    ( "msg_send",
      { b_args = [ Cint; Cint; Cptr Cfloat; Cint ]; b_ret = Cint;
        b_kind = Bext "msg_send" } );
    ( "msg_try_recv",
      { b_args = [ Cint; Cint; Cptr Cfloat; Cint ]; b_ret = Cint;
        b_kind = Bext "msg_try_recv" } );
    ( "msg_send_int",
      { b_args = [ Cint; Cint; Cptr Cint; Cint ]; b_ret = Cint;
        b_kind = Bext "msg_send_int" } );
    ( "msg_try_recv_int",
      { b_args = [ Cint; Cint; Cptr Cint; Cint ]; b_ret = Cint;
        b_kind = Bext "msg_try_recv_int" } );
    (* location-transparent messaging: send by logical address, receive
       from any source, and the request-latency probe *)
    ( "svc_send",
      { b_args = [ Cint; Cint; Cptr Cfloat; Cint ]; b_ret = Cint;
        b_kind = Bext "svc_send" } );
    ( "svc_resolve",
      { b_args = [ Cint ]; b_ret = Cint; b_kind = Bext "svc_resolve" } );
    "svc_self", { b_args = []; b_ret = Cint; b_kind = Bext "svc_self" };
    ( "msg_try_recv_any",
      { b_args = [ Cint; Cptr Cfloat; Cint ]; b_ret = Cint;
        b_kind = Bext "msg_try_recv_any" } );
    "lat_us", { b_args = [ Cint ]; b_ret = Cvoid; b_kind = Bext "lat_us" };
    ( "obj_read",
      { b_args = [ Cint; Cptr Cint; Cint ]; b_ret = Cint;
        b_kind = Bext "obj_read" } );
    ( "obj_write",
      { b_args = [ Cint; Cptr Cint; Cint ]; b_ret = Cint;
        b_kind = Bext "obj_write" } );
    ( "fs_write",
      { b_args = [ Cstr; Cptr Cint; Cint ]; b_ret = Cint;
        b_kind = Bext "fs_write" } );
    ( "fs_read",
      { b_args = [ Cstr; Cptr Cint; Cint ]; b_ret = Cint;
        b_kind = Bext "fs_read" } );
    ( "fs_size",
      { b_args = [ Cstr ]; b_ret = Cint; b_kind = Bext "fs_size" } );
    (* distributed speculation: open/decide an epoch-fenced transaction
       over the current level, and the participant's pre-commit barrier *)
    ( "dspec_open",
      { b_args = []; b_ret = Cint; b_kind = Bext "dspec_open" } );
    ( "dspec_commit",
      { b_args = [ Cint ]; b_ret = Cint; b_kind = Bext "dspec_commit" } );
    ( "spec_pending",
      { b_args = []; b_ret = Cint; b_kind = Bext "spec_pending" } );
    "speculate", { b_args = []; b_ret = Cint; b_kind = Bspeculate };
    "commit", { b_args = [ Cint ]; b_ret = Cvoid; b_kind = Bcommit };
    "abort", { b_args = [ Cint ]; b_ret = Cvoid; b_kind = Babort };
    "migrate", { b_args = [ Cstr ]; b_ret = Cvoid; b_kind = Bmigrate };
    "alloc_int", { b_args = [ Cint ]; b_ret = Cptr Cint; b_kind = Balloc Cint };
    ( "alloc_float",
      { b_args = [ Cint ]; b_ret = Cptr Cfloat; b_kind = Balloc Cfloat } );
  ]

(* ------------------------------------------------------------------ *)
(* Typed AST                                                           *)
(* ------------------------------------------------------------------ *)

type texpr = {
  td : tdesc;
  tty : cty;
  mutable ttemp : string option;
  tsplits : bool;
  tpos : pos;
}

and tdesc =
  | Tint_lit of int
  | Tfloat_lit of float
  | Tstr_lit of string
  | Tvar of string
  | Tindex of texpr * texpr
  | Tunop of unop * texpr
  | Tbinop of binop * texpr * texpr
  | Tcall_user of string * texpr list
  | Tcall_builtin of builtin_kind * texpr list
  | Tcast of cty * texpr

type tstmt =
  | TSassign of string * texpr
  | TSindex_assign of texpr * texpr * texpr
  | TSif of texpr * tstmt list * tstmt list
  | TSwhile of texpr * tstmt list
  | TSfor_loop of tstmt option * texpr option * tstmt option * tstmt list
  | TSreturn of texpr option
  | TSexpr of texpr
  | TSbreak
  | TScontinue

type tfun = {
  tf_name : string;
  tf_ret : cty;
  tf_params : (cty * string) list;
  tf_locals : (cty * string) list; (* declared locals + temporaries *)
  tf_body : tstmt list;
}

type csig = { cs_params : cty list; cs_ret : cty }

type tprogram = {
  tp_funs : tfun list;
  tp_sigs : (string * csig) list;
}

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)
(* ------------------------------------------------------------------ *)

type fenv = {
  sigs : (string, csig) Hashtbl.t;
  vars : (string, cty) Hashtbl.t; (* declared so far (lexically) *)
  all_names : (string, unit) Hashtbl.t; (* for duplicate detection *)
  mutable locals : (cty * string) list; (* reverse order *)
  mutable temp_counter : int;
  ret : cty;
}

let new_temp fenv ty =
  let name = Printf.sprintf "$t%d" fenv.temp_counter in
  fenv.temp_counter <- fenv.temp_counter + 1;
  fenv.locals <- (ty, name) :: fenv.locals;
  name

(* spill [e] into a temporary if a later sibling splits *)
let spill fenv e later_splits =
  if later_splits && e.ttemp = None then
    match e.td with
    | Tint_lit _ | Tfloat_lit _ -> () (* constants rebuild for free *)
    | _ -> e.ttemp <- Some (new_temp fenv e.tty)

let rec check_expr fenv (e : expr) : texpr =
  let mk td tty tsplits = { td; tty; ttemp = None; tsplits; tpos = e.epos } in
  match e.e with
  | Eint n -> mk (Tint_lit n) Cint false
  | Efloat f -> mk (Tfloat_lit f) Cfloat false
  | Estr s -> mk (Tstr_lit s) Cstr false
  | Evar x -> (
    match Hashtbl.find_opt fenv.vars x with
    | Some ty -> mk (Tvar x) ty false
    | None -> err e.epos "undeclared variable %s" x)
  | Eindex (base, idx) -> (
    let tb = check_expr fenv base in
    let ti = check_expr fenv idx in
    if not (cty_equal ti.tty Cint) then
      err idx.epos "index has type %s, expected int" (cty_to_string ti.tty);
    spill fenv tb ti.tsplits;
    match tb.tty with
    | Cptr elt -> mk (Tindex (tb, ti)) elt (tb.tsplits || ti.tsplits)
    | Cstr -> mk (Tindex (tb, ti)) Cint (tb.tsplits || ti.tsplits)
    | t -> err base.epos "indexing a non-pointer of type %s" (cty_to_string t))
  | Eunop (op, a) -> (
    let ta = check_expr fenv a in
    match op, ta.tty with
    | Uneg, Cint -> mk (Tunop (op, ta)) Cint ta.tsplits
    | Uneg, Cfloat -> mk (Tunop (op, ta)) Cfloat ta.tsplits
    | Unot, Cint -> mk (Tunop (op, ta)) Cint ta.tsplits
    | _, t ->
      err e.epos "unary operator applied to %s" (cty_to_string t))
  | Ebinop (op, a, b) -> (
    let ta = check_expr fenv a in
    let tb = check_expr fenv b in
    spill fenv ta tb.tsplits;
    let splits = ta.tsplits || tb.tsplits in
    let arith = [ Badd; Bsub; Bmul; Bdiv ] in
    let int_only = [ Brem; Band; Bor; Bxor; Bshl; Bshr; Bland; Blor ] in
    let cmp = [ Beq; Bne; Blt; Ble; Bgt; Bge ] in
    match ta.tty, tb.tty with
    | Cint, Cint when List.mem op arith || List.mem op int_only ->
      mk (Tbinop (op, ta, tb)) Cint splits
    | Cint, Cint when List.mem op cmp -> mk (Tbinop (op, ta, tb)) Cint splits
    | Cfloat, Cfloat when List.mem op arith ->
      mk (Tbinop (op, ta, tb)) Cfloat splits
    | Cfloat, Cfloat when List.mem op cmp ->
      mk (Tbinop (op, ta, tb)) Cint splits
    | Cptr _, Cint when op = Badd || op = Bsub ->
      mk (Tbinop (op, ta, tb)) ta.tty splits
    | Cstr, Cint when op = Badd -> mk (Tbinop (op, ta, tb)) Cstr splits
    | (Cptr _ | Cstr), (Cptr _ | Cstr)
      when (op = Beq || op = Bne) && cty_equal ta.tty tb.tty ->
      mk (Tbinop (op, ta, tb)) Cint splits
    | t1, t2 ->
      err e.epos "operator applied to %s and %s" (cty_to_string t1)
        (cty_to_string t2))
  | Ecast (ty, a) -> (
    let ta = check_expr fenv a in
    match ty, ta.tty with
    | Cint, Cfloat | Cfloat, Cint -> mk (Tcast (ty, ta)) ty ta.tsplits
    | t1, t2 when cty_equal t1 t2 -> ta
    | t1, t2 ->
      err e.epos "unsupported cast from %s to %s" (cty_to_string t2)
        (cty_to_string t1))
  | Ecall (name, args) -> (
    let targs = check_expr_list fenv args in
    match List.assoc_opt name builtins with
    | Some b ->
      check_args e.epos name b.b_args targs;
      let splits =
        List.exists (fun a -> a.tsplits) targs
        ||
        match b.b_kind with
        | Bspeculate | Bcommit | Babort | Bmigrate -> true
        | Bext _ | Balloc _ -> false
      in
      mk (Tcall_builtin (b.b_kind, targs)) b.b_ret splits
    | None -> (
      match Hashtbl.find_opt fenv.sigs name with
      | Some cs ->
        check_args e.epos name cs.cs_params targs;
        mk (Tcall_user (name, targs)) cs.cs_ret true
      | None -> err e.epos "call to undefined function %s" name))

(* arguments evaluate left to right; any argument followed by a splitting
   sibling is spilled *)
and check_expr_list fenv args =
  let targs = List.map (check_expr fenv) args in
  let rec mark = function
    | [] -> ()
    | a :: rest ->
      let later = List.exists (fun b -> b.tsplits) rest in
      spill fenv a later;
      mark rest
  in
  mark targs;
  targs

and check_args pos name want got =
  if List.length want <> List.length got then
    err pos "%s expects %d arguments, got %d" name (List.length want)
      (List.length got);
  List.iteri
    (fun i (w, g) ->
      if not (cty_equal w g.tty) then
        err g.tpos "%s: argument %d has type %s, expected %s" name (i + 1)
          (cty_to_string g.tty) (cty_to_string w))
    (List.combine want got)

let check_cond fenv (e : expr) =
  let te = check_expr fenv e in
  if not (cty_equal te.tty Cint) then
    err e.epos "condition has type %s, expected int" (cty_to_string te.tty);
  te

let rec check_stmt fenv ~in_loop (s : stmt) : tstmt =
  match s.s with
  | Sdecl (ty, name, init) ->
    if cty_equal ty Cvoid then err s.spos "void variable %s" name;
    if Hashtbl.mem fenv.all_names name then
      err s.spos "duplicate declaration of %s (mini-C locals are \
                  function-scoped)" name;
    Hashtbl.replace fenv.all_names name ();
    Hashtbl.replace fenv.vars name ty;
    fenv.locals <- (ty, name) :: fenv.locals;
    (match init with
    | None ->
      (* no initializer: the cell keeps its default *)
      TSexpr
        { td = Tint_lit 0; tty = Cint; ttemp = None; tsplits = false;
          tpos = s.spos }
    | Some e ->
      let te = check_expr fenv e in
      if not (cty_equal te.tty ty) then
        err e.epos "initializer for %s has type %s, expected %s" name
          (cty_to_string te.tty) (cty_to_string ty);
      TSassign (name, te))
  | Sassign (x, e) -> (
    match Hashtbl.find_opt fenv.vars x with
    | None -> err s.spos "assignment to undeclared variable %s" x
    | Some ty ->
      let te = check_expr fenv e in
      if not (cty_equal te.tty ty) then
        err e.epos "assigning %s to %s : %s" (cty_to_string te.tty) x
          (cty_to_string ty);
      TSassign (x, te))
  | Sindex_assign (base, idx, v) -> (
    let tb = check_expr fenv base in
    let ti = check_expr fenv idx in
    let tv = check_expr fenv v in
    if not (cty_equal ti.tty Cint) then
      err idx.epos "index has type %s, expected int" (cty_to_string ti.tty);
    spill fenv tb (ti.tsplits || tv.tsplits);
    spill fenv ti tv.tsplits;
    match tb.tty with
    | Cptr elt when cty_equal elt tv.tty -> TSindex_assign (tb, ti, tv)
    | Cstr when cty_equal tv.tty Cint -> TSindex_assign (tb, ti, tv)
    | t ->
      err v.epos "storing %s into %s[]" (cty_to_string tv.tty)
        (cty_to_string t))
  | Sif (c, thn, els) ->
    let tc = check_cond fenv c in
    TSif (tc, check_stmts fenv ~in_loop thn, check_stmts fenv ~in_loop els)
  | Swhile (c, body) ->
    let tc = check_cond fenv c in
    TSwhile (tc, check_stmts fenv ~in_loop:true body)
  | Sfor (init, cond, inc, body) ->
    let tinit = Option.map (check_stmt fenv ~in_loop) init in
    let tcond = Option.map (check_cond fenv) cond in
    let tinc = Option.map (check_stmt fenv ~in_loop:true) inc in
    TSfor_loop (tinit, tcond, tinc, check_stmts fenv ~in_loop:true body)
  | Sreturn None ->
    if not (cty_equal fenv.ret Cvoid) then
      err s.spos "return without a value in a %s function"
        (cty_to_string fenv.ret);
    TSreturn None
  | Sreturn (Some e) ->
    let te = check_expr fenv e in
    if cty_equal fenv.ret Cvoid then err e.epos "returning a value from void";
    if not (cty_equal te.tty fenv.ret) then
      err e.epos "returning %s from a %s function" (cty_to_string te.tty)
        (cty_to_string fenv.ret);
    TSreturn (Some te)
  | Sexpr e -> TSexpr (check_expr fenv e)
  | Sbreak ->
    if not in_loop then err s.spos "break outside a loop";
    TSbreak
  | Scontinue ->
    if not in_loop then err s.spos "continue outside a loop";
    TScontinue

and check_stmts fenv ~in_loop stmts = List.map (check_stmt fenv ~in_loop) stmts

let check_fun sigs (fd : fundecl) : tfun =
  let fenv =
    {
      sigs;
      vars = Hashtbl.create 16;
      all_names = Hashtbl.create 16;
      locals = [];
      temp_counter = 0;
      ret = fd.fd_ret;
    }
  in
  List.iter
    (fun (ty, name) ->
      if Hashtbl.mem fenv.all_names name then
        err fd.fd_pos "duplicate parameter %s" name;
      if cty_equal ty Cvoid then err fd.fd_pos "void parameter %s" name;
      Hashtbl.replace fenv.all_names name ();
      Hashtbl.replace fenv.vars name ty)
    fd.fd_params;
  let body = check_stmts fenv ~in_loop:false fd.fd_body in
  {
    tf_name = fd.fd_name;
    tf_ret = fd.fd_ret;
    tf_params = fd.fd_params;
    tf_locals = List.rev fenv.locals;
    tf_body = body;
  }

let check_program (p : program) : tprogram =
  let sigs = Hashtbl.create 16 in
  List.iter
    (fun fd ->
      if Hashtbl.mem sigs fd.fd_name then
        err fd.fd_pos "duplicate function %s" fd.fd_name;
      if List.mem_assoc fd.fd_name builtins then
        err fd.fd_pos "%s shadows a builtin" fd.fd_name;
      Hashtbl.replace sigs fd.fd_name
        { cs_params = List.map fst fd.fd_params; cs_ret = fd.fd_ret })
    p;
  (match Hashtbl.find_opt sigs "main" with
  | Some { cs_params = []; cs_ret = Cint } -> ()
  | Some _ -> raise (Error "main must be declared as: int main()")
  | None -> raise (Error "no main function"));
  let funs = List.map (check_fun sigs) p in
  {
    tp_funs = funs;
    tp_sigs =
      Hashtbl.fold (fun name cs acc -> (name, cs) :: acc) sigs [];
  }
