(* Mini-C -> FIR lowering.

   This is the transformation the paper describes for MCC front-ends
   (Section 3): "function calls in the source language are converted to
   tail-calls using continuation passing style; loops are expressed with
   recursive functions".  Concretely:

   - every mutable C local (and parameter, and compiler temporary) becomes
     a one-cell heap block; reads and writes are checked loads and stores.
     Nothing lives in FIR variables across a control transfer, which is
     precisely what makes whole-process state capture trivial;

   - within one straight-line segment (the body of one FIR function, up
     to its tail call) the lowerer remembers which atom holds each cell's
     current value: every store (a cell's initialisation included)
     records the stored atom, every first load records the loaded one,
     and a later read of the same local reuses it instead of loading
     again.  Each internal function starts with nothing
     remembered, so no value is carried across a control transfer.  This
     is sound because Mini-C has no [&]: a local's cell never aliases
     another cell or an array, and no extern or callee can write it; and
     every store still writes the cell, so state capture at a migrate,
     speculate or commit point sees exactly what it saw before;

   - a C function [R f(T a)] becomes the FIR function
       f(k : (any ptr, R') -> ., kenv : any ptr, a : T')
     where [k]/[kenv] are the closure-converted return continuation
     (code + environment, the environment being an array of [any]);

   - control-flow joins (after an if, loop back-edges, code following a
     call / speculate() / commit() / migrate()) become fresh internal FIR
     functions taking (k, kenv, frame cells...);

   - speculate()/commit(id)/abort(id)/migrate(target) lower to the FIR
     pseudo-instructions, with the rest of the C function as the
     continuation — the compiler generates all the state-management code,
     "removing the need for the user to implement hand-written
     checkpointing code" (paper, Section 1).

   C speculate() returns +level when a speculation is entered and -level
   when execution re-enters it after an abort (the retry), so Figure 1's
   `if ((specid = speculate()) > 0)` pattern works unchanged. *)

open Ast
open Typecheck
module F = Fir.Ast
module T = Fir.Types
module B = Fir.Builder

exception Error of string

let rec lower_ty = function
  | Cint -> T.Tint
  | Cfloat -> T.Tfloat
  | Cvoid -> T.Tint (* void functions return a dummy 0 *)
  | Cptr t -> T.Tptr (lower_ty t)
  | Cstr -> T.Traw

let default_atom = function
  | Cint | Cvoid -> F.Int 0
  | Cfloat -> F.Float 0.0
  | Cptr t -> F.Nil (T.Tptr (lower_ty t))
  | Cstr -> F.Nil T.Traw

(* C [main] collides with the FIR entry point, which takes no parameters;
   every other function keeps its own name. *)
let fir_name = function "main" -> "c$main" | n -> n

type state = {
  mutable fns : F.fundef list;
  mutable counter : int;
  labels : int ref; (* program-wide migration label counter *)
  cur_name : string;
  cur_ret : cty;
  frame : (string * cty) list; (* params then locals, in order *)
}

type env = {
  k : F.atom;
  kenv : F.atom;
  cells : (string * F.atom) list; (* frame order *)
  known : (string * F.atom) list;
      (* cell -> atom holding its current value, this segment only *)
}

type loop_ctx = {
  break_ : (env -> F.exp) option;
  continue_ : (env -> F.exp) option;
}

let no_loop = { break_ = None; continue_ = None }

(* The type of the current function's return continuation. *)
let cont_ty state = T.Tfun [ T.Tptr T.Tany; lower_ty state.cur_ret ]

let cell env x =
  match List.assoc_opt x env.cells with
  | Some a -> a
  | None -> raise (Error ("internal: no cell for " ^ x))

(* Store [v] into [x]'s cell and remember it for the rest of the
   segment. *)
let store_cell env x v (k : env -> F.exp) =
  F.Store (cell env x, F.Int 0, v, k { env with known = (x, v) :: env.known })

(* The current value of [x]: the atom the segment already holds, or a
   load of its cell, remembered from then on. *)
let load_cell env x ty (k : env -> F.atom -> F.exp) =
  match List.assoc_opt x env.known with
  | Some v -> k env v
  | None ->
    B.load ty (cell env x) (B.int 0) (fun v ->
        k { env with known = (x, v) :: env.known } v)

(* The env at the head of an internal function: the frame's cells arrive
   as parameters, and nothing about their contents is known. *)
let entry_env state k kenv cell_atoms =
  { k; kenv; cells = List.map2 (fun (x, _) a -> x, a) state.frame cell_atoms;
    known = [] }

(* ------------------------------------------------------------------ *)
(* Internal continuation functions                                     *)
(* ------------------------------------------------------------------ *)

let internal_params state =
  ("k", cont_ty state)
  :: ("kenv", T.Tptr T.Tany)
  :: List.map (fun (x, ty) -> x, T.Tptr (lower_ty ty)) state.frame

let fresh_name state =
  state.counter <- state.counter + 1;
  Printf.sprintf "%s$%d" (fir_name state.cur_name) state.counter

(* Create an internal function [extras..., k, kenv, cells...] and return
   its name.  [gen] receives the rebuilt env and the extra atoms. *)
let make_internal state ?(extras = []) gen =
  let name = fresh_name state in
  let fd =
    B.func name
      (extras @ internal_params state)
      (fun atoms ->
        let rec split n l =
          if n = 0 then [], l
          else
            match l with
            | x :: rest ->
              let a, b = split (n - 1) rest in
              x :: a, b
            | [] -> raise (Error "internal: arity")
        in
        let extra_atoms, rest = split (List.length extras) atoms in
        match rest with
        | k :: kenv :: cell_atoms ->
          gen (entry_env state k kenv cell_atoms) extra_atoms
        | _ -> raise (Error "internal: missing k/kenv"))
  in
  state.fns <- fd :: state.fns;
  name

let call_internal name env =
  F.Call (F.Fun name, env.k :: env.kenv :: List.map snd env.cells)

(* ------------------------------------------------------------------ *)
(* Values that survive continuation splits                             *)
(* ------------------------------------------------------------------ *)

type value_ref =
  | Direct of F.atom
  | In_cell of string * T.ty

let fetch env vr (k : env -> F.atom -> F.exp) =
  match vr with
  | Direct a -> k env a
  | In_cell (tmp, ty) -> load_cell env tmp ty k

(* After computing [atom] for [te], spill it into its temporary (if the
   typechecker assigned one) and continue. *)
let produce env (te : texpr) atom (k : env -> value_ref -> F.exp) =
  match te.ttemp with
  | None -> k env (Direct atom)
  | Some tmp ->
    store_cell env tmp atom (fun env -> k env (In_cell (tmp, lower_ty te.tty)))

let fetch_all env refs (k : env -> F.atom list -> F.exp) =
  let rec go env acc = function
    | [] -> k env (List.rev acc)
    | vr :: rest -> fetch env vr (fun env a -> go env (a :: acc) rest)
  in
  go env [] refs

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* int 0/1 from a bool atom *)
let bool_to_int b k = B.unop T.Tint F.Int_of_bool b k

(* truthiness: int atom -> bool atom *)
let truthy a k = B.ne a (F.Int 0) k

let rec lower_expr state ctx env (te : texpr)
    (k : env -> value_ref -> F.exp) : F.exp =
  match te.td with
  | Tint_lit n -> produce env te (F.Int n) k
  | Tfloat_lit f -> produce env te (F.Float f) k
  | Tstr_lit s -> B.string s (fun a -> produce env te a k)
  | Tvar x ->
    load_cell env x (lower_ty te.tty) (fun env a -> produce env te a k)
  | Tindex (base, idx) ->
    lower_expr state ctx env base (fun env rb ->
        lower_expr state ctx env idx (fun env ri ->
            fetch env rb (fun env vb ->
                fetch env ri (fun env vi ->
                    B.load (lower_ty te.tty) vb vi (fun a ->
                        produce env te a k)))))
  | Tunop (op, a) ->
    lower_expr state ctx env a (fun env ra ->
        fetch env ra (fun env va ->
            let cont x = produce env te x k in
            match op, a.tty with
            | Uneg, Cint -> B.unop T.Tint F.Neg va (fun x -> cont x)
            | Uneg, Cfloat -> B.unop T.Tfloat F.Fneg va (fun x -> cont x)
            | Unot, _ ->
              B.eq va (F.Int 0) (fun b -> bool_to_int b (fun x -> cont x))
            | Uneg, _ -> raise (Error "internal: bad unop type")))
  | Tbinop (op, a, b) ->
    lower_expr state ctx env a (fun env ra ->
        lower_expr state ctx env b (fun env rb ->
            fetch env ra (fun env va ->
                fetch env rb (fun env vb ->
                    lower_binop state env te op a b va vb k))))
  | Tcast (ty, a) ->
    lower_expr state ctx env a (fun env ra ->
        fetch env ra (fun env va ->
            match ty, a.tty with
            | Cint, Cfloat ->
              B.unop T.Tint F.Int_of_float va (fun x -> produce env te x k)
            | Cfloat, Cint ->
              B.unop T.Tfloat F.Float_of_int va (fun x -> produce env te x k)
            | _ -> produce env te va k))
  | Tcall_builtin (kind, args) -> lower_builtin state ctx env te kind args k
  | Tcall_user (g, args) ->
    lower_expr_list state ctx env args (fun env refs ->
        fetch_all env refs (fun env arg_atoms ->
            let g_fir = fir_name g in
            let ncells = List.length state.frame in
            (* the receive continuation: unpack the closure environment,
               then resume with the returned value *)
            let recv =
              let name = fresh_name state in
              let fd =
                B.func name
                  [ "env", T.Tptr T.Tany; "r", lower_ty te.tty ]
                  (fun atoms ->
                    match atoms with
                    | [ envp; r ] ->
                      B.load T.Tany envp (B.int 0) (fun k_any ->
                          B.cast (cont_ty state) k_any (fun k_val ->
                              B.load T.Tany envp (B.int 1) (fun kenv_any ->
                                  B.cast (T.Tptr T.Tany) kenv_any
                                    (fun kenv_val ->
                                      let rec unpack i acc = function
                                        | [] ->
                                          let env' =
                                            {
                                              k = k_val;
                                              kenv = kenv_val;
                                              cells = List.rev acc;
                                              known = [];
                                            }
                                          in
                                          produce env' te r k
                                        | (x, ty) :: rest ->
                                          B.load T.Tany envp (B.int (2 + i))
                                            (fun c_any ->
                                              B.cast
                                                (T.Tptr (lower_ty ty))
                                                c_any
                                                (fun c ->
                                                  unpack (i + 1)
                                                    ((x, c) :: acc)
                                                    rest))
                                      in
                                      unpack 0 [] state.frame))))
                    | _ -> raise (Error "internal: recv arity"))
              in
              state.fns <- fd :: state.fns;
              name
            in
            (* pack the closure environment *)
            B.array T.Tany ~size:(B.int (2 + ncells)) ~init:F.Unit
              (fun envarr ->
                F.Store
                  ( envarr, F.Int 0, env.k,
                    F.Store
                      ( envarr, F.Int 1, env.kenv,
                        let rec pack i = function
                          | [] ->
                            F.Call
                              (F.Fun g_fir,
                               F.Fun recv :: envarr :: arg_atoms)
                          | (_, c) :: rest ->
                            F.Store (envarr, F.Int (2 + i), c, pack (i + 1) rest)
                        in
                        pack 0 env.cells )))))

and lower_binop state env te op a b va vb k =
  let cont x = produce env te x k in
  let int2 fop = B.binop T.Tint fop va vb (fun x -> cont x) in
  let float2 fop = B.binop T.Tfloat fop va vb (fun x -> cont x) in
  let cmp fop = B.binop T.Tbool fop va vb (fun c -> bool_to_int c cont) in
  ignore state;
  match op, a.tty, b.tty with
  | Badd, Cint, _ -> int2 F.Add
  | Bsub, Cint, _ -> int2 F.Sub
  | Bmul, Cint, _ -> int2 F.Mul
  | Bdiv, Cint, _ -> int2 F.Div
  | Brem, _, _ -> int2 F.Rem
  | Band, _, _ -> int2 F.Band
  | Bor, _, _ -> int2 F.Bor
  | Bxor, _, _ -> int2 F.Bxor
  | Bshl, _, _ -> int2 F.Shl
  | Bshr, _, _ -> int2 F.Shr
  | Badd, Cfloat, _ -> float2 F.Fadd
  | Bsub, Cfloat, _ -> float2 F.Fsub
  | Bmul, Cfloat, _ -> float2 F.Fmul
  | Bdiv, Cfloat, _ -> float2 F.Fdiv
  | Badd, (Cptr _ | Cstr), _ ->
    B.binop (lower_ty a.tty) F.Padd va vb (fun x -> cont x)
  | Bsub, Cptr _, _ ->
    B.unop T.Tint F.Neg vb (fun nvb ->
        B.binop (lower_ty a.tty) F.Padd va nvb (fun x -> cont x))
  | Beq, Cint, _ -> cmp F.Eq
  | Bne, Cint, _ -> cmp F.Ne
  | Blt, Cint, _ -> cmp F.Lt
  | Ble, Cint, _ -> cmp F.Le
  | Bgt, Cint, _ -> cmp F.Gt
  | Bge, Cint, _ -> cmp F.Ge
  | Beq, Cfloat, _ -> cmp F.Feq
  | Bne, Cfloat, _ -> cmp F.Fne
  | Blt, Cfloat, _ -> cmp F.Flt
  | Ble, Cfloat, _ -> cmp F.Fle
  | Bgt, Cfloat, _ -> cmp F.Fgt
  | Bge, Cfloat, _ -> cmp F.Fge
  | Beq, (Cptr _ | Cstr), _ ->
    B.binop T.Tbool F.Peq va vb (fun c -> bool_to_int c cont)
  | Bne, (Cptr _ | Cstr), _ ->
    B.binop T.Tbool F.Peq va vb (fun c ->
        B.unop T.Tbool F.Not c (fun nc -> bool_to_int nc cont))
  | Bland, _, _ ->
    truthy va (fun ba ->
        truthy vb (fun bb ->
            B.binop T.Tbool F.And ba bb (fun c -> bool_to_int c cont)))
  | Blor, _, _ ->
    truthy va (fun ba ->
        truthy vb (fun bb ->
            B.binop T.Tbool F.Or ba bb (fun c -> bool_to_int c cont)))
  | (Badd | Bsub | Bmul | Bdiv | Beq | Bne | Blt | Ble | Bgt | Bge), _, _ ->
    raise (Error "internal: binop type mix")

and lower_expr_list state ctx env tes
    (k : env -> value_ref list -> F.exp) : F.exp =
  let rec go env acc = function
    | [] -> k env (List.rev acc)
    | te :: rest ->
      lower_expr state ctx env te (fun env r -> go env (r :: acc) rest)
  in
  go env [] tes

and lower_builtin state ctx env te kind args k =
  match kind with
  | Bext name ->
    lower_expr_list state ctx env args (fun env refs ->
        fetch_all env refs (fun env atoms ->
            let ret_ty =
              match te.tty with Cvoid -> T.Tunit | t -> lower_ty t
            in
            B.ext ret_ty name atoms (fun r ->
                match te.tty with
                | Cvoid -> produce env te (F.Int 0) k
                | _ -> produce env te r k)))
  | Balloc elt ->
    lower_expr_list state ctx env args (fun env refs ->
        fetch_all env refs (fun env atoms ->
            match atoms with
            | [ n ] ->
              B.array (lower_ty elt) ~size:n ~init:(default_atom elt)
                (fun a -> produce env te a k)
            | _ -> raise (Error "internal: alloc arity")))
  | Bspeculate ->
    (* speculate f(c, k, kenv, cells...): f computes the C-level return
       value (+level fresh, -level on re-entry after abort) *)
    let body =
      make_internal state ~extras:[ "c", T.Tint ] (fun env extras ->
          match extras with
          | [ c ] ->
            B.ext T.Tint "spec_level" [] (fun lvl ->
                B.eq c (F.Int 0) (fun fresh ->
                    bool_to_int fresh (fun bi ->
                        B.mul (F.Int 2) bi (fun twob ->
                            B.sub twob (F.Int 1) (fun sign ->
                                B.mul sign lvl (fun specid ->
                                    produce env te specid k))))))
          | _ -> raise (Error "internal: speculate extras"))
    in
    F.Speculate (F.Fun body, env.k :: env.kenv :: List.map snd env.cells)
  | Bcommit ->
    lower_expr_list state ctx env args (fun env refs ->
        fetch_all env refs (fun env atoms ->
            match atoms with
            | [ level ] ->
              let cont =
                make_internal state (fun env _ ->
                    produce env te (F.Int 0) k)
              in
              F.Commit
                (level, F.Fun cont,
                 env.k :: env.kenv :: List.map snd env.cells)
            | _ -> raise (Error "internal: commit arity")))
  | Babort ->
    (* terminal: control resumes at the speculation entry *)
    lower_expr_list state ctx env args (fun env refs ->
        fetch_all env refs (fun _ atoms ->
            match atoms with
            | [ level ] -> F.Rollback (level, F.Int 1)
            | _ -> raise (Error "internal: abort arity")))
  | Bmigrate ->
    lower_expr_list state ctx env args (fun env refs ->
        fetch_all env refs (fun env atoms ->
            match atoms with
            | [ dst ] ->
              let cont =
                make_internal state (fun env _ ->
                    produce env te (F.Int 0) k)
              in
              incr state.labels;
              F.Migrate
                (!(state.labels), dst, F.Fun cont,
                 env.k :: env.kenv :: List.map snd env.cells)
            | _ -> raise (Error "internal: migrate arity")))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec lower_stmt state ctx env (s : tstmt) (after : env -> F.exp) : F.exp =
  match s with
  | TSassign (x, te) ->
    lower_expr state ctx env te (fun env r ->
        fetch env r (fun env v -> store_cell env x v after))
  | TSindex_assign (base, idx, value) ->
    lower_expr state ctx env base (fun env rb ->
        lower_expr state ctx env idx (fun env ri ->
            lower_expr state ctx env value (fun env rv ->
                fetch env rb (fun env vb ->
                    fetch env ri (fun env vi ->
                        fetch env rv (fun env vv ->
                            F.Store (vb, vi, vv, after env)))))))
  | TSif (c, thn, els) ->
    let join = make_internal state (fun env _ -> after env) in
    let goto_join env = call_internal join env in
    lower_expr state ctx env c (fun env rc ->
        fetch env rc (fun env vc ->
            truthy vc (fun cond ->
                F.If
                  ( cond,
                    lower_stmts state ctx env thn goto_join,
                    lower_stmts state ctx env els goto_join ))))
  | TSwhile (c, body) ->
    let join = make_internal state (fun env _ -> after env) in
    let loop_name = fresh_name state in
    let loop_ctx =
      {
        break_ = Some (fun env -> call_internal join env);
        continue_ = Some (fun env -> call_internal loop_name env);
      }
    in
    let fd =
      B.func loop_name (internal_params state) (fun atoms ->
          match atoms with
          | k :: kenv :: cell_atoms ->
            let env = entry_env state k kenv cell_atoms in
            lower_expr state ctx env c (fun env rc ->
                fetch env rc (fun env vc ->
                    truthy vc (fun cond ->
                        F.If
                          ( cond,
                            lower_stmts state loop_ctx env body (fun env ->
                                call_internal loop_name env),
                            call_internal join env ))))
          | _ -> raise (Error "internal: loop params"))
    in
    state.fns <- fd :: state.fns;
    call_internal loop_name env
  | TSfor_loop (init, cond, inc, body) ->
    let join = make_internal state (fun env _ -> after env) in
    let loop_name = fresh_name state in
    let do_inc env =
      match inc with
      | None -> call_internal loop_name env
      | Some s ->
        lower_stmt state ctx env s (fun env -> call_internal loop_name env)
    in
    let loop_ctx =
      {
        break_ = Some (fun env -> call_internal join env);
        continue_ = Some do_inc;
      }
    in
    let fd =
      B.func loop_name (internal_params state) (fun atoms ->
          match atoms with
          | k :: kenv :: cell_atoms ->
            let env = entry_env state k kenv cell_atoms in
            let run_body env =
              lower_stmts state loop_ctx env body do_inc
            in
            (match cond with
            | None -> run_body env
            | Some c ->
              lower_expr state ctx env c (fun env rc ->
                  fetch env rc (fun env vc ->
                      truthy vc (fun cd ->
                          F.If (cd, run_body env, call_internal join env)))))
          | _ -> raise (Error "internal: loop params"))
    in
    state.fns <- fd :: state.fns;
    (match init with
    | None -> call_internal loop_name env
    | Some s ->
      lower_stmt state ctx env s (fun env -> call_internal loop_name env))
  | TSreturn None -> F.Call (env.k, [ env.kenv; F.Int 0 ])
  | TSreturn (Some te) ->
    lower_expr state ctx env te (fun env r ->
        fetch env r (fun env v -> F.Call (env.k, [ env.kenv; v ])))
  | TSexpr te -> lower_expr state ctx env te (fun env _ -> after env)
  | TSbreak -> (
    match ctx.break_ with
    | Some f -> f env
    | None -> raise (Error "internal: break outside loop"))
  | TScontinue -> (
    match ctx.continue_ with
    | Some f -> f env
    | None -> raise (Error "internal: continue outside loop"))

and lower_stmts state ctx env stmts (after : env -> F.exp) : F.exp =
  match stmts with
  | [] -> after env
  | s :: rest ->
    lower_stmt state ctx env s (fun env -> lower_stmts state ctx env rest after)

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

let lower_fun labels (tf : tfun) : F.fundef list =
  let frame =
    List.map (fun (ty, x) -> x, ty) tf.tf_params
    @ List.map (fun (ty, x) -> x, ty) tf.tf_locals
  in
  let state =
    {
      fns = [];
      counter = 0;
      labels;
      cur_name = tf.tf_name;
      cur_ret = tf.tf_ret;
      frame;
    }
  in
  let params =
    ("k", cont_ty state)
    :: ("kenv", T.Tptr T.Tany)
    :: List.map (fun (ty, x) -> x, lower_ty ty) tf.tf_params
  in
  let implicit_return env = F.Call (env.k, [ env.kenv; default_atom tf.tf_ret ]) in
  let fd =
    B.func (fir_name tf.tf_name) params (fun atoms ->
        match atoms with
        | k :: kenv :: param_atoms ->
          (* allocate one heap cell per frame slot: parameters are
             initialized from their argument values, locals from their
             type's default; the entry segment knows every initial value *)
          let rec alloc_cells frame param_atoms cells known =
            match frame, param_atoms with
            | [], _ ->
              let env = { k; kenv; cells = List.rev cells; known } in
              lower_stmts state no_loop env tf.tf_body implicit_return
            | (x, ty) :: frest, p :: prest
              when List.exists (fun (_, px) -> String.equal px x) tf.tf_params
              ->
              B.array (lower_ty ty) ~size:(B.int 1) ~init:p (fun c ->
                  alloc_cells frest prest ((x, c) :: cells) ((x, p) :: known))
            | (x, ty) :: frest, ps ->
              let init = default_atom ty in
              B.array (lower_ty ty) ~size:(B.int 1) ~init (fun c ->
                  alloc_cells frest ps ((x, c) :: cells) ((x, init) :: known))
          in
          alloc_cells frame param_atoms [] []
        | _ -> raise (Error "internal: function params"))
  in
  fd :: state.fns

let lower_program (tp : tprogram) : F.program =
  let labels = ref 0 in
  let fns = List.concat_map (lower_fun labels) tp.tp_funs in
  (* entry point and exit continuation *)
  let exit_fn =
    B.func "$exit"
      [ "env", T.Tptr T.Tany; "r", T.Tint ]
      (fun atoms ->
        match atoms with
        | [ _; r ] -> F.Exit r
        | _ -> raise (Error "internal: exit arity"))
  in
  let main_fn =
    B.func "main" [] (fun _ ->
        B.atom (T.Tptr T.Tany) (F.Nil (T.Tptr T.Tany)) (fun nil_env ->
            F.Call (F.Fun "c$main", [ F.Fun "$exit"; nil_env ])))
  in
  F.program (main_fn :: exit_fn :: fns) ~main:"main"
