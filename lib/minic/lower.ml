(* Mini-C -> FIR lowering.

   This is the transformation the paper describes for MCC front-ends
   (Section 3): "function calls in the source language are converted to
   tail-calls using continuation passing style; loops are expressed with
   recursive functions".  Concretely:

   - every C activation gets one heap frame: a tuple with a slot for
     each parameter, local and compiler temporary, built at function
     entry.  A read is a projection of the local's slot, a write a
     set-projection.  Nothing lives in FIR variables across a control
     transfer, which is precisely what makes whole-process state capture
     trivial;

   - within one straight-line segment (the body of one FIR function, up
     to its tail call) the lowerer remembers which atom holds each slot's
     current value: every store (a slot's initialisation included)
     records the stored atom, every first read records the projected
     one, and a later read of the same local reuses it instead of
     projecting again.  Each internal function starts with nothing
     remembered, so no value is carried across a control transfer.  This
     is sound because Mini-C has no [&]: a frame slot is never aliased,
     and no extern or callee can write it; and every store still writes
     the frame, so state capture at a migrate, speculate or commit point
     sees exactly what it saw before;

   - a C function [R f(T a)] becomes the FIR function
       f(k : (any ptr, R') -> ., kenv : any ptr, a : T')
     where [k]/[kenv] are the closure-converted return continuation
     (code + environment, the environment being an array of [any]);

   - control-flow joins (after an if, loop back-edges, code following a
     call / speculate() / commit() / migrate()) become fresh internal FIR
     functions taking (k, kenv, frame) after their own extras; a call's
     return continuation finds the same three in its environment;

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
  slots : (string * cty) list; (* the frame: params then locals, in order *)
}

type env = {
  k : F.atom;
  kenv : F.atom;
  frame : F.atom;
  known : (int * F.atom) list;
      (* slot -> atom holding its current value, this segment only *)
}

type loop_ctx = {
  break_ : (env -> F.exp) option;
  continue_ : (env -> F.exp) option;
}

let no_loop = { break_ = None; continue_ = None }

(* The type of the current function's return continuation. *)
let cont_ty state = T.Tfun [ T.Tptr T.Tany; lower_ty state.cur_ret ]

(* The type of the current function's frame: one slot per local. *)
let frame_ty state =
  T.Ttuple (List.map (fun (_, ty) -> lower_ty ty) state.slots)

let slot state x =
  let rec find i = function
    | (y, _) :: _ when String.equal x y -> i
    | _ :: rest -> find (i + 1) rest
    | [] -> raise (Error ("internal: no slot for " ^ x))
  in
  find 0 state.slots

(* Store [v] into slot [i] and remember it for the rest of the
   segment. *)
let store_slot env i v (k : env -> F.exp) =
  F.Set_proj (env.frame, i, v, k { env with known = (i, v) :: env.known })

(* The current value of slot [i]: the atom the segment already holds, or
   a projection of the frame, remembered from then on. *)
let load_slot env i ty (k : env -> F.atom -> F.exp) =
  match List.assoc_opt i env.known with
  | Some v -> k env v
  | None ->
    B.proj ty env.frame i (fun v ->
        k { env with known = (i, v) :: env.known } v)

(* What every internal function receives after its own extras, and what
   every control transfer inside the activation passes on. *)
let live env = [ env.k; env.kenv; env.frame ]

(* ------------------------------------------------------------------ *)
(* Internal continuation functions                                     *)
(* ------------------------------------------------------------------ *)

let fresh_name state =
  state.counter <- state.counter + 1;
  Printf.sprintf "%s$%d" (fir_name state.cur_name) state.counter

(* Define the internal function [name (extras..., k, kenv, frame)];
   [gen] receives its env, knowing nothing yet, and the extra atoms. *)
let define_internal state name ?(extras = []) gen =
  let params =
    extras
    @ [ "k", cont_ty state; "kenv", T.Tptr T.Tany; "frame", frame_ty state ]
  in
  let fd =
    B.func name params (fun atoms ->
        match List.rev atoms with
        | frame :: kenv :: k :: rev_extras ->
          gen { k; kenv; frame; known = [] } (List.rev rev_extras)
        | _ -> raise (Error "internal: missing k/kenv/frame"))
  in
  state.fns <- fd :: state.fns

let make_internal state ?extras gen =
  let name = fresh_name state in
  define_internal state name ?extras gen;
  name

let call_internal name env = F.Call (F.Fun name, live env)

(* ------------------------------------------------------------------ *)
(* Values that survive continuation splits                             *)
(* ------------------------------------------------------------------ *)

type value_ref =
  | Direct of F.atom
  | In_slot of int * T.ty

let fetch env vr (k : env -> F.atom -> F.exp) =
  match vr with
  | Direct a -> k env a
  | In_slot (i, ty) -> load_slot env i ty k

(* After computing [atom] for [te], spill it into its temporary's slot
   (if the typechecker assigned one) and continue. *)
let produce state env (te : texpr) atom (k : env -> value_ref -> F.exp) =
  match te.ttemp with
  | None -> k env (Direct atom)
  | Some tmp ->
    let i = slot state tmp in
    store_slot env i atom (fun env -> k env (In_slot (i, lower_ty te.tty)))

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
  | Tint_lit n -> produce state env te (F.Int n) k
  | Tfloat_lit f -> produce state env te (F.Float f) k
  | Tstr_lit s -> B.string s (fun a -> produce state env te a k)
  | Tvar x ->
    load_slot env (slot state x) (lower_ty te.tty) (fun env a ->
        produce state env te a k)
  | Tindex (base, idx) ->
    lower_expr state ctx env base (fun env rb ->
        lower_expr state ctx env idx (fun env ri ->
            fetch env rb (fun env vb ->
                fetch env ri (fun env vi ->
                    B.load (lower_ty te.tty) vb vi (fun a ->
                        produce state env te a k)))))
  | Tunop (op, a) ->
    lower_expr state ctx env a (fun env ra ->
        fetch env ra (fun env va ->
            let cont x = produce state env te x k in
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
            let cont x = produce state env te x k in
            match ty, a.tty with
            | Cint, Cfloat -> B.unop T.Tint F.Int_of_float va cont
            | Cfloat, Cint -> B.unop T.Tfloat F.Float_of_int va cont
            | _ -> cont va))
  | Tcall_builtin (kind, args) -> lower_builtin state ctx env te kind args k
  | Tcall_user (g, args) ->
    lower_expr_list state ctx env args (fun env refs ->
        fetch_all env refs (fun env arg_atoms ->
            (* the receive continuation: unpack k, kenv and the frame
               from the closure environment, then resume with the
               returned value *)
            let recv = fresh_name state in
            let field envp i ty k =
              B.load T.Tany envp (B.int i) (fun x -> B.cast ty x k)
            in
            let fd =
              B.func recv
                [ "env", T.Tptr T.Tany; "r", lower_ty te.tty ]
                (function
                  | [ envp; r ] ->
                    field envp 0 (cont_ty state) (fun k_val ->
                        field envp 1 (T.Tptr T.Tany) (fun kenv ->
                            field envp 2 (frame_ty state) (fun frame ->
                                produce state
                                  { k = k_val; kenv; frame; known = [] }
                                  te r k)))
                  | _ -> raise (Error "internal: recv arity"))
            in
            state.fns <- fd :: state.fns;
            B.array T.Tany ~size:(B.int 3) ~init:F.Unit (fun envarr ->
                let pack i a rest = F.Store (envarr, F.Int i, a, rest) in
                pack 0 env.k
                  (pack 1 env.kenv
                     (pack 2 env.frame
                        (F.Call
                           (F.Fun (fir_name g),
                            F.Fun recv :: envarr :: arg_atoms)))))))

and lower_binop state env te op a b va vb k =
  let cont x = produce state env te x k in
  let int2 fop = B.binop T.Tint fop va vb (fun x -> cont x) in
  let float2 fop = B.binop T.Tfloat fop va vb (fun x -> cont x) in
  let cmp fop = B.binop T.Tbool fop va vb (fun c -> bool_to_int c cont) in
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
                | Cvoid -> produce state env te (F.Int 0) k
                | _ -> produce state env te r k)))
  | Balloc elt ->
    lower_expr_list state ctx env args (fun env refs ->
        fetch_all env refs (fun env atoms ->
            match atoms with
            | [ n ] ->
              B.array (lower_ty elt) ~size:n ~init:(default_atom elt)
                (fun a -> produce state env te a k)
            | _ -> raise (Error "internal: alloc arity")))
  | Bspeculate ->
    (* speculate f(c, k, kenv, frame): f computes the C-level return
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
                                    produce state env te specid k))))))
          | _ -> raise (Error "internal: speculate extras"))
    in
    F.Speculate (F.Fun body, live env)
  | Bcommit ->
    lower_expr_list state ctx env args (fun env refs ->
        fetch_all env refs (fun env atoms ->
            match atoms with
            | [ level ] ->
              let cont =
                make_internal state (fun env _ ->
                    produce state env te (F.Int 0) k)
              in
              F.Commit (level, F.Fun cont, live env)
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
                    produce state env te (F.Int 0) k)
              in
              incr state.labels;
              F.Migrate (!(state.labels), dst, F.Fun cont, live env)
            | _ -> raise (Error "internal: migrate arity")))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec lower_stmt state ctx env (s : tstmt) (after : env -> F.exp) : F.exp =
  match s with
  | TSassign (x, te) ->
    lower_expr state ctx env te (fun env r ->
        fetch env r (fun env v -> store_slot env (slot state x) v after))
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
    define_internal state loop_name (fun env _ ->
        lower_expr state ctx env c (fun env rc ->
            fetch env rc (fun env vc ->
                truthy vc (fun cond ->
                    F.If
                      ( cond,
                        lower_stmts state loop_ctx env body (fun env ->
                            call_internal loop_name env),
                        call_internal join env )))));
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
    define_internal state loop_name (fun env _ ->
        let run_body env = lower_stmts state loop_ctx env body do_inc in
        match cond with
        | None -> run_body env
        | Some c ->
          lower_expr state ctx env c (fun env rc ->
              fetch env rc (fun env vc ->
                  truthy vc (fun cd ->
                      F.If (cd, run_body env, call_internal join env)))));
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
  let state =
    {
      fns = [];
      counter = 0;
      labels;
      cur_name = tf.tf_name;
      cur_ret = tf.tf_ret;
      slots = List.map (fun (ty, x) -> x, ty) (tf.tf_params @ tf.tf_locals);
    }
  in
  let params =
    ("k", cont_ty state)
    :: ("kenv", T.Tptr T.Tany)
    :: List.map (fun (ty, x) -> x, lower_ty ty) tf.tf_params
  in
  let implicit_return env = F.Call (env.k, [ env.kenv; default_atom tf.tf_ret ]) in
  let fd =
    B.func (fir_name tf.tf_name) params (function
      | k :: kenv :: param_atoms ->
        (* one frame for the activation: parameters start as their
           arguments, locals as their type's default, and the entry
           segment knows every initial value *)
        let inits =
          param_atoms
          @ List.map (fun (ty, _) -> default_atom ty) tf.tf_locals
        in
        B.tuple
          (List.map2 (fun (_, ty) a -> lower_ty ty, a) state.slots inits)
          (fun frame ->
            let known = List.mapi (fun i a -> i, a) inits in
            lower_stmts state no_loop { k; kenv; frame; known } tf.tf_body
              implicit_return)
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
