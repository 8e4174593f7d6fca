(* A combinator DSL for constructing FIR programs from OCaml.

   Every binding combinator takes the continuation as its last argument and
   passes the freshly bound variable to it as an atom, mirroring the CPS
   structure of the FIR itself:

     Builder.(func "main" [] (fun [] ->
       binop Tint Add (int 1) (int 2) (fun sum ->
       ext Tunit "print_int" [sum] (fun _ ->
       exit_ (int 0)))))

   The DSL is used by the test suites, the benches, and the embedded version
   of the grid application. *)

open Ast

type k = atom -> exp

let int n = Int n
let float f = Float f
let bool b = Bool b
let unit = Unit
let enum card v = Enum (card, v)
let fn name = Fun name
let nil t = Nil t

let atom ?(name = "t") ty a (k : k) =
  let v = Var.fresh name in
  Let_atom (v, ty, a, k (Var v))

(* Upcast: bind any value at type [Tany]. *)
let any ?(name = "a") a (k : k) = atom ~name Types.Tany a k

(* Checked downcast from [Tany]. *)
let cast ?(name = "t") ty a (k : k) =
  let v = Var.fresh name in
  Let_cast (v, ty, a, k (Var v))

let unop ?(name = "t") ty op a (k : k) =
  let v = Var.fresh name in
  Let_unop (v, ty, op, a, k (Var v))

let binop ?(name = "t") ty op a b (k : k) =
  let v = Var.fresh name in
  Let_binop (v, ty, op, a, b, k (Var v))

let tuple ?(name = "tup") fields (k : k) =
  let v = Var.fresh name in
  Let_tuple (v, fields, k (Var v))

let array ?(name = "arr") ty ~size ~init (k : k) =
  let v = Var.fresh name in
  Let_array (v, ty, size, init, k (Var v))

let string ?(name = "str") s (k : k) =
  let v = Var.fresh name in
  Let_string (v, s, k (Var v))

let proj ?(name = "fld") ty a i (k : k) =
  let v = Var.fresh name in
  Let_proj (v, ty, a, i, k (Var v))

let load ?(name = "elt") ty a i (k : k) =
  let v = Var.fresh name in
  Let_load (v, ty, a, i, k (Var v))

let store a i x e = Store (a, i, x, e)

let ext ?(name = "r") ty fname args (k : k) =
  let v = Var.fresh name in
  Let_ext (v, ty, fname, args, k (Var v))

let if_ c e1 e2 = If (c, e1, e2)
let switch a cases default = Switch (a, cases, default)
let call f args = Call (f, args)
let callf name args = Call (Fun name, args)
let exit_ a = Exit a
let migrate ~label dst f args = Migrate (label, dst, f, args)
let speculate f args = Speculate (f, args)
let commit l f args = Commit (l, f, args)
let rollback l c = Rollback (l, c)

(* Arithmetic shorthands (integer). *)
let add a b k = binop Types.Tint Add a b k
let sub a b k = binop Types.Tint Sub a b k
let mul a b k = binop Types.Tint Mul a b k
let div a b k = binop Types.Tint Div a b k
let rem a b k = binop Types.Tint Rem a b k
let lt a b k = binop Types.Tbool Lt a b k
let le a b k = binop Types.Tbool Le a b k
let gt a b k = binop Types.Tbool Gt a b k
let ge a b k = binop Types.Tbool Ge a b k
let eq a b k = binop Types.Tbool Eq a b k
let ne a b k = binop Types.Tbool Ne a b k

(* Function and program construction.  [func] allocates fresh parameter
   variables from (name, ty) pairs and hands the corresponding atoms to the
   body builder. *)
let func name params body =
  let vars = List.map (fun (n, t) -> Var.fresh n, t) params in
  let atoms = List.map (fun (v, _) -> Var v) vars in
  { f_name = name; f_params = vars; f_body = body atoms }

let prog ?(main = "main") funs = program funs ~main

(* A direct-style loop helper: builds the recursive function encoding of
     for (i = lo; i < hi; i++) body
   The generated function threads an accumulator list [state] through the
   iterations; [body] receives (i, state, continue) where [continue] takes
   the next state, and [after] receives the final state. *)
let for_loop ~name ~lo ~hi ~state_tys ~state ~body ~after =
  let loop_name = name in
  let params = ("i", Types.Tint) :: List.map (fun t -> "s", t) state_tys in
  let fd =
    func loop_name params (fun args ->
        match args with
        | i :: st ->
          binop Types.Tbool Lt i hi (fun cond ->
              if_ cond
                (body i st (fun st' ->
                     add i (int 1) (fun i' -> callf loop_name (i' :: st'))))
                (after st))
        | [] -> invalid_arg "for_loop: impossible arity")
  in
  fd, callf loop_name (lo :: state)
