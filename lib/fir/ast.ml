(* The FIR abstract syntax.

   The FIR is in continuation-passing style: every function ends in a tail
   call, a process exit, or one of the migration / speculation
   pseudo-instructions (paper, Sections 4.2.1 and 4.3.1).  Loops from the
   source languages are expressed with recursive functions.

   Pseudo-instructions:
   - [Migrate (i, dst, f, args)] is the paper's
       migrate [i, aptr, aoff] f(a1, ..., an)
     [i] is the unique resume label; [dst] is a pointer to a raw block
     holding the target string ("mcc://host", "suspend://file",
     "checkpoint://file"); [f] is the continuation.  Our pointers carry
     their offset internally, so (aptr, aoff) is the single atom [dst].
   - [Speculate (f, args)] is speculate f(c, a1, ..., an): enters a new
     speculation level and calls [f] with a fresh rollback code [c = 0]
     prepended to [args].  On rollback the runtime re-calls [f] with the
     same [args] but the rollback code supplied to [Rollback].
   - [Commit (l, f, args)] folds level [l] into its parent and continues
     with [f args].
   - [Rollback (l, c)] restores the state captured when level [l] was
     entered and re-enters it, passing [c] as the new first argument. *)

type unop =
  | Neg (* integer negation *)
  | Not (* boolean negation *)
  | Fneg (* float negation *)
  | Int_of_float
  | Float_of_int
  | Int_of_bool
  | Int_of_enum

type binop =
  (* integer arithmetic *)
  | Add
  | Sub
  | Mul
  | Div (* raises a runtime trap on divide-by-zero *)
  | Rem
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr
  (* integer comparison *)
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  (* float arithmetic / comparison *)
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
  (* booleans *)
  | And
  | Or
  (* pointers: [Padd p n] advances the offset; [Peq] compares base+offset *)
  | Padd
  | Peq

type atom =
  | Unit
  | Int of int
  | Float of float
  | Bool of bool
  | Enum of int * int (* cardinality, value *)
  | Var of Var.t
  | Fun of string (* reference to a global function *)
  | Nil of Types.ty (* null reference of the given (reference) type *)

type exp =
  (* bindings; the bound variable is immutable *)
  | Let_atom of Var.t * Types.ty * atom * exp
  (* checked downcast from [Tany]: traps at runtime if the value's
     representation does not match the target type *)
  | Let_cast of Var.t * Types.ty * atom * exp
  | Let_unop of Var.t * Types.ty * unop * atom * exp
  | Let_binop of Var.t * Types.ty * binop * atom * atom * exp
  (* heap allocation *)
  | Let_tuple of Var.t * (Types.ty * atom) list * exp
  | Let_array of Var.t * Types.ty * atom * atom * exp (* elem ty, size, init *)
  | Let_string of Var.t * string * exp (* raw block from a literal *)
  (* heap access; all accesses are bounds- and type-checked at runtime *)
  | Let_proj of Var.t * Types.ty * atom * int * exp
  | Set_proj of atom * int * atom * exp
  | Let_load of Var.t * Types.ty * atom * atom * exp (* block, index *)
  | Store of atom * atom * atom * exp (* block, index, value *)
  (* external (runtime-provided) function call; the only non-tail call *)
  | Let_ext of Var.t * Types.ty * string * atom list * exp
  (* control *)
  | If of atom * exp * exp
  | Switch of atom * (int * exp) list * exp (* scrutinee, cases, default *)
  | Call of atom * atom list (* tail call *)
  | Exit of atom (* process termination with an exit value *)
  (* pseudo-instructions *)
  | Migrate of int * atom * atom * atom list
  | Speculate of atom * atom list
  | Commit of atom * atom * atom list
  | Rollback of atom * atom

type fundef = {
  f_name : string;
  f_params : (Var.t * Types.ty) list;
  f_body : exp;
}

module String_map = Map.Make (String)

type program = {
  p_funs : fundef String_map.t;
  p_main : string;
}

let program funs ~main =
  let p_funs =
    List.fold_left
      (fun acc f ->
        if String_map.mem f.f_name acc then
          invalid_arg ("Ast.program: duplicate function " ^ f.f_name)
        else String_map.add f.f_name f acc)
      String_map.empty funs
  in
  if not (String_map.mem main p_funs) then
    invalid_arg ("Ast.program: no main function " ^ main);
  { p_funs; p_main = main }

let find_fun p name = String_map.find_opt name p.p_funs

let fun_exn p name =
  match find_fun p name with
  | Some f -> f
  | None -> invalid_arg ("Ast.fun_exn: unknown function " ^ name)

let fun_names p = String_map.fold (fun name _ acc -> name :: acc) p.p_funs []
let fun_count p = String_map.cardinal p.p_funs
let iter_funs f p = String_map.iter (fun _ fd -> f fd) p.p_funs
let fold_funs f p acc = String_map.fold (fun _ fd acc -> f fd acc) p.p_funs acc

let map_funs f p =
  { p with p_funs = String_map.map f p.p_funs }

(* Signature of a function: its parameter types. *)
let signature fd = List.map snd fd.f_params

(* Structural size of an expression (number of AST nodes); used by the
   inliner threshold and the codegen cost model. *)
let rec exp_size = function
  | Let_atom (_, _, _, e)
  | Let_cast (_, _, _, e)
  | Let_unop (_, _, _, _, e)
  | Let_proj (_, _, _, _, e)
  | Let_string (_, _, e) ->
    1 + exp_size e
  | Let_binop (_, _, _, _, _, e)
  | Let_array (_, _, _, _, e)
  | Set_proj (_, _, _, e)
  | Let_load (_, _, _, _, e)
  | Store (_, _, _, e) ->
    1 + exp_size e
  | Let_tuple (_, fields, e) -> 1 + List.length fields + exp_size e
  | Let_ext (_, _, _, args, e) -> 1 + List.length args + exp_size e
  | If (_, e1, e2) -> 1 + exp_size e1 + exp_size e2
  | Switch (_, cases, default) ->
    List.fold_left
      (fun acc (_, e) -> acc + exp_size e)
      (1 + exp_size default)
      cases
  | Call (_, args) -> 1 + List.length args
  | Exit _ -> 1
  | Migrate (_, _, _, args) -> 2 + List.length args
  | Speculate (_, args) -> 2 + List.length args
  | Commit (_, _, args) -> 2 + List.length args
  | Rollback (_, _) -> 2

let program_size p = fold_funs (fun fd acc -> acc + exp_size fd.f_body) p 0

(* Free variables of an atom / expression.  Variables are globally unique,
   so shadowing cannot occur; we still remove bound variables to get a
   precise result. *)
let atom_vars acc = function
  | Var v -> Var.Set.add v acc
  | Unit | Int _ | Float _ | Bool _ | Enum _ | Fun _ | Nil _ -> acc

let atoms_vars acc atoms = List.fold_left atom_vars acc atoms

let rec free_vars_acc acc = function
  | Let_atom (v, _, a, e) | Let_cast (v, _, a, e) ->
    Var.Set.remove v (free_vars_acc (atom_vars acc a) e)
  | Let_unop (v, _, _, a, e) ->
    Var.Set.remove v (free_vars_acc (atom_vars acc a) e)
  | Let_binop (v, _, _, a, b, e) ->
    Var.Set.remove v (free_vars_acc (atom_vars (atom_vars acc a) b) e)
  | Let_tuple (v, fields, e) ->
    let acc = List.fold_left (fun acc (_, a) -> atom_vars acc a) acc fields in
    Var.Set.remove v (free_vars_acc acc e)
  | Let_array (v, _, size, init, e) ->
    Var.Set.remove v (free_vars_acc (atom_vars (atom_vars acc size) init) e)
  | Let_string (v, _, e) -> Var.Set.remove v (free_vars_acc acc e)
  | Let_proj (v, _, a, _, e) ->
    Var.Set.remove v (free_vars_acc (atom_vars acc a) e)
  | Set_proj (a, _, b, e) ->
    free_vars_acc (atom_vars (atom_vars acc a) b) e
  | Let_load (v, _, a, i, e) ->
    Var.Set.remove v (free_vars_acc (atom_vars (atom_vars acc a) i) e)
  | Store (a, i, x, e) ->
    free_vars_acc (atom_vars (atom_vars (atom_vars acc a) i) x) e
  | Let_ext (v, _, _, args, e) ->
    Var.Set.remove v (free_vars_acc (atoms_vars acc args) e)
  | If (a, e1, e2) -> free_vars_acc (free_vars_acc (atom_vars acc a) e1) e2
  | Switch (a, cases, default) ->
    let acc = atom_vars acc a in
    let acc = List.fold_left (fun acc (_, e) -> free_vars_acc acc e) acc cases in
    free_vars_acc acc default
  | Call (f, args) -> atoms_vars (atom_vars acc f) args
  | Exit a -> atom_vars acc a
  | Migrate (_, dst, f, args) ->
    atoms_vars (atom_vars (atom_vars acc dst) f) args
  | Speculate (f, args) -> atoms_vars (atom_vars acc f) args
  | Commit (l, f, args) -> atoms_vars (atom_vars (atom_vars acc l) f) args
  | Rollback (l, c) -> atom_vars (atom_vars acc l) c

let free_vars e = free_vars_acc Var.Set.empty e

(* Function names referenced (via [Fun] atoms) by an expression. *)
let rec called_funs_acc acc e =
  let atom acc = function
    | Fun f -> f :: acc
    | Unit | Int _ | Float _ | Bool _ | Enum _ | Var _ | Nil _ -> acc
  in
  let atoms acc l = List.fold_left atom acc l in
  match e with
  | Let_atom (_, _, a, e)
  | Let_cast (_, _, a, e)
  | Let_unop (_, _, _, a, e)
  | Let_proj (_, _, a, _, e) ->
    called_funs_acc (atom acc a) e
  | Let_binop (_, _, _, a, b, e) -> called_funs_acc (atom (atom acc a) b) e
  | Let_tuple (_, fields, e) ->
    let acc = List.fold_left (fun acc (_, a) -> atom acc a) acc fields in
    called_funs_acc acc e
  | Let_array (_, _, a, b, e) -> called_funs_acc (atom (atom acc a) b) e
  | Let_string (_, _, e) -> called_funs_acc acc e
  | Set_proj (a, _, b, e) -> called_funs_acc (atom (atom acc a) b) e
  | Let_load (_, _, a, b, e) -> called_funs_acc (atom (atom acc a) b) e
  | Store (a, b, c, e) -> called_funs_acc (atom (atom (atom acc a) b) c) e
  | Let_ext (_, _, _, args, e) -> called_funs_acc (atoms acc args) e
  | If (a, e1, e2) -> called_funs_acc (called_funs_acc (atom acc a) e1) e2
  | Switch (a, cases, default) ->
    let acc = atom acc a in
    let acc =
      List.fold_left (fun acc (_, e) -> called_funs_acc acc e) acc cases
    in
    called_funs_acc acc default
  | Call (f, args) -> atoms (atom acc f) args
  | Exit a -> atom acc a
  | Migrate (_, dst, f, args) -> atoms (atom (atom acc dst) f) args
  | Speculate (f, args) -> atoms (atom acc f) args
  | Commit (l, f, args) -> atoms (atom (atom acc l) f) args
  | Rollback (l, c) -> atom (atom acc l) c

let called_funs e = called_funs_acc [] e
