(* The reference FIR interpreter.

   One [step] executes one basic block: from the current continuation
   (function, arguments) through straight-line bindings and branches to the
   next tail call, exit, or pseudo-instruction.  Because the FIR is CPS,
   no interpreter state survives between steps except the process itself —
   which is exactly what migration and speculation capture.

   Every heap access goes through the checked [Heap.read]/[Heap.write]
   path (pointer-table validation, bounds checks); a violation turns into
   a [Trapped] status rather than undefined behaviour, reproducing the
   paper's runtime safety claims for unsafe source languages like C. *)

open Runtime
open Fir.Ast

exception Trap of string

let nil_value = Value.Vptr (-1, 0)

let eval_atom proc env = function
  | Unit -> Value.Vunit
  | Int n -> Value.Vint n
  | Float f -> Value.Vfloat f
  | Bool b -> Value.Vbool b
  | Enum (card, v) -> Value.Venum (card, v)
  | Var v -> (
    match Fir.Var.Table.find_opt env v with
    | Some x -> x
    | None -> raise (Trap ("unbound variable " ^ Fir.Var.to_string v)))
  | Fun f -> Process.fun_value proc f
  | Nil _ -> nil_value

let as_int = function
  | Value.Vint n -> n
  | v -> raise (Trap ("expected int, got " ^ Value.to_string v))

let as_bool = function
  | Value.Vbool b -> b
  | v -> raise (Trap ("expected bool, got " ^ Value.to_string v))

let as_float = function
  | Value.Vfloat f -> f
  | v -> raise (Trap ("expected float, got " ^ Value.to_string v))

let as_ptr = function
  | Value.Vptr (idx, off) -> idx, off
  | v -> raise (Trap ("expected pointer, got " ^ Value.to_string v))

let eval_unop op a =
  match op with
  | Neg -> Value.Vint (-as_int a)
  | Not -> Value.Vbool (not (as_bool a))
  | Fneg -> Value.Vfloat (-.as_float a)
  | Int_of_float -> Value.Vint (int_of_float (as_float a))
  | Float_of_int -> Value.Vfloat (float_of_int (as_int a))
  | Int_of_bool -> Value.Vint (if as_bool a then 1 else 0)
  | Int_of_enum -> (
    match a with
    | Value.Venum (_, v) -> Value.Vint v
    | v -> raise (Trap ("expected enum, got " ^ Value.to_string v)))

let eval_binop op a b =
  match op with
  | Add -> Value.Vint (as_int a + as_int b)
  | Sub -> Value.Vint (as_int a - as_int b)
  | Mul -> Value.Vint (as_int a * as_int b)
  | Div ->
    let d = as_int b in
    if d = 0 then raise (Trap "division by zero") else Value.Vint (as_int a / d)
  | Rem ->
    let d = as_int b in
    if d = 0 then raise (Trap "remainder by zero")
    else Value.Vint (as_int a mod d)
  | Band -> Value.Vint (as_int a land as_int b)
  | Bor -> Value.Vint (as_int a lor as_int b)
  | Bxor -> Value.Vint (as_int a lxor as_int b)
  | Shl -> Value.Vint (as_int a lsl (as_int b land 62))
  | Shr -> Value.Vint (as_int a asr (as_int b land 62))
  | Eq -> Value.Vbool (as_int a = as_int b)
  | Ne -> Value.Vbool (as_int a <> as_int b)
  | Lt -> Value.Vbool (as_int a < as_int b)
  | Le -> Value.Vbool (as_int a <= as_int b)
  | Gt -> Value.Vbool (as_int a > as_int b)
  | Ge -> Value.Vbool (as_int a >= as_int b)
  | Fadd -> Value.Vfloat (as_float a +. as_float b)
  | Fsub -> Value.Vfloat (as_float a -. as_float b)
  | Fmul -> Value.Vfloat (as_float a *. as_float b)
  | Fdiv -> Value.Vfloat (as_float a /. as_float b)
  | Feq -> Value.Vbool (as_float a = as_float b)
  | Fne -> Value.Vbool (as_float a <> as_float b)
  | Flt -> Value.Vbool (as_float a < as_float b)
  | Fle -> Value.Vbool (as_float a <= as_float b)
  | Fgt -> Value.Vbool (as_float a > as_float b)
  | Fge -> Value.Vbool (as_float a >= as_float b)
  | And -> Value.Vbool (as_bool a && as_bool b)
  | Or -> Value.Vbool (as_bool a || as_bool b)
  | Padd ->
    let idx, off = as_ptr a in
    Value.Vptr (idx, off + as_int b)
  | Peq ->
    let i1, o1 = as_ptr a in
    let i2, o2 = as_ptr b in
    Value.Vbool (i1 = i2 && o1 = o2)

(* The runtime representation check behind [Let_cast]: a value read out of
   a [Tany] cell must match the target type's representation or the
   process traps.  Pointer and function payloads are checked at use sites
   (pointer-table validation, arity checks), so the shape check here is
   exactly what the tagged representation can decide. *)
let cast_check ty v =
  let ok =
    match ty, v with
    | Fir.Types.Tunit, Value.Vunit -> true
    | Fir.Types.Tint, Value.Vint _ -> true
    | Fir.Types.Tfloat, Value.Vfloat _ -> true
    | Fir.Types.Tbool, Value.Vbool _ -> true
    | Fir.Types.Tenum c, Value.Venum (c', x) -> c = c' && x >= 0 && x < c
    | (Fir.Types.Tptr _ | Fir.Types.Ttuple _ | Fir.Types.Traw), Value.Vptr _
      ->
      true
    | Fir.Types.Tfun _, Value.Vfun _ -> true
    | Fir.Types.Tany, _ -> true
    | _, _ -> false
  in
  if ok then v
  else
    raise
      (Trap
         (Printf.sprintf "cast failure: %s is not a %s" (Value.to_string v)
            (Fir.Types.to_string ty)))

(* Resolve a callee atom's value to a function name. *)
let callee proc env f = Process.fun_name proc (eval_atom proc env f)

(* Decode a migration target: a pointer into a raw block; the string starts
   at the pointer's offset. *)
let target_string proc v =
  let idx, off = as_ptr v in
  let s = Heap.raw_to_string proc.Process.heap idx in
  if off < 0 || off > String.length s then raise (Trap "bad target pointer")
  else String.sub s off (String.length s - off)

let rec exec proc ~extern env e =
  let eval a = eval_atom proc env a in
  let bind v x rest =
    Fir.Var.Table.replace env v x;
    exec proc ~extern env rest
  in
  let heap = proc.Process.heap in
  match e with
  | Let_atom (v, _, a, rest) ->
    Process.charge proc Arch.Alu;
    bind v (eval a) rest
  | Let_cast (v, t, a, rest) ->
    Process.charge proc Arch.Alu;
    bind v (cast_check t (eval a)) rest
  | Let_unop (v, _, op, a, rest) ->
    Process.charge proc Arch.Alu;
    bind v (eval_unop op (eval a)) rest
  | Let_binop (v, _, op, a, b, rest) ->
    Process.charge proc Arch.Alu;
    bind v (eval_binop op (eval a) (eval b)) rest
  | Let_tuple (v, fields, rest) ->
    Process.charge proc Arch.Trap;
    let idx = Heap.alloc_tuple heap (List.map (fun (_, a) -> eval a) fields) in
    bind v (Value.Vptr (idx, 0)) rest
  | Let_array (v, _, size, init, rest) ->
    Process.charge proc Arch.Trap;
    let n = as_int (eval size) in
    if n < 0 then raise (Trap "negative array size");
    let idx = Heap.alloc heap ~tag:Heap.Array ~size:n ~init:(eval init) in
    bind v (Value.Vptr (idx, 0)) rest
  | Let_string (v, s, rest) ->
    Process.charge proc Arch.Trap;
    let idx = Heap.alloc_raw heap s in
    bind v (Value.Vptr (idx, 0)) rest
  | Let_proj (v, _, a, i, rest) ->
    Process.charge proc Arch.Mem;
    let idx, off = as_ptr (eval a) in
    bind v (Heap.read heap idx (off + i)) rest
  | Set_proj (a, i, x, rest) ->
    Process.charge proc Arch.Mem;
    let idx, off = as_ptr (eval a) in
    Heap.write heap idx (off + i) (eval x);
    exec proc ~extern env rest
  | Let_load (v, _, a, i, rest) ->
    Process.charge proc Arch.Mem;
    let idx, off = as_ptr (eval a) in
    bind v (Heap.read heap idx (off + as_int (eval i))) rest
  | Store (a, i, x, rest) ->
    Process.charge proc Arch.Mem;
    let idx, off = as_ptr (eval a) in
    Heap.write heap idx (off + as_int (eval i)) (eval x);
    exec proc ~extern env rest
  | Let_ext (v, _, name, args, rest) ->
    Process.charge proc Arch.Trap;
    bind v (extern.Process.call proc name (List.map eval args)) rest
  | If (a, e1, e2) ->
    Process.charge proc Arch.Branch;
    if as_bool (eval a) then exec proc ~extern env e1
    else exec proc ~extern env e2
  | Switch (a, cases, default) -> (
    Process.charge proc Arch.Branch;
    let n =
      match eval a with
      | Value.Vint n | Value.Venum (_, n) -> n
      | v -> raise (Trap ("switch on non-integer " ^ Value.to_string v))
    in
    match List.assoc_opt n cases with
    | Some e -> exec proc ~extern env e
    | None -> exec proc ~extern env default)
  | Call (f, args) ->
    Process.charge proc Arch.Call_ret;
    proc.Process.cont <- callee proc env f, List.map eval args
  | Exit a ->
    Process.charge proc Arch.Call_ret;
    proc.Process.status <- Process.Exited (as_int (eval a))
  | Migrate (label, dst, f, args) ->
    Process.do_migrate proc ~label
      ~target:(target_string proc (eval dst))
      ~entry:(callee proc env f)
      ~args:(List.map eval args)
  | Speculate (f, args) ->
    Process.do_speculate proc ~entry:(callee proc env f)
      ~args:(List.map eval args)
  | Commit (l, f, args) ->
    Process.do_commit proc ~level:(as_int (eval l))
      ~entry:(callee proc env f)
      ~args:(List.map eval args)
  | Rollback (l, c) ->
    Process.do_rollback proc ~level:(as_int (eval l)) ~code:(as_int (eval c))

(* Execute one basic block.  Any runtime violation (invalid pointer, bad
   bounds, division by zero, speculation misuse, extern failure) traps the
   process instead of propagating. *)
let step ?(extern = Extern.base) proc =
  match proc.Process.status with
  | Exited _ | Trapped _ | Migrating _ -> ()
  | Running -> (
    let fname, args = proc.Process.cont in
    match
      let fd = Process.fundef proc fname in
      (* single-pass arity comparison (mirrors Emulator.enter_function):
         walk both lists together; lengths are only materialised for the
         error message on the cold path *)
      let rec same_length = function
        | [], [] -> true
        | _ :: ps, _ :: xs -> same_length (ps, xs)
        | [], _ :: _ | _ :: _, [] -> false
      in
      if not (same_length (fd.f_params, args)) then
        raise
          (Trap
             (Printf.sprintf "arity mismatch calling %s: %d params, %d args"
                fname (List.length fd.f_params) (List.length args)));
      let env = Fir.Var.Table.create 16 in
      List.iter2 (fun (v, _) x -> Fir.Var.Table.replace env v x) fd.f_params
        args;
      exec proc ~extern env fd.f_body
    with
    | () ->
      proc.Process.steps <- proc.Process.steps + 1;
      Process.maybe_collect proc
    | exception Trap msg -> proc.Process.status <- Process.Trapped msg
    | exception Heap.Runtime_error msg ->
      proc.Process.status <- Process.Trapped ("heap: " ^ msg)
    | exception Pointer_table.Invalid_pointer msg ->
      proc.Process.status <- Process.Trapped ("pointer: " ^ msg)
    | exception Function_table.Invalid_function msg ->
      proc.Process.status <- Process.Trapped ("function: " ^ msg)
    | exception Spec.Engine.Invalid_level msg ->
      proc.Process.status <- Process.Trapped ("speculation: " ^ msg)
    | exception Process.Extern_failure msg ->
      proc.Process.status <- Process.Trapped ("extern: " ^ msg)
    | exception Process.Process_error msg ->
      proc.Process.status <- Process.Trapped msg)

(* Run until exit, trap, migration request, or step budget exhaustion. *)
let run ?(extern = Extern.base) ?(max_steps = 10_000_000) proc =
  let budget = ref max_steps in
  while
    (match proc.Process.status with
     | Process.Running -> true
     | Process.Exited _ | Process.Trapped _ | Process.Migrating _ -> false)
    && !budget > 0
  do
    step ~extern proc;
    decr budget
  done;
  proc.Process.status
