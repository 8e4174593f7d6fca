(* Pre-resolution of MASM images (the "stub linking" the paper performs
   before resuming migrated code, taken seriously as an optimization
   pass).

   The emulator's inner loop used to pay for name resolution, switch
   table walks, immediate construction, and a per-instruction cycle
   charge through a closure.  All four are static properties of the
   image, so this pass pays them once per (program, architecture) and
   the emulator executes the resolved form:

   - dense function indices: a tail call to a KNOWN function is an array
     access; dynamic calls go through a one-entry physical-equality
     cache and a hashtable (see Emulator);
   - sorted switch arrays with binary search;
   - immediates pre-built as Value.t (function immediates excepted:
     Vfun carries a per-process function-table index, so they stay
     symbolic as Rfun/Rfunname);
   - per-instruction static cycle cost: the instruction class cost plus
     Arch.Mem for every spill slot the instruction reads or writes.
     The emulator accumulates these in a local and flushes the sum with
     one Process.charge_cycles per observation boundary (extern calls,
     pseudo-instructions, block exit), preserving the exact cycle
     counts the per-instruction charging produced.

   The result is immutable and process-independent: it is cached
   alongside the compiled image in the recompilation cache and shared
   by every emulator running that program. *)

type rop =
  | Rreg of int
  | Rspill of int
  | Rval of Runtime.Value.t
  | Rfun of int
  | Rfunname of string

type rinstr =
  | Lmov of Masm.slot * rop
  | Lcast of Masm.slot * Fir.Types.ty * rop
  | Lunop of Fir.Ast.unop * Masm.slot * rop
  | Lbinop of Fir.Ast.binop * Masm.slot * rop * rop
  | Lalloc_tuple of Masm.slot * rop array
  | Lalloc_array of Masm.slot * rop * rop
  | Lalloc_string of Masm.slot * string
  | Lload of Masm.slot * rop * rop * int
  | Lstore of rop * rop * int * rop
  | Lext of Masm.slot * string * rop array * int
  | Ljmp of int
  | Ljz of rop * int
  | Lswitch of rop * int array * int array * int
  | Ltail of rop * rop array
  | Lexit of rop
  | Lmigrate of int * rop * rop * rop array
  | Lspeculate of rop * rop array
  | Lcommit of rop * rop * rop array
  | Lrollback of rop * rop

type lfn = {
  l_name : string;
  l_params : Masm.slot array;
  l_spills : int;
  l_regs_used : int;
  l_entry_cost : int;
  l_code : rinstr array;
  l_cost : int array;
}

type image = {
  l_fns : lfn array;
  l_index : (string, int) Hashtbl.t;
  l_max_spills : int;
}

(* Value.t for a non-function immediate.  Built once at link time: the
   unlinked emulator allocated a fresh Value block on EVERY fetch of a
   boxed immediate. *)
let resolve_op index = function
  | Masm.Slot (Masm.Reg r) -> Rreg r
  | Masm.Slot (Masm.Spill s) -> Rspill s
  | Masm.Imm Masm.Iunit -> Rval Runtime.Value.Vunit
  | Masm.Imm (Masm.Iint n) -> Rval (Runtime.Value.Vint n)
  | Masm.Imm (Masm.Ifloat f) -> Rval (Runtime.Value.Vfloat f)
  | Masm.Imm (Masm.Ibool b) -> Rval (Runtime.Value.Vbool b)
  | Masm.Imm (Masm.Ienum (c, v)) -> Rval (Runtime.Value.Venum (c, v))
  | Masm.Imm (Masm.Ifun f) -> (
    match Hashtbl.find_opt index f with
    | Some i -> Rfun i
    | None -> Rfunname f)
  | Masm.Imm Masm.Inil -> Rval (Runtime.Value.Vptr (-1, 0))

(* Static cycle cost of touching an operand / destination: spill slots
   live in the frame, so the emulator charged Arch.Mem per access. *)
let op_cost mem = function
  | Rspill _ -> mem
  | Rreg _ | Rval _ | Rfun _ | Rfunname _ -> 0

let slot_cost mem = function Masm.Spill _ -> mem | Masm.Reg _ -> 0

let ops_cost mem a = Array.fold_left (fun acc o -> acc + op_cost mem o) 0 a

(* Sorted switch table; first occurrence wins on duplicate keys, which
   is what List.assoc_opt over the original list returned. *)
let switch_arrays cases =
  let seen = Hashtbl.create 8 in
  let uniq =
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      cases
  in
  (* Int.compare, not polymorphic compare: the keys are ints, and the
     polymorphic path costs a C call per comparison *)
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) uniq in
  ( Array.of_list (List.map fst sorted),
    Array.of_list (List.map snd sorted) )

let link_fn (arch : Arch.t) index (fn : Masm.fn) =
  let mem = arch.Arch.cycles Arch.Mem in
  let alu = arch.Arch.cycles Arch.Alu in
  let branch = arch.Arch.cycles Arch.Branch in
  let call_ret = arch.Arch.cycles Arch.Call_ret in
  let trap = arch.Arch.cycles Arch.Trap in
  let op = resolve_op index in
  let ops l = Array.of_list (List.map op l) in
  let n = Array.length fn.Masm.fn_code in
  let code = Array.make (max 1 n) (Ljmp 0) in
  let cost = Array.make (max 1 n) 0 in
  for pc = 0 to n - 1 do
    let ri, c =
      match fn.Masm.fn_code.(pc) with
      | Masm.Mov (d, a) ->
        let a = op a in
        Lmov (d, a), alu + slot_cost mem d + op_cost mem a
      | Masm.Cast (d, ty, a) ->
        let a = op a in
        Lcast (d, ty, a), alu + slot_cost mem d + op_cost mem a
      | Masm.Unop (o, d, a) ->
        let a = op a in
        Lunop (o, d, a), alu + slot_cost mem d + op_cost mem a
      | Masm.Binop (o, d, a, b) ->
        let a = op a and b = op b in
        ( Lbinop (o, d, a, b),
          alu + slot_cost mem d + op_cost mem a + op_cost mem b )
      | Masm.Alloc_tuple (d, fields) ->
        let fields = ops fields in
        Lalloc_tuple (d, fields), trap + slot_cost mem d + ops_cost mem fields
      | Masm.Alloc_array (d, size, init) ->
        let size = op size and init = op init in
        ( Lalloc_array (d, size, init),
          trap + slot_cost mem d + op_cost mem size + op_cost mem init )
      | Masm.Alloc_string (d, s) ->
        Lalloc_string (d, s), trap + slot_cost mem d
      | Masm.Load (d, p, dyn, k) ->
        let p = op p and dyn = op dyn in
        ( Lload (d, p, dyn, k),
          mem + slot_cost mem d + op_cost mem p + op_cost mem dyn )
      | Masm.Store (p, dyn, k, v) ->
        let p = op p and dyn = op dyn and v = op v in
        ( Lstore (p, dyn, k, v),
          mem + op_cost mem p + op_cost mem dyn + op_cost mem v )
      | Masm.Ext (d, name, args) ->
        let args = ops args in
        (* the dst write happens after the extern returns; its spill
           cost must land after the pre-extern flush *)
        ( Lext (d, name, args, slot_cost mem d),
          trap + ops_cost mem args )
      | Masm.Jmp t -> Ljmp t, branch
      | Masm.Jz (c, t) ->
        let c = op c in
        Ljz (c, t), branch + op_cost mem c
      | Masm.Switch (v, cases, default) ->
        let v = op v in
        let keys, targets = switch_arrays cases in
        Lswitch (v, keys, targets, default), branch + op_cost mem v
      | Masm.Tail_call (f, args) ->
        let f = op f and args = ops args in
        Ltail (f, args), call_ret + op_cost mem f + ops_cost mem args
      | Masm.Exit v ->
        let v = op v in
        Lexit v, call_ret + op_cost mem v
      | Masm.Migrate (label, dst, f, args) ->
        let dst = op dst and f = op f and args = ops args in
        (* Process.do_migrate charges its own Trap *)
        ( Lmigrate (label, dst, f, args),
          op_cost mem dst + op_cost mem f + ops_cost mem args )
      | Masm.Speculate (f, args) ->
        let f = op f and args = ops args in
        Lspeculate (f, args), op_cost mem f + ops_cost mem args
      | Masm.Commit (l, f, args) ->
        let l = op l and f = op f and args = ops args in
        ( Lcommit (l, f, args),
          op_cost mem l + op_cost mem f + ops_cost mem args )
      | Masm.Rollback (l, c) ->
        let l = op l and c = op c in
        Lrollback (l, c), op_cost mem l + op_cost mem c
    in
    code.(pc) <- ri;
    cost.(pc) <- c
  done;
  (* registers live for this function: parameters plus every register
     slot the code mentions — clearing only these on entry is
     observationally identical to clearing the whole file *)
  let regs_used = ref 0 in
  let see_slot = function
    | Masm.Reg r -> if r + 1 > !regs_used then regs_used := r + 1
    | Masm.Spill _ -> ()
  in
  let see_op = function
    | Rreg r -> if r + 1 > !regs_used then regs_used := r + 1
    | Rspill _ | Rval _ | Rfun _ | Rfunname _ -> ()
  in
  let see_ops = Array.iter see_op in
  List.iter see_slot fn.Masm.fn_params;
  Array.iter
    (function
      | Lmov (d, a) | Lcast (d, _, a) | Lunop (_, d, a) ->
        see_slot d;
        see_op a
      | Lbinop (_, d, a, b) ->
        see_slot d;
        see_op a;
        see_op b
      | Lalloc_tuple (d, fields) ->
        see_slot d;
        see_ops fields
      | Lalloc_array (d, a, b) ->
        see_slot d;
        see_op a;
        see_op b
      | Lalloc_string (d, _) -> see_slot d
      | Lload (d, p, dyn, _) ->
        see_slot d;
        see_op p;
        see_op dyn
      | Lstore (p, dyn, _, v) ->
        see_op p;
        see_op dyn;
        see_op v
      | Lext (d, _, args, _) ->
        see_slot d;
        see_ops args
      | Ljmp _ -> ()
      | Ljz (c, _) -> see_op c
      | Lswitch (v, _, _, _) -> see_op v
      | Ltail (f, args) ->
        see_op f;
        see_ops args
      | Lexit v -> see_op v
      | Lmigrate (_, dst, f, args) ->
        see_op dst;
        see_op f;
        see_ops args
      | Lspeculate (f, args) ->
        see_op f;
        see_ops args
      | Lcommit (l, f, args) ->
        see_op l;
        see_op f;
        see_ops args
      | Lrollback (l, c) ->
        see_op l;
        see_op c)
    code;
  let mem_params =
    List.fold_left
      (fun acc s -> acc + slot_cost mem s)
      0 fn.Masm.fn_params
  in
  {
    l_name = fn.Masm.fn_name;
    l_params = Array.of_list fn.Masm.fn_params;
    l_spills = fn.Masm.fn_spills;
    l_regs_used = !regs_used;
    (* entering a block charges Call_ret plus the spill traffic of
       installing spilled parameters (set_slot charged Arch.Mem each) *)
    l_entry_cost = call_ret + mem_params;
    l_code = code;
    l_cost = cost;
  }

let link (image : Masm.image) =
  let arch = Arch.by_name image.Masm.im_arch in
  (* deterministic dense numbering: String_map folds in key order *)
  let names =
    List.rev
      (Masm.String_map.fold (fun name _ acc -> name :: acc) image.Masm.im_fns
         [])
  in
  let index = Hashtbl.create (2 * List.length names) in
  List.iteri (fun i name -> Hashtbl.add index name i) names;
  let fns =
    Array.of_list
      (List.map
         (fun name -> link_fn arch index (Masm.fn_exn image name))
         names)
  in
  let max_spills =
    Array.fold_left (fun acc fn -> max acc fn.l_spills) 0 fns
  in
  {
    l_fns = fns;
    l_index = index;
    l_max_spills = max_spills;
  }

let instr_count t =
  Array.fold_left (fun acc fn -> acc + Array.length fn.l_code) 0 t.l_fns
