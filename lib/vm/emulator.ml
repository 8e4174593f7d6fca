(* The MASM emulator: executes compiled images against a process.

   This is the "native-code runtime" stand-in.  It observes exactly the
   same semantics as the reference interpreter (the test suite checks the
   two engines produce identical results on the same programs), but it
   executes compiled instruction arrays with a real register file and
   spill slots, and charges the architecture's cycle costs per
   instruction — spill accesses cost memory cycles, so the two simulated
   architectures genuinely diverge on register-hungry code.

   Pseudo-instructions trap to the same runtime entry points
   ([Process.do_speculate] etc.) as the interpreter.

   Two execution modes share the semantics:

   - [Compiled] (the default) executes the closure-compiled image (see
     Compile): one partial-evaluated closure per fused instruction
     segment, dispatch loop [st.pc <- code.(st.pc) st].  Static
     per-instruction cycle costs accumulate in a local and are flushed
     in bulk.  The flush discipline preserves the exact cycle counts of
     per-instruction charging at every point where they are observable:
     before each extern call (externs read the cycle counter to compute
     simulated time), before each pseudo-instruction (they charge their
     own traps), and at block exit — including the exceptional exits,
     where the handler flushes whatever the partial block accumulated.

   - [Baseline] is the per-instruction interpreter loop over the
     unlinked image, kept as the reference: the V1 bench measures
     before/after from the same build, and the equivalence tests assert
     the two modes produce identical results AND identical cycle
     counts. *)

open Runtime

exception Emulator_error = Compile.Emulator_error

type mode = Baseline | Compiled

type frame = {
  mutable regs : Value.t array;
  mutable spills : Value.t array;
}

(* Distinct continuation names the resolution cache keeps (see [t]). *)
let cache_size = 8

type t = {
  image : Masm.image;
  compiled : Compile.image option;  (* None exactly in Baseline mode *)
  cstate : Compile.state;
  proc : Process.t;
  frame : frame;
  (* resolution cache for the dispatch loop, keyed by PHYSICAL string
     equality: a static tail call re-installs the linked image's own
     name into the continuation, and speculate, commit and rollback
     install the function table's, so the next step hits without
     hashing.  [last_*] is the latest resolution; [names]/[idxs] keep
     the last [cache_size] distinct ones, replaced round-robin at
     [next_slot].  Physical equality implies name equality, and the
     name fully determines the linked index, so a name the cache has
     not seen (a migration resume's) simply misses into the
     hashtable. *)
  mutable last_name : string;
  mutable last_idx : int;
  names : string array;
  idxs : int array;
  mutable next_slot : int;
  (* emulated instructions retired (both modes) — the V1 MIPS meter *)
  mutable instrs : int;
}

let create ?(mode = Compiled) ?compiled image proc =
  if not (String.equal image.Masm.im_arch proc.Process.arch.Arch.name) then
    raise
      (Emulator_error
         (Printf.sprintf "image compiled for %s, process runs on %s"
            image.Masm.im_arch proc.Process.arch.Arch.name));
  (* a supplied compiled image is shared as is; otherwise compile on
     demand exactly when the mode needs it *)
  let compiled =
    match mode, compiled with
    | Baseline, _ -> None
    | Compiled, (Some _ as c) -> c
    | Compiled, None -> Some (Compile.compile_masm image)
  in
  let linked =
    match compiled with
    | Some c -> c.Compile.c_linked
    | None -> Link.link image
  in
  (* per-process resolution of the linked image's function names:
     [Some (Vfun i)] when the name is in the process's function table,
     [None] otherwise (resolving then raises Invalid_function at USE
     time, as the unlinked lookup did) *)
  let fun_values =
    Array.map
      (fun (fn : Link.lfn) ->
        match
          Function_table.index_opt proc.Process.ftable fn.Link.l_name
        with
        | Some i -> Some (Value.Vfun i)
        | None -> None)
      linked.Link.l_fns
  in
  let frame =
    {
      regs = Array.make proc.Process.arch.Arch.registers Value.Vunit;
      spills = Array.make (max 1 linked.Link.l_max_spills) Value.Vunit;
    }
  in
  let tmp_slots =
    match compiled with Some c -> c.Compile.c_tmps | None -> 1
  in
  {
    image;
    compiled;
    (* the compiled state shares the frame's arrays: modes never mix
       within one emulator, and only Baseline re-allocates spills *)
    cstate =
      {
        Compile.regs = frame.regs;
        spills = frame.spills;
        itmps = Array.make tmp_slots 0;
        ftmps = Array.make tmp_slots 0.0;
        proc;
        heap = proc.Process.heap;
        fun_values;
        extern = Extern.base;
        ext_fns =
          (match compiled with
          | Some c -> Compile.ext_slots c
          | None -> [||]);
        acc = 0;
        nins = 0;
        pc = 0;
        args_in = [];
        pass_name = "";
        pass_idx = -1;
        pass_taken = 0;
      };
    proc;
    frame;
    last_name = "";
    last_idx = -1;
    names = Array.make cache_size "";
    idxs = Array.make cache_size (-1);
    next_slot = 0;
    instrs = 0;
  }

let instructions t = t.instrs
let passthrough_taken t = t.cstate.Compile.pass_taken
let code t = t.image, t.compiled

(* ------------------------------------------------------------------ *)
(* Baseline mode: the pre-optimization loop                            *)
(* ------------------------------------------------------------------ *)

let get_slot t = function
  | Masm.Reg r -> t.frame.regs.(r)
  | Masm.Spill s ->
    Process.charge t.proc Arch.Mem;
    t.frame.spills.(s)

let set_slot t slot v =
  match slot with
  | Masm.Reg r -> t.frame.regs.(r) <- v
  | Masm.Spill s ->
    Process.charge t.proc Arch.Mem;
    t.frame.spills.(s) <- v

let imm_value t = function
  | Masm.Iunit -> Value.Vunit
  | Masm.Iint n -> Value.Vint n
  | Masm.Ifloat f -> Value.Vfloat f
  | Masm.Ibool b -> Value.Vbool b
  | Masm.Ienum (c, v) -> Value.Venum (c, v)
  | Masm.Ifun f -> Process.fun_value t.proc f
  | Masm.Inil -> Interp.nil_value

let operand t = function
  | Masm.Slot s -> get_slot t s
  | Masm.Imm i -> imm_value t i

(* Install a continuation's arguments into a fresh frame for [fname]. *)
let enter_function t fname args =
  let fn =
    match Masm.fn t.image fname with
    | Some fn -> fn
    | None -> raise (Emulator_error ("no compiled code for " ^ fname))
  in
  (* single-pass arity comparison: walk both lists together instead of
     materialising two lengths *)
  let rec same_length = function
    | [], [] -> true
    | _ :: ps, _ :: xs -> same_length (ps, xs)
    | [], _ :: _ | _ :: _, [] -> false
  in
  if not (same_length (fn.Masm.fn_params, args)) then
    raise
      (Emulator_error (Printf.sprintf "arity mismatch calling %s" fname));
  t.frame.spills <- Array.make (max 1 fn.Masm.fn_spills) Value.Vunit;
  Array.fill t.frame.regs 0 (Array.length t.frame.regs) Value.Vunit;
  List.iter2 (fun slot v -> set_slot t slot v) fn.Masm.fn_params args;
  fn

(* Execute one basic block against the unlinked image (mirrors
   Interp.step).  [nins] counts retired instructions for the meter. *)
let exec_baseline t extern nins =
  let proc = t.proc in
  let heap = proc.Process.heap in
  let fname, args = proc.Process.cont in
  let fn = enter_function t fname args in
  Process.charge proc Arch.Call_ret;
  let code = fn.Masm.fn_code in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    if !pc < 0 || !pc >= Array.length code then
      raise (Emulator_error "program counter out of range");
    let i = code.(!pc) in
    incr pc;
    incr nins;
    match i with
    | Masm.Mov (d, a) ->
      Process.charge proc Arch.Alu;
      set_slot t d (operand t a)
    | Masm.Cast (d, ty, a) ->
      Process.charge proc Arch.Alu;
      set_slot t d (Interp.cast_check ty (operand t a))
    | Masm.Unop (o, d, a) ->
      Process.charge proc Arch.Alu;
      set_slot t d (Interp.eval_unop o (operand t a))
    | Masm.Binop (o, d, a, b) ->
      Process.charge proc Arch.Alu;
      set_slot t d (Interp.eval_binop o (operand t a) (operand t b))
    | Masm.Alloc_tuple (d, fields) ->
      Process.charge proc Arch.Trap;
      let idx = Heap.alloc_tuple heap (List.map (operand t) fields) in
      set_slot t d (Value.Vptr (idx, 0))
    | Masm.Alloc_array (d, n, init) ->
      Process.charge proc Arch.Trap;
      let size = Interp.as_int (operand t n) in
      if size < 0 then raise (Interp.Trap "negative array size");
      let idx =
        Heap.alloc heap ~tag:Heap.Array ~size ~init:(operand t init)
      in
      set_slot t d (Value.Vptr (idx, 0))
    | Masm.Alloc_string (d, s) ->
      Process.charge proc Arch.Trap;
      set_slot t d (Value.Vptr (Heap.alloc_raw heap s, 0))
    | Masm.Load (d, p, dyn, k) ->
      Process.charge proc Arch.Mem;
      let idx, off = Interp.as_ptr (operand t p) in
      let dyn = Interp.as_int (operand t dyn) in
      set_slot t d (Heap.read heap idx (off + dyn + k))
    | Masm.Store (p, dyn, k, v) ->
      Process.charge proc Arch.Mem;
      let idx, off = Interp.as_ptr (operand t p) in
      let dyn = Interp.as_int (operand t dyn) in
      Heap.write heap idx (off + dyn + k) (operand t v)
    | Masm.Ext (d, name, args) ->
      Process.charge proc Arch.Trap;
      set_slot t d (extern.Process.call proc name (List.map (operand t) args))
    | Masm.Jmp target ->
      Process.charge proc Arch.Branch;
      pc := target
    | Masm.Jz (c, target) ->
      Process.charge proc Arch.Branch;
      if not (Interp.as_bool (operand t c)) then pc := target
    | Masm.Switch (v, cases, default) ->
      Process.charge proc Arch.Branch;
      let n =
        match operand t v with
        | Value.Vint n | Value.Venum (_, n) -> n
        | v ->
          raise (Interp.Trap ("switch on non-integer " ^ Value.to_string v))
      in
      pc :=
        (match List.assoc_opt n cases with
        | Some target -> target
        | None -> default)
    | Masm.Tail_call (f, args) ->
      Process.charge proc Arch.Call_ret;
      let name = Process.fun_name proc (operand t f) in
      proc.Process.cont <- name, List.map (operand t) args;
      running := false
    | Masm.Exit v ->
      Process.charge proc Arch.Call_ret;
      proc.Process.status <- Process.Exited (Interp.as_int (operand t v));
      running := false
    | Masm.Migrate (label, dst, f, args) ->
      Process.do_migrate proc ~label
        ~target:(Interp.target_string proc (operand t dst))
        ~entry:(Process.fun_name proc (operand t f))
        ~args:(List.map (operand t) args);
      running := false
    | Masm.Speculate (f, args) ->
      Process.do_speculate proc
        ~entry:(Process.fun_name proc (operand t f))
        ~args:(List.map (operand t) args);
      running := false
    | Masm.Commit (l, f, args) ->
      Process.do_commit proc
        ~level:(Interp.as_int (operand t l))
        ~entry:(Process.fun_name proc (operand t f))
        ~args:(List.map (operand t) args);
      running := false
    | Masm.Rollback (l, c) ->
      Process.do_rollback proc
        ~level:(Interp.as_int (operand t l))
        ~code:(Interp.as_int (operand t c));
      running := false
  done

(* ------------------------------------------------------------------ *)
(* Compiled mode: the closure-threaded loop                            *)
(* ------------------------------------------------------------------ *)

(* Resolve a continuation name to its linked function.  The hot case —
   a static tail call that installed the image's own (physically
   shared) name — is one pointer comparison; a name resolved recently
   costs at most [cache_size] more. *)
let resolve_idx t (cimg : Compile.image) fname =
  if fname == t.last_name && t.last_idx >= 0 then t.last_idx
  else begin
    let slot = ref 0 in
    while !slot < cache_size && not (fname == t.names.(!slot)) do
      incr slot
    done;
    let i =
      if !slot < cache_size && t.idxs.(!slot) >= 0 then t.idxs.(!slot)
      else
        match Hashtbl.find_opt cimg.Compile.c_linked.Link.l_index fname with
        | Some i ->
          t.names.(t.next_slot) <- fname;
          t.idxs.(t.next_slot) <- i;
          t.next_slot <- (t.next_slot + 1) mod cache_size;
          i
        | None -> raise (Emulator_error ("no compiled code for " ^ fname))
    in
    t.last_name <- fname;
    t.last_idx <- i;
    i
  end

let flush proc acc =
  if !acc <> 0 then begin
    Process.charge_cycles proc !acc;
    acc := 0
  end

(* Execute one basic block of the closure-compiled image.  Block entry
   resolves the continuation, checks its arity, clears the frame,
   installs the parameters and charges the entry cost; after a
   pass-through tail (see Compile) it only clears and charges.  The
   instruction loop is pure dispatch.  The
   [unsafe_get] is safe by construction: Compile only ever emits next
   pcs inside [0, len] (out-of-range static targets are remapped to the
   raising sentinel at [len]), and negative returns exit the loop. *)
let exec_compiled t (cimg : Compile.image) extern acc nins =
  let proc = t.proc in
  let st = t.cstate in
  let fname, args = proc.Process.cont in
  (* a pass-through tail left its arguments in the parameter slots; any
     other writer of [cont] stored a fresh list, which fails the check *)
  let passed =
    st.Compile.pass_idx >= 0
    && fname == st.Compile.pass_name
    && args == st.Compile.args_in
  in
  let pidx = st.Compile.pass_idx in
  st.Compile.pass_idx <- -1;
  let idx = if passed then pidx else resolve_idx t cimg fname in
  let fn = cimg.Compile.c_linked.Link.l_fns.(idx) in
  let params = fn.Link.l_params in
  let rec count_is l n =
    match l with
    | [] -> n = 0
    | _ :: rest -> n > 0 && count_is rest (n - 1)
  in
  if (not passed) && not (count_is args (Array.length params)) then
    raise (Emulator_error (Printf.sprintf "arity mismatch calling %s" fname));
  let regs = st.Compile.regs and spills = st.Compile.spills in
  let cfn = cimg.Compile.c_fns.(idx) in
  (* definite-assignment analysis shrank the frame clear to the slots
     that may actually be read before being written *)
  let clr = cfn.Compile.cf_clear_regs in
  for i = 0 to Array.length clr - 1 do
    regs.(Array.unsafe_get clr i) <- Value.Vunit
  done;
  let cls = cfn.Compile.cf_clear_spills in
  for i = 0 to Array.length cls - 1 do
    spills.(Array.unsafe_get cls i) <- Value.Vunit
  done;
  let rec install i = function
    | [] -> ()
    | v :: rest ->
      (match params.(i) with
      | Masm.Reg r -> regs.(r) <- v
      | Masm.Spill s -> spills.(s) <- v);
      install (i + 1) rest
  in
  if passed then st.Compile.pass_taken <- st.Compile.pass_taken + 1
  else begin
    install 0 args;
    st.Compile.args_in <- args
  end;
  let code = cfn.Compile.cf_ops in
  if st.Compile.extern != extern then Compile.set_extern st extern;
  st.Compile.acc <- fn.Link.l_entry_cost;
  st.Compile.nins <- 0;
  st.Compile.pc <- 0;
  (* copy the counters back into the caller's refs on EVERY exit so the
     step handler's flush and meter see the exact partial-block state *)
  match
    while st.Compile.pc >= 0 do
      st.Compile.pc <- (Array.unsafe_get code st.Compile.pc) st
    done
  with
  | () ->
    acc := !acc + st.Compile.acc;
    nins := !nins + st.Compile.nins
  | exception e ->
    acc := !acc + st.Compile.acc;
    nins := !nins + st.Compile.nins;
    raise e

(* ------------------------------------------------------------------ *)
(* Step                                                                *)
(* ------------------------------------------------------------------ *)

(* Execute one basic block (mirrors Interp.step). *)
let step ?(extern = Extern.base) t =
  let proc = t.proc in
  match proc.Process.status with
  | Process.Exited _ | Process.Trapped _ | Process.Migrating _ -> ()
  | Process.Running -> (
    let acc = ref 0 in
    let nins = ref 0 in
    match
      match t.compiled with
      | Some c -> exec_compiled t c extern acc nins
      | None -> exec_baseline t extern nins
    with
    | () ->
      flush proc acc;
      t.instrs <- t.instrs + !nins;
      proc.Process.steps <- proc.Process.steps + 1;
      Process.maybe_collect proc
    | exception e -> (
      (* account the partial block: cycles accrued before the fault are
         real simulated work, and the meter counts retired attempts *)
      flush proc acc;
      t.instrs <- t.instrs + !nins;
      match e with
      | Interp.Trap msg -> proc.Process.status <- Process.Trapped msg
      | Emulator_error msg ->
        proc.Process.status <- Process.Trapped ("emulator: " ^ msg)
      | Heap.Runtime_error msg ->
        proc.Process.status <- Process.Trapped ("heap: " ^ msg)
      | Pointer_table.Invalid_pointer msg ->
        proc.Process.status <- Process.Trapped ("pointer: " ^ msg)
      | Function_table.Invalid_function msg ->
        proc.Process.status <- Process.Trapped ("function: " ^ msg)
      | Spec.Engine.Invalid_level msg ->
        proc.Process.status <- Process.Trapped ("speculation: " ^ msg)
      | Process.Extern_failure msg ->
        proc.Process.status <- Process.Trapped ("extern: " ^ msg)
      | Process.Process_error msg -> proc.Process.status <- Process.Trapped msg
      | e -> raise e))

let run ?(extern = Extern.base) ?(max_steps = 10_000_000) t =
  let budget = ref max_steps in
  while
    (match t.proc.Process.status with
     | Process.Running -> true
     | Process.Exited _ | Process.Trapped _ | Process.Migrating _ -> false)
    && !budget > 0
  do
    step ~extern t;
    decr budget
  done;
  t.proc.Process.status

(* The cost of a context switch on this runtime: save and restore one full
   register file plus scheduler bookkeeping.  Used by experiment E5. *)
let context_switch_cycles (arch : Arch.t) =
  (* save + restore every register (memory traffic) plus a trap in and out *)
  (2 * arch.Arch.registers * arch.Arch.cycles Arch.Mem)
  + (2 * arch.Arch.cycles Arch.Trap)
