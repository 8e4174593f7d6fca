(* Closure compilation of linked MASM: the optimized execution tier.

   The linked form (see Link) already paid for name resolution, switch
   tables, immediates and static cycle costs, but the emulator's inner
   loop still re-decodes every instruction: a ~20-way variant match per
   [rinstr], an operand match per fetch, and a 30-way operator match
   inside [Interp.eval_binop].  All of that is static, so this pass pays
   it once and translates each linked function into an array of OCaml
   closures — the subroutine-threading technique OCamlJIT 2.0 applies to
   the OCaml bytecode interpreter, here applied to MASM — and then goes
   three steps further, all justified by the static opcode/pair
   histogram ([Masm.stats], the [mcc masm --stats] dump):

   - {b Superinstruction segments.}  Code is cut into maximal
     straight-line runs broken only at the places control can enter: pc
     0, every jump target, and the pc after an extern (externs observe
     the cycle counter, so they bound segments; so do the
     migration/speculation pseudo-instructions and block exits, which
     terminate segments).  One closure executes the whole run — a
     compare feeding a conditional branch, a mov/load chain feeding an
     ALU op, a self-jump loop body — and the dispatch loop degenerates
     to [while st.pc >= 0 do st.pc <- code.(st.pc) st done], one
     dispatch per segment instead of one per instruction.  Run interiors
     are provably unreachable, so interior pcs hold a loudly-raising
     closure rather than a duplicate entry point.

   - {b Unboxed value forwarding.}  A producer whose result kind is
     statically known (int/bool results in [itmps], floats in the flat
     [ftmps]) writes its raw result into a scratch slot indexed by its
     own pc — written at most once per segment execution, so consumers
     compiled later in the run read the raw value with no representation
     check, no unboxing and no allocation.  The boxed store into the
     destination register/spill is kept only when the value can {e
     escape} the segment (be read by another segment entered through a
     branch target or fall-through, decided by per-function liveness);
     dead stores — the single-use spill temporaries codegen emits in
     bulk — vanish together with their [caml_modify] write barriers and
     their [Vint]/[Vfloat] boxing.  Temps never hold pointers, and the
     simulated GC never scans the frame (it roots the process, not the
     register file), so forwarding is invisible to collection.

   - {b Checkpointed accounting.}  Cycle cost and retired-instruction
     count are only observable at traps, externs, pseudo-instructions
     and block exits.  Non-trapping instructions therefore defer their
     accounting into a compile-time prefix sum which the next trapping
     instruction, conditional or segment exit adds back in one or two
     writes — exactly the totals the per-instruction loop would hold at
     that point, including mid-segment traps (every potentially-trapping
     closure checkpoints inclusively {e before} executing, the
     per-instruction loops' order).

   - {b Frame-clear elision.}  Block entry must clear the registers
     and spills the function can touch ([l_regs_used], [l_spills]).  A forward
     definite-assignment analysis proves most of them are written before
     any read on every path, so the compiled entry clears only the
     remainder ([cf_clear_regs]/[cf_clear_spills]); skipped clears are
     unobservable because every read still sees either the same [Vunit]
     or a value the function itself stored.

   - {b Pass-through tail calls.}  A CPS loop step tail-calls with every
     live variable, usually unchanged and in place.  When the callee is
     static and takes the caller's parameter slots, the operands are
     exactly those slots in order, and no instruction of the caller
     writes one of them, the arguments are the block's incoming list
     value for value and already sit where the callee reads them.  The
     tail then stores that list itself in [cont] (no fresh list) and
     marks the state; the emulator's next block entry skips the arity
     check and the parameter install when the mark is set and [cont]
     still holds, physically, the name and list the tail stored.  Every
     other writer of [cont] (rollback, commit, a failed migration, an
     unpacked image, the interpreter) makes a fresh list, so it always
     takes the full entry.  Steps, cycle charges and the GC roots (the
     list in [cont]) are those of the full call.

   Observational equivalence with [Baseline] is load-bearing: same
   status, output, retired-instruction count, cycle charges at every
   flush boundary, and same traps with the same messages — the
   equivalence suite holds both modes to it.

   A compiled image captures only static data — all per-process state
   (registers, spills, scratch arrays, the process, its heap and
   function table, the extern handler and the accounting counters)
   travels in the [state] record passed to every closure — so it is
   process-independent and is cached in [Migrate.Codecache]: a warm
   migration hop resumes straight into compiled code. *)

open Runtime

exception Emulator_error of string

(* Per-process execution state threaded through every closure.  One per
   emulator; the closures themselves are shared. *)
type state = {
  regs : Value.t array;
  spills : Value.t array;
  itmps : int array;
      (* unboxed int/bool scratch results, indexed by producer pc *)
  ftmps : float array;  (* unboxed float scratch results (flat array) *)
  proc : Process.t;
  heap : Heap.t;
  fun_values : Value.t option array;
      (* per-process resolution of the linked image's function names,
         indexed by linked-function index (mirrors Emulator.fun_values) *)
  mutable extern : Process.handler;
  ext_fns : (Process.t -> Value.t list -> Value.t) array;
      (* the function [extern] bound for each Lext site of the image,
         indexed by site; [unbound] until the site's first call, and
         again after [set_extern] switches handlers.  Kept here, not in
         the closures, so a shared image pins no host *)
  mutable acc : int;  (* pending static cycle charges *)
  mutable nins : int;  (* instructions retired this block *)
  mutable pc : int;
  mutable args_in : Value.t list;
      (* the argument list the current block was entered with *)
  mutable pass_name : string;
      (* the callee name the last pass-through tail stored in [cont] *)
  mutable pass_idx : int;
      (* the mark: that callee's linked index, or -1; block entry clears
         it *)
  mutable pass_taken : int;
      (* block entries that found the mark set and skipped the install *)
}

(* A closure executes one fused segment and returns the next pc, or a
   negative value at block exit. *)
type op = state -> int

type cfn = {
  cf_ops : op array;
      (* length [Array.length l_code + 1] with a raising sentinel at the
         end so a fall-through off the end traps exactly like the bounds
         check of the interpretive loops *)
  cf_clear_regs : int array;
      (* registers to clear at block entry: the subset of
         [0, l_regs_used) not definitely assigned before every read *)
  cf_clear_spills : int array;  (* likewise within [0, l_spills) *)
}

type image = {
  c_linked : Link.image;
  c_fns : cfn array;  (* parallel to [c_linked.l_fns] *)
  c_instrs : int;  (* instructions compiled *)
  c_super : int;  (* entry closures covering >= 2 instructions *)
  c_passthrough : int;  (* tail sites compiled as pass-through *)
  c_ext_sites : int;  (* Lext sites, numbered across the image *)
  c_tmps : int;
      (* scratch sizing for [itmps]/[ftmps]: max code length over the
         image's functions (temp index = producer pc), at least 1 *)
}

let vtrue = Value.Vbool true
let vfalse = Value.Vbool false
let vbool b = if b then vtrue else vfalse

(* Local copies of the Interp coercions so the match inlines into the
   specialized closures; the trap messages are identical by
   construction (the equivalence suite compares them). *)
let trap_not fmt v =
  raise (Interp.Trap ("expected " ^ fmt ^ ", got " ^ Value.to_string v))

let to_int = function Value.Vint n -> n | v -> trap_not "int" v
let to_float = function Value.Vfloat f -> f | v -> trap_not "float" v
let to_bool = function Value.Vbool b -> b | v -> trap_not "bool" v

(* ------------------------------------------------------------------ *)
(* Compile-time slot contents (the forwarding lattice)                 *)
(* ------------------------------------------------------------------ *)

(* What the run compiled so far knows about a register/spill slot.
   [Fint i]/[Ffloat i]/[Fbool i] say the raw value sits in the scratch
   slot of the producer at pc [i]; [Fval v] is a propagated immediate.
   [stored] records whether the boxed value is ALSO in the slot (then a
   boxed fetch prefers the slot — no reboxing allocation). *)
type fwd = Fint of int | Ffloat of int | Fbool of int | Fval of Value.t
type avail = { fw : fwd; stored : bool }

(* Unified slot id space: registers [0, nregs), spills offset by nregs. *)
let sid nregs = function Masm.Reg r -> r | Masm.Spill s -> nregs + s

let rop_sid nregs = function
  | Link.Rreg r -> r
  | Link.Rspill s -> nregs + s
  | Link.Rval _ | Link.Rfun _ | Link.Rfunname _ -> -1

(* ------------------------------------------------------------------ *)
(* Operand getters, partial-evaluated over rop and the avail map        *)
(* ------------------------------------------------------------------ *)

(* Boxed fetch.  For a forwarded-but-unstored slot this reboxes from the
   scratch array — moving the allocation the per-instruction loop paid
   at the def to the (rarer) boxed use. *)
let gget (linked : Link.image) nregs (av : avail option array)
    (op : Link.rop) : state -> Value.t =
  let fetch idx slot_read =
    match av.(idx) with
    | Some { fw = Fval v; _ } -> fun _ -> v
    | Some { stored = true; _ } | None -> slot_read
    | Some { fw = Fint i; _ } ->
      fun st -> Value.Vint (Array.unsafe_get st.itmps i)
    | Some { fw = Ffloat i; _ } ->
      fun st -> Value.Vfloat (Array.unsafe_get st.ftmps i)
    | Some { fw = Fbool i; _ } ->
      fun st -> vbool (Array.unsafe_get st.itmps i <> 0)
  in
  match op with
  | Link.Rreg r -> fetch r (fun st -> st.regs.(r))
  | Link.Rspill s -> fetch (nregs + s) (fun st -> st.spills.(s))
  | Link.Rval v -> fun _ -> v
  | Link.Rfun i ->
    let name = linked.Link.l_fns.(i).Link.l_name in
    fun st -> (
      match st.fun_values.(i) with
      | Some v -> v
      | None -> Process.fun_value st.proc name)
  | Link.Rfunname name -> fun st -> Process.fun_value st.proc name

(* Typed fetches return the raw value plus a static trap-freedom bit.
   Legal because register/spill/immediate fetches cannot raise, so
   fusing fetch+check preserves the order of every observable effect. *)
let iget linked nregs av op : (state -> int) * bool =
  let generic () =
    let g = gget linked nregs av op in
    (fun st -> to_int (g st)), false
  in
  let slot idx =
    match av.(idx) with
    | Some { fw = Fint i; _ } ->
      (fun st -> Array.unsafe_get st.itmps i), true
    | Some { fw = Fval (Value.Vint n); _ } -> (fun _ -> n), true
    | _ -> generic ()
  in
  match op with
  | Link.Rval (Value.Vint n) -> (fun _ -> n), true
  | Link.Rreg r -> slot r
  | Link.Rspill s -> slot (nregs + s)
  | _ -> generic ()

let fget linked nregs av op : (state -> float) * bool =
  let generic () =
    let g = gget linked nregs av op in
    (fun st -> to_float (g st)), false
  in
  let slot idx =
    match av.(idx) with
    | Some { fw = Ffloat i; _ } ->
      (fun st -> Array.unsafe_get st.ftmps i), true
    | Some { fw = Fval (Value.Vfloat f); _ } -> (fun _ -> f), true
    | _ -> generic ()
  in
  match op with
  | Link.Rval (Value.Vfloat f) -> (fun _ -> f), true
  | Link.Rreg r -> slot r
  | Link.Rspill s -> slot (nregs + s)
  | _ -> generic ()

let bget linked nregs av op : (state -> bool) * bool =
  let generic () =
    let g = gget linked nregs av op in
    (fun st -> to_bool (g st)), false
  in
  let slot idx =
    match av.(idx) with
    | Some { fw = Fbool i; _ } ->
      (fun st -> Array.unsafe_get st.itmps i <> 0), true
    | Some { fw = Fval (Value.Vbool b); _ } -> (fun _ -> b), true
    | _ -> generic ()
  in
  match op with
  | Link.Rval (Value.Vbool b) -> (fun _ -> b), true
  | Link.Rreg r -> slot r
  | Link.Rspill s -> slot (nregs + s)
  | _ -> generic ()

(* Statically-known integer operand (divisor/offset/scrutinee folding). *)
let iconst nregs (av : avail option array) = function
  | Link.Rval (Value.Vint n) -> Some n
  | Link.Rreg r -> (
    match av.(r) with
    | Some { fw = Fval (Value.Vint n); _ } -> Some n
    | _ -> None)
  | Link.Rspill s -> (
    match av.(nregs + s) with
    | Some { fw = Fval (Value.Vint n); _ } -> Some n
    | _ -> None)
  | _ -> None

(* Argument lists (tail calls, externs, tuple fields): built right to
   left in one pass, so a raising fetch (an unresolvable function
   immediate) fires in a fixed order. *)
let args_fn linked nregs av (a : Link.rop array) : state -> Value.t list =
  let gs = Array.map (gget linked nregs av) a in
  match gs with
  | [||] -> fun _ -> []
  | [| g0 |] -> fun st -> [ g0 st ]
  | [| g0; g1 |] ->
    fun st ->
      let v1 = g1 st in
      let v0 = g0 st in
      [ v0; v1 ]
  | [| g0; g1; g2 |] ->
    fun st ->
      let v2 = g2 st in
      let v1 = g1 st in
      let v0 = g0 st in
      [ v0; v1; v2 ]
  | gs ->
    fun st ->
      let rec go i acc =
        if i < 0 then acc
        else go (i - 1) (Array.unsafe_get gs i st :: acc)
      in
      go (Array.length gs - 1) []

(* ------------------------------------------------------------------ *)
(* Operator specialization                                             *)
(* ------------------------------------------------------------------ *)

(* A producer's compiled body, in the result's natural representation,
   paired with trap-freedom.  Unsafe bodies still forward their raw
   result (Div with a dynamic divisor is a checkpointed [Rint]); only
   the representation decides the scratch array. *)
type rbody =
  | Rint of (state -> int)
  | Rfloat of (state -> float)
  | Rbool of (state -> bool)
  | Rboxed of (state -> Value.t)

(* Evaluation order mirrors [Interp.eval_binop]: the coercions of a
   two-argument primitive run right to left; [&&]/[||] short-circuit
   left to right; [Padd]/[Peq] coerce left first. *)
let binop_rbody linked nregs av (o : Fir.Ast.binop) a b : rbody * bool =
  let ii mk =
    let ia, sa = iget linked nregs av a and ib, sb = iget linked nregs av b in
    mk ia ib, sa && sb
  in
  let ff mk =
    let fa, sa = fget linked nregs av a and fb, sb = fget linked nregs av b in
    mk fa fb, sa && sb
  in
  match o with
  | Fir.Ast.Add ->
    ii (fun ia ib ->
        Rint
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va + vb))
  | Fir.Ast.Sub ->
    ii (fun ia ib ->
        Rint
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va - vb))
  | Fir.Ast.Mul ->
    ii (fun ia ib ->
        Rint
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va * vb))
  | Fir.Ast.Div -> (
    let ia, sa = iget linked nregs av a in
    match iconst nregs av b with
    | Some d when d <> 0 -> Rint (fun st -> ia st / d), sa
    | _ ->
      let ib, _ = iget linked nregs av b in
      ( Rint
          (fun st ->
            let d = ib st in
            if d = 0 then raise (Interp.Trap "division by zero")
            else ia st / d),
        false ))
  | Fir.Ast.Rem -> (
    let ia, sa = iget linked nregs av a in
    match iconst nregs av b with
    | Some d when d <> 0 -> Rint (fun st -> ia st mod d), sa
    | _ ->
      let ib, _ = iget linked nregs av b in
      ( Rint
          (fun st ->
            let d = ib st in
            if d = 0 then raise (Interp.Trap "remainder by zero")
            else ia st mod d),
        false ))
  | Fir.Ast.Band ->
    ii (fun ia ib ->
        Rint
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va land vb))
  | Fir.Ast.Bor ->
    ii (fun ia ib ->
        Rint
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va lor vb))
  | Fir.Ast.Bxor ->
    ii (fun ia ib ->
        Rint
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va lxor vb))
  | Fir.Ast.Shl ->
    ii (fun ia ib ->
        Rint
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va lsl (vb land 62)))
  | Fir.Ast.Shr ->
    ii (fun ia ib ->
        Rint
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va asr (vb land 62)))
  | Fir.Ast.Eq ->
    ii (fun ia ib ->
        Rbool
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va = vb))
  | Fir.Ast.Ne ->
    ii (fun ia ib ->
        Rbool
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va <> vb))
  | Fir.Ast.Lt ->
    ii (fun ia ib ->
        Rbool
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va < vb))
  | Fir.Ast.Le ->
    ii (fun ia ib ->
        Rbool
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va <= vb))
  | Fir.Ast.Gt ->
    ii (fun ia ib ->
        Rbool
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va > vb))
  | Fir.Ast.Ge ->
    ii (fun ia ib ->
        Rbool
          (fun st ->
            let vb = ib st in
            let va = ia st in
            va >= vb))
  | Fir.Ast.Fadd ->
    ff (fun fa fb ->
        Rfloat
          (fun st ->
            let vb = fb st in
            let va = fa st in
            va +. vb))
  | Fir.Ast.Fsub ->
    ff (fun fa fb ->
        Rfloat
          (fun st ->
            let vb = fb st in
            let va = fa st in
            va -. vb))
  | Fir.Ast.Fmul ->
    ff (fun fa fb ->
        Rfloat
          (fun st ->
            let vb = fb st in
            let va = fa st in
            va *. vb))
  | Fir.Ast.Fdiv ->
    ff (fun fa fb ->
        Rfloat
          (fun st ->
            let vb = fb st in
            let va = fa st in
            va /. vb))
  | Fir.Ast.Feq ->
    ff (fun fa fb ->
        Rbool
          (fun st ->
            let vb = fb st in
            let va = fa st in
            va = vb))
  | Fir.Ast.Fne ->
    ff (fun fa fb ->
        Rbool
          (fun st ->
            let vb = fb st in
            let va = fa st in
            va <> vb))
  | Fir.Ast.Flt ->
    ff (fun fa fb ->
        Rbool
          (fun st ->
            let vb = fb st in
            let va = fa st in
            va < vb))
  | Fir.Ast.Fle ->
    ff (fun fa fb ->
        Rbool
          (fun st ->
            let vb = fb st in
            let va = fa st in
            va <= vb))
  | Fir.Ast.Fgt ->
    ff (fun fa fb ->
        Rbool
          (fun st ->
            let vb = fb st in
            let va = fa st in
            va > vb))
  | Fir.Ast.Fge ->
    ff (fun fa fb ->
        Rbool
          (fun st ->
            let vb = fb st in
            let va = fa st in
            va >= vb))
  | Fir.Ast.And ->
    let ba, sa = bget linked nregs av a and bb, sb = bget linked nregs av b in
    Rbool (fun st -> if ba st then bb st else false), sa && sb
  | Fir.Ast.Or ->
    let ba, sa = bget linked nregs av a and bb, sb = bget linked nregs av b in
    Rbool (fun st -> if ba st then true else bb st), sa && sb
  | Fir.Ast.Peq ->
    let ga = gget linked nregs av a and gb = gget linked nregs av b in
    ( Rbool
        (fun st ->
          match ga st with
          | Value.Vptr (i1, o1) -> (
            match gb st with
            | Value.Vptr (i2, o2) -> i1 = i2 && o1 = o2
            | v -> trap_not "pointer" v)
          | v -> trap_not "pointer" v),
      false )
  | Fir.Ast.Padd ->
    let ga = gget linked nregs av a in
    let ib, _ = iget linked nregs av b in
    ( Rboxed
        (fun st ->
          match ga st with
          | Value.Vptr (idx, off) -> Value.Vptr (idx, off + ib st)
          | v -> trap_not "pointer" v),
      false )

let unop_rbody linked nregs av (o : Fir.Ast.unop) a : rbody * bool =
  match o with
  | Fir.Ast.Neg ->
    let ia, sa = iget linked nregs av a in
    Rint (fun st -> -ia st), sa
  | Fir.Ast.Not ->
    let ba, sa = bget linked nregs av a in
    Rbool (fun st -> not (ba st)), sa
  | Fir.Ast.Fneg ->
    let fa, sa = fget linked nregs av a in
    Rfloat (fun st -> -.fa st), sa
  | Fir.Ast.Int_of_float ->
    let fa, sa = fget linked nregs av a in
    Rint (fun st -> int_of_float (fa st)), sa
  | Fir.Ast.Float_of_int ->
    let ia, sa = iget linked nregs av a in
    Rfloat (fun st -> float_of_int (ia st)), sa
  | Fir.Ast.Int_of_bool ->
    let ba, sa = bget linked nregs av a in
    Rint (fun st -> if ba st then 1 else 0), sa
  | Fir.Ast.Int_of_enum ->
    let ga = gget linked nregs av a in
    ( Rint
        (fun st ->
          match ga st with
          | Value.Venum (_, v) -> v
          | v -> trap_not "enum" v),
      false )

(* ------------------------------------------------------------------ *)
(* Instruction compilation                                             *)
(* ------------------------------------------------------------------ *)

let flush st =
  if st.acc <> 0 then begin
    Process.charge_cycles st.proc st.acc;
    st.acc <- 0
  end

(* The empty extern slot; compared physically, never called. *)
let unbound : Process.t -> Value.t list -> Value.t =
 fun _ _ -> raise (Emulator_error "extern site called unbound")

let ext_slots image = Array.make image.c_ext_sites unbound

let set_extern st extern =
  st.extern <- extern;
  Array.fill st.ext_fns 0 (Array.length st.ext_fns) unbound

(* A site's first call under the current handler resolves its name. *)
let bind_site st site name =
  let f = st.extern.Process.bind name in
  st.ext_fns.(site) <- f;
  f

let set_slot (d : Masm.slot) : state -> Value.t -> unit =
  match d with
  | Masm.Reg r -> fun st v -> st.regs.(r) <- v
  | Masm.Spill s -> fun st v -> st.spills.(s) <- v

(* ------------------------------------------------------------------ *)
(* Static shape of the linked instruction set                          *)
(* ------------------------------------------------------------------ *)

let iter_rops (i : Link.rinstr) f =
  match i with
  | Link.Lmov (_, a) | Link.Lcast (_, _, a) | Link.Lunop (_, _, a) -> f a
  | Link.Lbinop (_, _, a, b) ->
    f a;
    f b
  | Link.Lalloc_tuple (_, fields) -> Array.iter f fields
  | Link.Lalloc_array (_, n, init) ->
    f n;
    f init
  | Link.Lalloc_string _ | Link.Ljmp _ -> ()
  | Link.Lload (_, p, dyn, _) ->
    f p;
    f dyn
  | Link.Lstore (p, dyn, _, v) ->
    f p;
    f dyn;
    f v
  | Link.Lext (_, _, args, _) -> Array.iter f args
  | Link.Ljz (c, _) -> f c
  | Link.Lswitch (v, _, _, _) -> f v
  | Link.Ltail (g, args) | Link.Lspeculate (g, args) ->
    f g;
    Array.iter f args
  | Link.Lexit v -> f v
  | Link.Lmigrate (_, dst, g, args) ->
    f dst;
    f g;
    Array.iter f args
  | Link.Lcommit (l, g, args) ->
    f l;
    f g;
    Array.iter f args
  | Link.Lrollback (l, c) ->
    f l;
    f c

let dest_of (i : Link.rinstr) : Masm.slot option =
  match i with
  | Link.Lmov (d, _)
  | Link.Lcast (d, _, _)
  | Link.Lunop (_, d, _)
  | Link.Lbinop (_, d, _, _)
  | Link.Lalloc_tuple (d, _)
  | Link.Lalloc_array (d, _, _)
  | Link.Lalloc_string (d, _)
  | Link.Lload (d, _, _, _)
  | Link.Lext (d, _, _, _) -> Some d
  | Link.Lstore _ | Link.Ljmp _ | Link.Ljz _ | Link.Lswitch _ | Link.Ltail _
  | Link.Lexit _ | Link.Lmigrate _ | Link.Lspeculate _ | Link.Lcommit _
  | Link.Lrollback _ -> None

(* Control-flow successors within the function (out-of-range targets
   trap on the sentinel, so they contribute no dataflow edge). *)
let succs_of len p (i : Link.rinstr) : int list =
  let next = if p + 1 < len then [ p + 1 ] else [] in
  let jump t rest = if t >= 0 && t < len then t :: rest else rest in
  match i with
  | Link.Ljmp t -> jump t []
  | Link.Ljz (_, t) -> jump t next
  | Link.Lswitch (_, _, targets, default) ->
    Array.fold_left (fun acc t -> jump t acc) (jump default []) targets
  | Link.Ltail _ | Link.Lexit _ | Link.Lmigrate _ | Link.Lspeculate _
  | Link.Lcommit _ | Link.Lrollback _ -> []
  | _ -> next

(* Segment terminators: control transfers and observation points. *)
let is_term (i : Link.rinstr) =
  match i with
  | Link.Ljmp _ | Link.Lswitch _ | Link.Ltail _ | Link.Lexit _
  | Link.Lmigrate _ | Link.Lspeculate _ | Link.Lcommit _ | Link.Lrollback _
  | Link.Lext _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Segment parts and glue                                              *)
(* ------------------------------------------------------------------ *)

(* One compiled instruction within a run, before glueing:
   - [Pnone]: folded away entirely (a forwarded mov / dead safe mov) —
     only its deferred accounting remains;
   - [Peff]: a straight-line effect (accounting checkpoint inside when
     the body can trap);
   - [Pcond]: a conditional branch — checkpoint, then either continue
     the run or leave for the target;
   - [Pterm]: a terminator owning its accounting and next pc. *)
type part =
  | Pnone
  | Peff of (state -> unit)
  | Pcond of int * int * (state -> bool) * int
  | Pterm of op

(* ------------------------------------------------------------------ *)
(* Function compilation                                                *)
(* ------------------------------------------------------------------ *)

let compile_fn (linked : Link.image) ~sites (fn : Link.lfn) :
    cfn * int * int =
  let code = fn.Link.l_code and cost = fn.Link.l_cost in
  let len = Array.length code in
  (* slot-space sizing, defensive against indices beyond the declared
     windows (such slots are stale in every mode; they still need ids) *)
  let nr = ref fn.Link.l_regs_used and ns = ref fn.Link.l_spills in
  let bump_slot = function
    | Masm.Reg r -> nr := max !nr (r + 1)
    | Masm.Spill s -> ns := max !ns (s + 1)
  in
  let bump_rop = function
    | Link.Rreg r -> nr := max !nr (r + 1)
    | Link.Rspill s -> ns := max !ns (s + 1)
    | Link.Rval _ | Link.Rfun _ | Link.Rfunname _ -> ()
  in
  Array.iter bump_slot fn.Link.l_params;
  Array.iter
    (fun i ->
      iter_rops i bump_rop;
      match dest_of i with Some d -> bump_slot d | None -> ())
    code;
  let nregs = !nr in
  let nslots = max (nregs + !ns) 1 in
  (* a pass-through tail call hands the callee the block's incoming
     argument list as is: the callee takes the same parameter slots, the
     operands are those slots in order, and nothing in this function
     writes one of them *)
  let params = fn.Link.l_params in
  let is_param = Array.make nslots false in
  Array.iter (fun sl -> is_param.(sid nregs sl) <- true) params;
  let params_written =
    Array.exists
      (fun i ->
        match dest_of i with
        | Some d -> is_param.(sid nregs d)
        | None -> false)
      code
  in
  let passes_through j argops =
    (not params_written)
    && linked.Link.l_fns.(j).Link.l_params = params
    && Array.length argops = Array.length params
    && Array.for_all2 (fun a p -> rop_sid nregs a = sid nregs p) argops params
  in
  let succs = Array.init len (fun p -> succs_of len p code.(p)) in
  let def_at p =
    match dest_of code.(p) with Some d -> sid nregs d | None -> -1
  in
  (* --- backward liveness: may slot [s] be read at-or-after pc [p]
     before being redefined?  [live_in.(len)] stays all-false (falling
     off the end traps; the frame is dead). *)
  let live_in = Array.init (len + 1) (fun _ -> Array.make nslots false) in
  for p = 0 to len - 1 do
    iter_rops code.(p) (fun r ->
        let s = rop_sid nregs r in
        if s >= 0 then live_in.(p).(s) <- true)
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for p = len - 1 downto 0 do
      let li = live_in.(p) in
      let d = def_at p in
      List.iter
        (fun sq ->
          let ls = live_in.(sq) in
          for k = 0 to nslots - 1 do
            if ls.(k) && k <> d && not li.(k) then begin
              li.(k) <- true;
              changed := true
            end
          done)
        succs.(p)
    done
  done;
  (* --- forward definite assignment: is slot [s] written on EVERY path
     before pc [p]?  Entry facts: parameters, plus every slot outside
     the windows [l_regs_used]/[l_spills] (the function never reads
     them, so "assigned" here just means "no clear needed").  Greatest
     fixpoint from all-true. *)
  let a_in = Array.init (max len 1) (fun _ -> Array.make nslots true) in
  if len > 0 then begin
    let e = a_in.(0) in
    Array.fill e 0 nslots false;
    for r = fn.Link.l_regs_used to nregs - 1 do
      e.(r) <- true
    done;
    for s = fn.Link.l_spills to !ns - 1 do
      e.(nregs + s) <- true
    done;
    Array.iter (fun sl -> e.(sid nregs sl) <- true) fn.Link.l_params
  end;
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to len - 1 do
      let inp = a_in.(p) in
      let d = def_at p in
      List.iter
        (fun sq ->
          let a = a_in.(sq) in
          for k = 0 to nslots - 1 do
            if a.(k) && k <> d && not inp.(k) then begin
              a.(k) <- false;
              changed := true
            end
          done)
        succs.(p)
    done
  done;
  let need = Array.make nslots false in
  for p = 0 to len - 1 do
    let inp = a_in.(p) in
    iter_rops code.(p) (fun r ->
        let s = rop_sid nregs r in
        if s >= 0 && not inp.(s) then need.(s) <- true)
  done;
  let collect hi off =
    let l = ref [] in
    for i = hi - 1 downto 0 do
      if need.(off + i) then l := i :: !l
    done;
    Array.of_list !l
  in
  let cf_clear_regs = collect (min fn.Link.l_regs_used nregs) 0 in
  let cf_clear_spills = collect fn.Link.l_spills nregs in
  (* --- run segmentation: control enters only at pc 0, jump targets
     and the pc after an extern; everything between is straight-line *)
  let starts = Array.make (max len 1) false in
  if len > 0 then starts.(0) <- true;
  let mark t = if t >= 0 && t < len then starts.(t) <- true in
  Array.iteri
    (fun p i ->
      match i with
      | Link.Ljmp t | Link.Ljz (_, t) -> mark t
      | Link.Lswitch (_, _, targets, default) ->
        Array.iter mark targets;
        mark default
      | Link.Lext _ -> mark (p + 1)
      | _ -> ())
    code;
  let sentinel : op =
    fun _ -> raise (Emulator_error "program counter out of range")
  in
  let interior : op =
    fun _ -> raise (Emulator_error "program counter inside a fused segment")
  in
  let out = Array.make (len + 1) interior in
  out.(len) <- sentinel;
  let tgt t = if t >= 0 && t < len then t else len in
  let live_at q s = live_in.(q).(s) in
  (* --- per-run compilation *)
  let av : avail option array = Array.make nslots None in
  let super = ref 0 and passthrough = ref 0 in
  let pend_c = ref 0 and pend_n = ref 0 in
  let defer c =
    pend_c := !pend_c + c;
    pend_n := !pend_n + 1
  in
  let checkpoint c =
    let cc = !pend_c + c and cn = !pend_n + 1 in
    pend_c := 0;
    pend_n := 0;
    cc, cn
  in
  let mk_eff safe c (e : state -> unit) =
    if safe then begin
      defer c;
      Peff e
    end
    else begin
      let cc, cn = checkpoint c in
      Peff
        (fun st ->
          st.acc <- st.acc + cc;
          st.nins <- st.nins + cn;
          e st)
    end
  in
  (* can the value defined into slot [s] at pc [p] be read by another
     segment?  Scan the rest of the run: a redefinition kills it; every
     exit (branch target, post-extern fall-through, run-end
     fall-through) consults liveness at the landing pc; block exits drop
     the whole frame. *)
  let escapes p s re =
    let rec scan q =
      if q > re then live_at (re + 1) s
      else if def_at q = s then false
      else
        match code.(q) with
        | Link.Ljz (_, t) -> live_at (tgt t) s || scan (q + 1)
        | Link.Ljmp t -> live_at (tgt t) s
        | Link.Lswitch (_, _, targets, default) ->
          live_at (tgt default) s
          || Array.exists (fun t -> live_at (tgt t) s) targets
        | Link.Ltail _ | Link.Lexit _ | Link.Lmigrate _ | Link.Lspeculate _
        | Link.Lcommit _ | Link.Lrollback _ -> false
        | Link.Lext _ -> live_at (q + 1) s
        | _ -> scan (q + 1)
    in
    scan (p + 1)
  in
  (* a producer with a statically-known result representation: write the
     raw result into the scratch slot for in-run consumers, box into the
     destination only when it escapes *)
  let compile_def q c d (body, safe) re =
    let ds = sid nregs d in
    match body with
    | Rboxed f ->
      av.(ds) <- None;
      let e =
        if live_at (q + 1) ds then
          let set = set_slot d in
          fun st -> set st (f st)
        else fun st -> ignore (f st)
      in
      mk_eff safe c e
    | Rint f ->
      let stored = escapes q ds re in
      av.(ds) <- Some { fw = Fint q; stored };
      let e =
        if stored then
          let set = set_slot d in
          fun st ->
            let v = f st in
            Array.unsafe_set st.itmps q v;
            set st (Value.Vint v)
        else fun st -> Array.unsafe_set st.itmps q (f st)
      in
      mk_eff safe c e
    | Rfloat f ->
      let stored = escapes q ds re in
      av.(ds) <- Some { fw = Ffloat q; stored };
      let e =
        if stored then
          let set = set_slot d in
          fun st ->
            let v = f st in
            Array.unsafe_set st.ftmps q v;
            set st (Value.Vfloat v)
        else fun st -> Array.unsafe_set st.ftmps q (f st)
      in
      mk_eff safe c e
    | Rbool f ->
      let stored = escapes q ds re in
      av.(ds) <- Some { fw = Fbool q; stored };
      let e =
        if stored then
          let set = set_slot d in
          fun st ->
            let v = f st in
            Array.unsafe_set st.itmps q (if v then 1 else 0);
            set st (vbool v)
        else
          fun st ->
            Array.unsafe_set st.itmps q (if f st then 1 else 0)
      in
      mk_eff safe c e
  in
  let compile_part q re : part =
    let c = cost.(q) in
    match code.(q) with
    | Link.Lmov (d, a) -> (
      let ds = sid nregs d in
      let asid = rop_sid nregs a in
      let src = if asid >= 0 then av.(asid) else None in
      match a, src with
      | Link.Rval v, _ ->
        (* constant propagation: the mov costs at most one pre-built
           store, often nothing *)
        let stored = escapes q ds re in
        let part =
          if stored then
            let set = set_slot d in
            mk_eff true c (fun st -> set st v)
          else begin
            defer c;
            Pnone
          end
        in
        av.(ds) <- Some { fw = Fval v; stored };
        part
      | _, Some { fw; _ } ->
        (* forwarded source: alias the scratch slot (value semantics —
           the producer's scratch is written once per run execution) *)
        let stored = escapes q ds re in
        let part =
          if stored then
            let g = gget linked nregs av a in
            let set = set_slot d in
            mk_eff true c (fun st -> set st (g st))
          else begin
            defer c;
            Pnone
          end
        in
        av.(ds) <- Some { fw; stored };
        part
      | _, None ->
        let g = gget linked nregs av a in
        let safe =
          match a with Link.Rfun _ | Link.Rfunname _ -> false | _ -> true
        in
        av.(ds) <- None;
        if live_at (q + 1) ds then
          let set = set_slot d in
          mk_eff safe c (fun st -> set st (g st))
        else if safe then begin
          defer c;
          Pnone
        end
        else mk_eff false c (fun st -> ignore (g st)))
    | Link.Lcast (d, ty, a) ->
      let g = gget linked nregs av a in
      compile_def q c d
        (Rboxed (fun st -> Interp.cast_check ty (g st)), false)
        re
    | Link.Lunop (o, d, a) ->
      compile_def q c d (unop_rbody linked nregs av o a) re
    | Link.Lbinop (o, d, a, b) ->
      compile_def q c d (binop_rbody linked nregs av o a b) re
    | Link.Lalloc_tuple (d, fields) ->
      let ga = args_fn linked nregs av fields in
      compile_def q c d
        ( Rboxed (fun st -> Value.Vptr (Heap.alloc_tuple st.heap (ga st), 0)),
          false )
        re
    | Link.Lalloc_array (d, n, init) ->
      let gi, _ = iget linked nregs av n in
      let ginit = gget linked nregs av init in
      compile_def q c d
        ( Rboxed
            (fun st ->
              let size = gi st in
              if size < 0 then raise (Interp.Trap "negative array size");
              Value.Vptr
                ( Heap.alloc st.heap ~tag:Heap.Array ~size ~init:(ginit st),
                  0 )),
          false )
        re
    | Link.Lalloc_string (d, s) ->
      compile_def q c d
        (Rboxed (fun st -> Value.Vptr (Heap.alloc_raw st.heap s, 0)), false)
        re
    | Link.Lload (d, p, dyn, k) ->
      let gp = gget linked nregs av p in
      let body =
        match iconst nregs av dyn with
        | Some n ->
          let k = k + n in
          Rboxed
            (fun st ->
              match gp st with
              | Value.Vptr (idx, off) -> Heap.read st.heap idx (off + k)
              | v -> trap_not "pointer" v)
        | None ->
          let gd, _ = iget linked nregs av dyn in
          Rboxed
            (fun st ->
              match gp st with
              | Value.Vptr (idx, off) ->
                let dn = gd st in
                Heap.read st.heap idx (off + dn + k)
              | v -> trap_not "pointer" v)
      in
      compile_def q c d (body, false) re
    | Link.Lstore (p, dyn, k, v) ->
      let gp = gget linked nregs av p in
      let gv = gget linked nregs av v in
      let e =
        match iconst nregs av dyn with
        | Some n ->
          let k = k + n in
          fun st ->
            (match gp st with
            | Value.Vptr (idx, off) -> Heap.write st.heap idx (off + k) (gv st)
            | v -> trap_not "pointer" v)
        | None ->
          let gd, _ = iget linked nregs av dyn in
          fun st ->
            match gp st with
            | Value.Vptr (idx, off) ->
              let dn = gd st in
              Heap.write st.heap idx (off + dn + k) (gv st)
            | v -> trap_not "pointer" v
      in
      mk_eff false c e
    | Link.Ljz (cond, t) ->
      let bc, _ = bget linked nregs av cond in
      let cc, cn = checkpoint c in
      Pcond (cc, cn, bc, tgt t)
    | Link.Ljmp t ->
      let cc, cn = checkpoint c in
      let t' = tgt t in
      Pterm
        (fun st ->
          st.acc <- st.acc + cc;
          st.nins <- st.nins + cn;
          t')
    | Link.Lswitch (v, keys, targets, default) -> (
      let cc, cn = checkpoint c in
      let tgts = Array.map tgt targets and dflt = tgt default in
      let search n =
        let lo = ref 0 and hi = ref (Array.length keys - 1) in
        let target = ref dflt in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          let k = Array.unsafe_get keys mid in
          if k = n then begin
            target := Array.unsafe_get tgts mid;
            lo := !hi + 1
          end
          else if k < n then lo := mid + 1
          else hi := mid - 1
        done;
        !target
      in
      match iconst nregs av v with
      | Some n ->
        (* static scrutinee: the whole switch is a jump *)
        let t' = search n in
        Pterm
          (fun st ->
            st.acc <- st.acc + cc;
            st.nins <- st.nins + cn;
            t')
      | None ->
        let gi, safe = iget linked nregs av v in
        let get_n =
          if safe then gi
          else
            let g = gget linked nregs av v in
            fun st -> (
              match g st with
              | Value.Vint n | Value.Venum (_, n) -> n
              | v ->
                raise
                  (Interp.Trap
                     ("switch on non-integer " ^ Value.to_string v)))
        in
        Pterm
          (fun st ->
            st.acc <- st.acc + cc;
            st.nins <- st.nins + cn;
            search (get_n st)))
    | Link.Lext (d, name, argops, post) ->
      let ga = args_fn linked nregs av argops in
      let set = set_slot d in
      let next = q + 1 in
      let cc, cn = checkpoint c in
      let site = !sites in
      incr sites;
      Pterm
        (fun st ->
          st.acc <- st.acc + cc;
          st.nins <- st.nins + cn;
          let args = ga st in
          (* the extern observes proc.cycles: flush before the call,
             charge the destination spill after it *)
          flush st;
          let f = st.ext_fns.(site) in
          let f = if f == unbound then bind_site st site name else f in
          let v = f st.proc args in
          st.acc <- st.acc + post;
          set st v;
          next)
    | Link.Ltail (f, argops) -> (
      let gf = gget linked nregs av f in
      let ga = args_fn linked nregs av argops in
      let cc, cn = checkpoint c in
      let call st =
        let callee = gf st in
        let args = ga st in
        let name = Process.fun_name st.proc callee in
        st.proc.Process.cont <- name, args;
        -1
      in
      match f with
      | Link.Rfun j when passes_through j argops ->
        (* the arguments are the incoming list, value for value, and
           already sit in the callee's parameter slots *)
        incr passthrough;
        let name = linked.Link.l_fns.(j).Link.l_name in
        Pterm
          (fun st ->
            st.acc <- st.acc + cc;
            st.nins <- st.nins + cn;
            match st.fun_values.(j) with
            | None -> call st
            | Some _ ->
              st.proc.Process.cont <- name, st.args_in;
              st.pass_name <- name;
              st.pass_idx <- j;
              -1)
      | _ ->
        Pterm
          (fun st ->
            st.acc <- st.acc + cc;
            st.nins <- st.nins + cn;
            call st))
    | Link.Lexit v ->
      let gi, _ = iget linked nregs av v in
      let cc, cn = checkpoint c in
      Pterm
        (fun st ->
          st.acc <- st.acc + cc;
          st.nins <- st.nins + cn;
          st.proc.Process.status <- Process.Exited (gi st);
          -1)
    | Link.Lmigrate (label, dst, f, argops) ->
      let gd = gget linked nregs av dst in
      let gf = gget linked nregs av f in
      let ga = args_fn linked nregs av argops in
      let cc, cn = checkpoint c in
      Pterm
        (fun st ->
          st.acc <- st.acc + cc;
          st.nins <- st.nins + cn;
          let target = Interp.target_string st.proc (gd st) in
          let entry = Process.fun_name st.proc (gf st) in
          let args = ga st in
          flush st;
          Process.do_migrate st.proc ~label ~target ~entry ~args;
          -1)
    | Link.Lspeculate (f, argops) ->
      let gf = gget linked nregs av f in
      let ga = args_fn linked nregs av argops in
      let cc, cn = checkpoint c in
      Pterm
        (fun st ->
          st.acc <- st.acc + cc;
          st.nins <- st.nins + cn;
          let entry = Process.fun_name st.proc (gf st) in
          let args = ga st in
          flush st;
          Process.do_speculate st.proc ~entry ~args;
          -1)
    | Link.Lcommit (l, f, argops) ->
      let gl, _ = iget linked nregs av l in
      let gf = gget linked nregs av f in
      let ga = args_fn linked nregs av argops in
      let cc, cn = checkpoint c in
      Pterm
        (fun st ->
          st.acc <- st.acc + cc;
          st.nins <- st.nins + cn;
          let level = gl st in
          let entry = Process.fun_name st.proc (gf st) in
          let args = ga st in
          flush st;
          Process.do_commit st.proc ~level ~entry ~args;
          -1)
    | Link.Lrollback (l, cop) ->
      let gl, _ = iget linked nregs av l in
      let gc, _ = iget linked nregs av cop in
      let cc, cn = checkpoint c in
      Pterm
        (fun st ->
          st.acc <- st.acc + cc;
          st.nins <- st.nins + cn;
          let level = gl st in
          let code = gc st in
          flush st;
          Process.do_rollback st.proc ~level ~code;
          -1)
  in
  let compile_run rs re =
    Array.fill av 0 nslots None;
    pend_c := 0;
    pend_n := 0;
    let parts = Array.make (re - rs + 1) Pnone in
    for q = rs to re do
      parts.(q - rs) <- compile_part q re
    done;
    (* fall-through exit: materialize whatever accounting is pending
       (unreachable when the run ends in a terminator) *)
    let base : op =
      let c = !pend_c and n = !pend_n and nxt = re + 1 in
      if c = 0 && n = 0 then fun _ -> nxt
      else
        fun st ->
          st.acc <- st.acc + c;
          st.nins <- st.nins + n;
          nxt
    in
    let rest = ref base in
    for q = re downto rs do
      match parts.(q - rs) with
      | Pnone -> ()
      | Peff e ->
        let k = !rest in
        rest :=
          fun st ->
            e st;
            k st
      | Pcond (cc, cn, cond, t') ->
        let k = !rest in
        rest :=
          fun st ->
            st.acc <- st.acc + cc;
            st.nins <- st.nins + cn;
            if cond st then k st else t'
      | Pterm f -> rest := f
    done;
    if re > rs then incr super;
    out.(rs) <- !rest
  in
  let rs = ref 0 in
  while !rs < len do
    if not starts.(!rs) then incr rs (* unreachable interior/dead code *)
    else begin
      let re = ref !rs in
      while
        (not (is_term code.(!re)))
        && !re + 1 < len
        && not starts.(!re + 1)
      do
        incr re
      done;
      compile_run !rs !re;
      rs := !re + 1
    end
  done;
  { cf_ops = out; cf_clear_regs; cf_clear_spills }, !super, !passthrough

let compile (linked : Link.image) : image =
  let super = ref 0 and passthrough = ref 0 and tmps = ref 1 in
  let sites = ref 0 in
  let c_fns =
    Array.map
      (fun fn ->
        let cfn, s, pt = compile_fn linked ~sites fn in
        super := !super + s;
        passthrough := !passthrough + pt;
        tmps := max !tmps (Array.length fn.Link.l_code);
        cfn)
      linked.Link.l_fns
  in
  {
    c_linked = linked;
    c_fns;
    c_instrs = Link.instr_count linked;
    c_super = !super;
    c_passthrough = !passthrough;
    c_ext_sites = !sites;
    c_tmps = !tmps;
  }

let compile_masm (image : Masm.image) : image = compile (Link.link image)
