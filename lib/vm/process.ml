(* Whole-process state (paper, Section 4.1).

   A process bundles everything the runtime standardizes for migration:
   the FIR code (immutable), the heap and its pointer table, the function
   table, the speculation engine, and the current continuation.  Because
   the FIR is in continuation-passing style, between any two basic blocks
   the complete live register state is exactly the argument list of the
   next call — this is the property that makes the paper's [migrate_env]
   construction trivial: the set of live variables across a migration
   point corresponds exactly to the arguments passed to the continuation.

   The process does not run itself; an engine (Interp or Emulator) advances
   it one basic block per [step], and a host environment (CLI, migration
   daemon, simulated cluster node) handles [Migrating] statuses and
   provides external functions. *)

open Runtime

type migration_request = {
  m_label : int; (* the unique migration label i *)
  m_target : string; (* the decoded target string, e.g. "mcc://node1" *)
  m_entry : string; (* continuation function *)
  m_args : Value.t list; (* continuation arguments = live variables *)
}

type status =
  | Running
  | Exited of int
  | Trapped of string
  | Migrating of migration_request

(* The program as it travels: its Fir.Serial encoding and that
   encoding's Fir.Digest. *)
type fir_payload = { fir_bytes : string; fir_digest : string }

type t = {
  pid : int;
  program : Fir.Ast.program;
  heap : Heap.t;
  ftable : Function_table.t;
  spec : Spec.Engine.t;
  arch : Arch.t;
  mutable cont : string * Value.t list;
  mutable status : status;
  mutable steps : int; (* basic blocks executed *)
  mutable cycles : int; (* simulated cycles consumed *)
  mutable on_gc : (Gc.result -> unit) option;
      (* host observer, fired after every collection (tracing) *)
  output : Buffer.t;
  rng : Random.State.t;
  mutable fir_payload : fir_payload option;
      (* the program never changes, so neither do its encodings: each is
         computed at most once per process (or seeded from the image the
         process was restored from) *)
  mutable masm_payload : string option;
}

exception Process_error of string

(* Build a process from its parts (migration, checkpoint resume).  The
   speculation engine is re-created over the heap and its levels
   re-installed from the snapshot. *)
let restore ?(pid = 0) ?(arch = Arch.cisc32) ?(seed = 42) ~program ~heap
    ~spec_snapshot ~cont () =
  let spec = Spec.Engine.create heap in
  Spec.Engine.restore spec spec_snapshot;
  let ftable =
    Function_table.of_program_names (Fir.Ast.fun_names program)
  in
  {
    pid;
    program;
    heap;
    ftable;
    spec;
    arch;
    cont;
    status = Running;
    steps = 0;
    cycles = 0;
    on_gc = None;
    output = Buffer.create 128;
    rng = Random.State.make [| seed; pid |];
    fir_payload = None;
    masm_payload = None;
  }

(* A fresh process: an empty heap, no speculation, about to call main. *)
let create ?pid ?arch ?seed program =
  restore ?pid ?arch ?seed ~program ~heap:(Heap.create ())
    ~spec_snapshot:[] ~cont:(program.Fir.Ast.p_main, []) ()

let fir_payload t =
  match t.fir_payload with
  | Some p -> p
  | None ->
    let fir_bytes = Fir.Serial.encode t.program in
    let p = { fir_bytes; fir_digest = Fir.Digest.of_encoded fir_bytes } in
    t.fir_payload <- Some p;
    p

let seed_fir_payload t ~fir_bytes ~fir_digest =
  t.fir_payload <- Some { fir_bytes; fir_digest }

let masm_payload t =
  match t.masm_payload with
  | Some m -> m
  | None ->
    let m = Masm.encode (Codegen.compile ~arch:t.arch t.program) in
    t.masm_payload <- Some m;
    m

let output t = Buffer.contents t.output
let is_terminated t =
  match t.status with
  | Exited _ | Trapped _ -> true
  | Running | Migrating _ -> false

let charge t cls = t.cycles <- t.cycles + t.arch.Arch.cycles cls

(* Bulk variant for engines that fold static per-instruction costs into
   a block-local accumulator (see Link): one addition replaces a charge
   per instruction, with identical totals at every observation point. *)
let charge_cycles t n = t.cycles <- t.cycles + n

(* Resolve a function value to its name through the function table. *)
let fun_name t = function
  | Value.Vfun idx -> Function_table.name t.ftable idx
  | v -> raise (Process_error ("call of non-function value " ^ Value.to_string v))

let fun_value t name = Value.Vfun (Function_table.index t.ftable name)

let fundef t name =
  match Fir.Ast.find_fun t.program name with
  | Some fd -> fd
  | None -> raise (Process_error ("unknown function " ^ name))

(* ------------------------------------------------------------------ *)
(* Garbage collection driver                                           *)
(* ------------------------------------------------------------------ *)

(* Between basic blocks, the only mutator roots are the continuation
   arguments and the speculation continuations; checkpoint records are
   pinned.  This is the CPS property the whole design leans on. *)
let roots t =
  let _, args = t.cont in
  List.fold_left
    (fun acc s -> List.rev_append s.Spec.Engine.s_args acc)
    args (Spec.Engine.snapshot t.spec)

let collect t kind =
  let res =
    Gc.collect t.heap ~kind ~roots:(roots t) ~pinned:(Spec.Engine.records t.spec)
  in
  Spec.Engine.rewrite_after_gc t.spec res;
  charge t Arch.Trap;
  (match t.on_gc with Some hook -> hook res | None -> ());
  res

let maybe_collect t =
  if Heap.needs_major t.heap then begin
    ignore (collect t Gc.Major);
    (* if most of the heap survived, the next trigger would come almost
       immediately: give the mutator headroom instead of thrashing *)
    if Heap.used_cells t.heap > Heap.capacity t.heap / 2 then
      Heap.reserve t.heap (4 * Heap.used_cells t.heap)
  end
  else if Heap.needs_minor t.heap then ignore (collect t Gc.Minor)

(* ------------------------------------------------------------------ *)
(* Pseudo-instruction plumbing shared by both engines                  *)
(* ------------------------------------------------------------------ *)

(* speculate f(args): snapshot (f, args) as the level's continuation and
   call f with the fresh rollback code 0 prepended. *)
let do_speculate t ~entry ~args =
  let (_ : int) =
    Spec.Engine.enter t.spec ~cont:{ Spec.Engine.entry; args }
  in
  charge t Arch.Trap;
  t.cont <- entry, Value.Vint 0 :: args

let do_commit t ~level ~entry ~args =
  Spec.Engine.commit t.spec level;
  charge t Arch.Trap;
  t.cont <- entry, args

let do_rollback t ~level ~code =
  let cont = Spec.Engine.rollback t.spec level in
  charge t Arch.Trap;
  t.cont <- cont.Spec.Engine.entry, Value.Vint code :: cont.Spec.Engine.args

let do_migrate t ~label ~target ~entry ~args =
  charge t Arch.Trap;
  t.status <-
    Migrating { m_label = label; m_target = target; m_entry = entry;
                m_args = args }

(* Host-side resolution of a migration request. *)
let migration_failed t =
  match t.status with
  | Migrating req ->
    (* a failed migration is invisible: continue locally (Section 4.2.1) *)
    t.cont <- req.m_entry, req.m_args;
    t.status <- Running
  | Running | Exited _ | Trapped _ ->
    raise (Process_error "migration_failed: process is not migrating")

let migration_completed t =
  match t.status with
  | Migrating _ -> t.status <- Exited 0
  | Running | Exited _ | Trapped _ ->
    raise (Process_error "migration_completed: process is not migrating")

(* ------------------------------------------------------------------ *)
(* External function interface                                         *)
(* ------------------------------------------------------------------ *)

exception Extern_failure of string

(* A host's externs: [call] dispatches by name on every call (the
   interpreter and the Baseline tier); [bind] resolves a name once and
   returns its implementation, which compiled code keeps per call site.
   Only Extern.handler builds one. *)
type handler = {
  call : t -> string -> Value.t list -> Value.t;
  bind : string -> t -> Value.t list -> Value.t;
}
