(** Whole-process state (paper, Section 4.1).

    A process bundles the FIR code, heap, pointer/function tables,
    speculation engine and current continuation.  Because the FIR is CPS,
    between basic blocks the complete live state is the next call's
    argument list — which is why the paper's [migrate_env] is exactly
    those arguments and migration needs no machine-specific register map.

    A process does not run itself: {!Interp} or {!Emulator} advances it
    one basic block per step, and a host environment (CLI, migration
    daemon, simulated cluster node) resolves {!Migrating} statuses and
    provides external functions. *)

open Runtime

type migration_request = {
  m_label : int;  (** the unique migration label i *)
  m_target : string;  (** decoded target string, e.g. "mcc://node1" *)
  m_entry : string;  (** continuation function *)
  m_args : Value.t list;  (** live variables = continuation arguments *)
}

type status =
  | Running
  | Exited of int
  | Trapped of string
  | Migrating of migration_request

type fir_payload = {
  fir_bytes : string;  (** the {!Fir.Serial} encoding of the program *)
  fir_digest : string;  (** {!Fir.Digest} of [fir_bytes] *)
}

type t = {
  pid : int;
  program : Fir.Ast.program;
  heap : Heap.t;
  ftable : Function_table.t;
  spec : Spec.Engine.t;
  arch : Arch.t;
  mutable cont : string * Value.t list;
  mutable status : status;
  mutable steps : int;
  mutable cycles : int;
  mutable on_gc : (Gc.result -> unit) option;
      (** host observer, fired after every collection (tracing) *)
  output : Buffer.t;
  rng : Random.State.t;
  mutable fir_payload : fir_payload option;
      (** memo of {!fir_payload} *)
  mutable masm_payload : string option;
      (** memo of {!masm_payload} *)
}

exception Process_error of string

val create :
  ?pid:int -> ?arch:Arch.t -> ?seed:int -> Fir.Ast.program -> t

val restore :
  ?pid:int -> ?arch:Arch.t -> ?seed:int ->
  program:Fir.Ast.program -> heap:Heap.t ->
  spec_snapshot:Spec.Engine.snapshot_level list ->
  cont:string * Value.t list -> unit -> t
(** Rebuild a process from unpacked parts (migration / checkpoint
    resume). *)

(** {2 Encoded payloads}

    The program never changes, so a process encodes it for the wire at
    most once: every pack of the process ships the same bytes. *)

val fir_payload : t -> fir_payload
(** The program's FIR encoding and digest, computed on first use. *)

val seed_fir_payload : t -> fir_bytes:string -> fir_digest:string -> unit
(** Install the payload the process was restored from, so its next pack
    re-ships the bytes that arrived.  [fir_bytes] must be the encoding of
    [program] and [fir_digest] its digest (a decoded image's, which the
    wire layer recomputed on receipt). *)

val masm_payload : t -> string
(** The {!Masm} encoding of the program compiled for the process's
    architecture (the binary fast-path payload), computed on first
    use. *)

val output : t -> string
val is_terminated : t -> bool
val charge : t -> Arch.instr_class -> unit

val charge_cycles : t -> int -> unit
(** Bulk charge: add a pre-computed cycle count (engines accumulate
    static per-instruction costs locally and flush once per observation
    boundary — see {!Link}). *)

(** {2 Function resolution} *)
val fun_name : t -> Value.t -> string
val fun_value : t -> string -> Value.t
val fundef : t -> string -> Fir.Ast.fundef

(** {2 Garbage collection driver} *)

val roots : t -> Value.t list
val collect : t -> Gc.kind -> Gc.result
val maybe_collect : t -> unit

(** {2 Pseudo-instruction plumbing (shared by both engines)} *)

val do_speculate : t -> entry:string -> args:Value.t list -> unit
val do_commit : t -> level:int -> entry:string -> args:Value.t list -> unit
val do_rollback : t -> level:int -> code:int -> unit
val do_migrate :
  t -> label:int -> target:string -> entry:string -> args:Value.t list ->
  unit

val migration_failed : t -> unit
(** Resolve a {!Migrating} status as failed: the process continues
    locally, unaware (paper, Section 4.2.1) — also used for the
    checkpoint protocol's keep-running semantics. *)

val migration_completed : t -> unit
(** Resolve a {!Migrating} status as succeeded: the source terminates. *)

(** {2 External functions} *)

exception Extern_failure of string

type handler = {
  call : t -> string -> Value.t list -> Value.t;
      (** [call proc name args] resolves [name] and runs it *)
  bind : string -> t -> Value.t list -> Value.t;
      (** [bind name] resolves [name] once and returns the function
          [call] would run for it: the same result, the same traps with
          the same messages.  An unknown name binds to a function that
          traps when it is called. *)
}
(** A host's external functions.  Only {!Extern.handler} builds one.
    The interpreter and the Baseline tier use [call]; compiled code
    ({!Compile}) binds each extern call site once per emulator and
    handler. *)
