(** MCC — the public facade of the Mojave Compiler reproduction.

    Compile C or ML source to verified FIR, run it on either execution
    engine, and capture/resume whole-process images.  The paper's
    language primitives — [speculate()], [commit(id)], [abort(id)],
    [migrate(target)] — are part of the mini-C surface and of the FIR
    itself; the compiler generates all state-management code.

    For distributed execution (placement, message passing, failure
    injection, resurrection) see {!Net.Cluster}; for the canonical
    Figure 2 application see {!Gridapp}. *)

val version : string

type source =
  | C of string
  | Ml of string
  | Pas of string
  | Fir_program of Fir.Ast.program

type compile_error = string

val compile :
  ?optimize:bool -> source -> (Fir.Ast.program, compile_error) result

val compile_c :
  ?optimize:bool -> string -> (Fir.Ast.program, compile_error) result

val compile_ml :
  ?optimize:bool -> string -> (Fir.Ast.program, compile_error) result

val compile_pascal :
  ?optimize:bool -> string -> (Fir.Ast.program, compile_error) result

val compile_exn : ?optimize:bool -> source -> Fir.Ast.program

(** {2 Local execution} *)

type backend =
  | Reference  (** the FIR interpreter *)
  | Native  (** compile to MASM and emulate *)

type outcome = {
  o_status : Vm.Process.status;
  o_output : string;
  o_steps : int;
  o_cycles : int;
  o_process : Vm.Process.t;
}

val run :
  ?backend:backend -> ?arch:Vm.Arch.t -> ?seed:int -> ?max_steps:int ->
  Fir.Ast.program -> outcome

val exit_code : outcome -> (int, string) result

(** {2 Whole-process images} *)

val image_bytes : Vm.Process.t -> string
(** Pack a process stopped at a migration point into image bytes
    (a resumable, self-describing checkpoint). *)

val resume :
  ?arch:Vm.Arch.t -> ?trusted:bool -> ?seed:int -> string ->
  ( Vm.Process.t * Vm.Masm.image * Vm.Compile.image
    * Migrate.Pack.unpack_costs,
    string )
  result

val resume_and_run :
  ?arch:Vm.Arch.t -> ?trusted:bool -> ?seed:int -> string ->
  (outcome, string) result
