(* MCC — the Mojave Compiler Collection reproduction: public facade.

   This module ties the substrates together into the API a user of the
   library sees:

   - compile C or ML source to verified FIR ([compile_c], [compile_ml]);
   - run a program locally on either engine ([run]);
   - take/restore whole-process images ([image_bytes], [resume]);
   - deploy programs onto the simulated cluster (see Net.Cluster and
     Gridapp for the canonical distributed application).

   The language-level primitives the paper contributes — speculate(),
   commit(id), abort(id), migrate(target) — are part of the mini-C
   surface (Minic.Typecheck.builtins) and of the FIR itself
   (Fir.Ast.{Speculate,Commit,Rollback,Migrate}); nothing here needs to
   manage process state by hand. *)

let version = "1.0.0"

type source =
  | C of string
  | Ml of string
  | Pas of string
  | Fir_program of Fir.Ast.program

type compile_error = string

let compile ?(optimize = true) source : (Fir.Ast.program, compile_error) result
    =
  match source with
  | C src -> (
    match Minic.Driver.compile ~optimize src with
    | Ok fir -> Ok fir
    | Error e -> Error (Minic.Driver.error_to_string e))
  | Ml src -> (
    match Miniml.Driver.compile ~optimize src with
    | Ok fir -> Ok fir
    | Error e -> Error (Miniml.Driver.error_to_string e))
  | Pas src -> (
    match Pascal.Driver.compile ~optimize src with
    | Ok fir -> Ok fir
    | Error e -> Error (Pascal.Driver.error_to_string e))
  | Fir_program fir -> (
    match Fir.Typecheck.check_program fir with
    | Ok () -> Ok (if optimize then Fir.Opt.optimize fir else fir)
    | Error m -> Error ("ill-typed FIR: " ^ m))

let compile_c ?optimize src = compile ?optimize (C src)
let compile_ml ?optimize src = compile ?optimize (Ml src)
let compile_pascal ?optimize src = compile ?optimize (Pas src)

let compile_exn ?optimize source =
  match compile ?optimize source with
  | Ok fir -> fir
  | Error m -> failwith m

(* ------------------------------------------------------------------ *)
(* Local execution                                                     *)
(* ------------------------------------------------------------------ *)

type backend = Reference (* FIR interpreter *) | Native (* MASM emulator *)

type outcome = {
  o_status : Vm.Process.status;
  o_output : string;
  o_steps : int;
  o_cycles : int;
  o_process : Vm.Process.t;
}

let outcome proc status =
  {
    o_status = status;
    o_output = Vm.Process.output proc;
    o_steps = proc.Vm.Process.steps;
    o_cycles = proc.Vm.Process.cycles;
    o_process = proc;
  }

let run ?(backend = Reference) ?(arch = Vm.Arch.cisc32) ?seed ?max_steps
    program =
  let proc = Vm.Process.create ~arch ?seed program in
  let status =
    match backend with
    | Reference -> Vm.Interp.run ?max_steps proc
    | Native ->
      let emu = Vm.Emulator.create (Vm.Codegen.compile ~arch program) proc in
      Vm.Emulator.run ?max_steps emu
  in
  outcome proc status

(* Exit code of an outcome, or an error description. *)
let exit_code outcome =
  match outcome.o_status with
  | Vm.Process.Exited n -> Ok n
  | Vm.Process.Trapped m -> Error ("trapped: " ^ m)
  | Vm.Process.Running -> Error "still running (step budget exhausted)"
  | Vm.Process.Migrating req ->
    Error ("stopped at migration to " ^ req.Vm.Process.m_target)

(* ------------------------------------------------------------------ *)
(* Whole-process images                                                *)
(* ------------------------------------------------------------------ *)

(* Pack a process stopped at a migration point into image bytes. *)
let image_bytes proc =
  (Migrate.Pack.pack_request proc).Migrate.Pack.p_bytes

(* Resume an image (e.g. a checkpoint file): verify, recompile for the
   local architecture, return the rebuilt process and its compiled code. *)
let resume ?(arch = Vm.Arch.cisc32) ?(trusted = false) ?seed bytes =
  Migrate.Pack.unpack ?seed ~trusted ~arch bytes

(* Resume and run to completion on the emulator. *)
let resume_and_run ?arch ?trusted ?seed bytes =
  match resume ?arch ?trusted ?seed bytes with
  | Error m -> Error m
  | Ok (proc, masm, compiled, _costs) ->
    let emu = Vm.Emulator.create ~compiled masm proc in
    Ok (outcome proc (Vm.Emulator.run emu))
