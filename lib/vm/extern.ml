(* External functions provided by the runtime.

   Externs are the FIR's only non-tail calls: runtime services that return
   a value to the current basic block.  This module defines the base set
   (I/O to the process output buffer, deterministic randomness, clocks,
   speculation introspection) together with their type signatures, which
   the typechecker validates in strict mode (e.g. on a migration server).

   Host environments extend the base set: the simulated cluster adds
   message passing and fault-injected storage (lib/net), and applications
   may register their own.  [combine] chains handlers. *)

open Runtime

let base_signatures : (string * (Fir.Types.ty list * Fir.Types.ty)) list =
  let open Fir.Types in
  [
    "print_int", ([ Tint ], Tunit);
    "print_float", ([ Tfloat ], Tunit);
    "print_string", ([ Traw ], Tunit);
    "print_newline", ([], Tunit);
    "rand", ([ Tint ], Tint);
    "cycles", ([], Tint);
    "steps", ([], Tint);
    "pid", ([], Tint);
    "spec_level", ([], Tint);
    "spec_saved_blocks", ([], Tint);
    "heap_used", ([], Tint);
    "gc_minor", ([], Tunit);
    "gc_major", ([], Tunit);
    "float_sqrt", ([ Tfloat ], Tfloat);
    "float_abs", ([ Tfloat ], Tfloat);
    (* charge N microseconds of simulated work on the process's clock:
       lets a small verification kernel stand in for a production-scale
       computation without burning host time (used by the grid app) *)
    "work_us", ([ Tint ], Tunit);
  ]

let signature_lookup extra name =
  match List.assoc_opt name extra with
  | Some s -> Some s
  | None -> List.assoc_opt name base_signatures

(* The typechecker hook for the base set only. *)
let signatures : Fir.Typecheck.extern_lookup = signature_lookup []

let bad_args name args =
  raise
    (Process.Extern_failure
       (Printf.sprintf "extern %s: bad arguments (%s)" name
          (String.concat ", " (List.map Value.to_string args))))

(* The base handler.  All output goes to the process's output buffer so
   tests and the simulated cluster can observe it; randomness is drawn from
   the process's seeded state so runs are reproducible. *)
let base : Process.handler =
  fun proc name args ->
  match name, args with
  | "print_int", [ Value.Vint n ] ->
    Buffer.add_string proc.Process.output (string_of_int n);
    Value.Vunit
  | "print_float", [ Value.Vfloat f ] ->
    Buffer.add_string proc.Process.output (Printf.sprintf "%.6g" f);
    Value.Vunit
  | "print_string", [ Value.Vptr (idx, 0) ] ->
    Buffer.add_string proc.Process.output
      (Heap.raw_to_string proc.Process.heap idx);
    Value.Vunit
  | "print_newline", [] ->
    Buffer.add_char proc.Process.output '\n';
    Value.Vunit
  | "rand", [ Value.Vint bound ] ->
    if bound <= 0 then bad_args name args
    else Value.Vint (Random.State.int proc.Process.rng bound)
  | "cycles", [] -> Value.Vint proc.Process.cycles
  | "steps", [] -> Value.Vint proc.Process.steps
  | "pid", [] -> Value.Vint proc.Process.pid
  | "spec_level", [] -> Value.Vint (Spec.Engine.depth proc.Process.spec)
  | "spec_saved_blocks", [] ->
    Value.Vint
      (List.length (Spec.Engine.records proc.Process.spec))
  | "heap_used", [] -> Value.Vint (Heap.used_cells proc.Process.heap)
  | "gc_minor", [] ->
    ignore (Process.collect proc Gc.Minor);
    Value.Vunit
  | "gc_major", [] ->
    ignore (Process.collect proc Gc.Major);
    Value.Vunit
  | "float_sqrt", [ Value.Vfloat f ] -> Value.Vfloat (sqrt f)
  | "float_abs", [ Value.Vfloat f ] -> Value.Vfloat (Float.abs f)
  | "work_us", [ Value.Vint us ] ->
    if us < 0 then bad_args name args
    else begin
      proc.Process.cycles <-
        proc.Process.cycles + (us * proc.Process.arch.Arch.clock_mhz);
      Value.Vunit
    end
  | ( ( "print_int" | "print_float" | "print_string" | "print_newline"
      | "rand" | "cycles" | "steps" | "pid" | "spec_level"
      | "spec_saved_blocks" | "heap_used" | "gc_minor" | "gc_major"
      | "float_sqrt" | "float_abs" | "work_us" ),
      _ ) ->
    bad_args name args
  | _ ->
    raise (Process.Extern_failure ("unknown extern " ^ name))

exception Absent

(* Chain two handlers: [first] wins; a name [first] does not define
   ([Absent]) falls through to [fallback].  Any other failure is the
   call's own and traps with its own message. *)
let combine first fallback : Process.handler =
  fun proc name args ->
  try first proc name args with Absent -> fallback proc name args
