(* External functions: the FIR's only non-tail calls, runtime services
   that return a value to the current basic block.  A host provides them
   as one table of (name, signature, implementation) entries (see
   extern.mli); these are the base entries, and the simulated cluster's
   table adds its own (lib/net). *)

open Runtime

type 'h entry = {
  name : string;
  args : Fir.Types.ty list;
  result : Fir.Types.ty;
  run : 'h -> Process.t -> Value.t list -> Value.t;
}

type 'h table = (string, 'h entry) Hashtbl.t

exception Bad_arguments
exception Failed of string

let bad_arguments () = raise Bad_arguments
let fail cause = raise (Failed cause)
let ext name args result run = { name; args; result; run }

let table entries =
  let t = Hashtbl.create (2 * List.length entries) in
  List.iter
    (fun e ->
      if Hashtbl.mem t e.name then
        invalid_arg ("Extern.table: duplicate extern " ^ e.name);
      Hashtbl.replace t e.name e)
    entries;
  t

let lookup t : Fir.Typecheck.extern_lookup =
 fun name -> Option.map (fun e -> e.args, e.result) (Hashtbl.find_opt t name)

let names t = List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) t [])

let unknown name = raise (Process.Extern_failure ("unknown extern " ^ name))

(* Run an entry, turning its [Bad_arguments] and [Failed] into the
   trap messages the interface documents. *)
let guarded name run host proc args =
  try run host proc args with
  | Bad_arguments ->
    raise
      (Process.Extern_failure
         (Printf.sprintf "extern %s: bad arguments (%s)" name
            (String.concat ", " (List.map Value.to_string args))))
  | Failed cause -> raise (Process.Extern_failure (name ^ ": " ^ cause))

let handler t host : Process.handler =
  {
    call =
      (fun proc name args ->
        match Hashtbl.find t name with
        | exception Not_found -> unknown name
        | e -> guarded name e.run host proc args);
    bind =
      (fun name ->
        match Hashtbl.find_opt t name with
        | None -> fun _ _ -> unknown name
        | Some e ->
          let run = e.run in
          fun proc args -> guarded name run host proc args);
  }

(* Argument decoding shared by the base entries. *)
let nullary f _ proc = function [] -> f proc | _ -> bad_arguments ()

let on_int f _ proc = function
  | [ Value.Vint n ] -> f proc n
  | _ -> bad_arguments ()

let on_float f _ proc = function
  | [ Value.Vfloat x ] -> f proc x
  | _ -> bad_arguments ()

(* All output goes to the process's output buffer so tests and the
   simulated cluster can observe it; randomness is drawn from the
   process's seeded state so runs are reproducible. *)
let print (proc : Process.t) s =
  Buffer.add_string proc.Process.output s;
  Value.Vunit

let count read = nullary (fun proc -> Value.Vint (read proc))

let collect kind =
  nullary (fun proc ->
      ignore (Process.collect proc kind);
      Value.Vunit)

let entries () =
  let open Fir.Types in
  [
    ext "print_int" [ Tint ] Tunit
      (on_int (fun proc n -> print proc (string_of_int n)));
    ext "print_float" [ Tfloat ] Tunit
      (on_float (fun proc f -> print proc (Printf.sprintf "%.6g" f)));
    ext "print_string" [ Traw ] Tunit (fun _ proc -> function
      | [ Value.Vptr (idx, 0) ] ->
        print proc (Heap.raw_to_string proc.Process.heap idx)
      | _ -> bad_arguments ());
    ext "print_newline" [] Tunit (nullary (fun proc -> print proc "\n"));
    (* [full_int] draws exactly as [int] for bounds up to 0x3FFFFFFF and
       accepts every positive bound *)
    ext "rand" [ Tint ] Tint
      (on_int (fun proc bound ->
           if bound <= 0 then bad_arguments ();
           Value.Vint (Random.State.full_int proc.Process.rng bound)));
    ext "cycles" [] Tint (count (fun p -> p.Process.cycles));
    ext "steps" [] Tint (count (fun p -> p.Process.steps));
    ext "pid" [] Tint (count (fun p -> p.Process.pid));
    ext "spec_level" [] Tint
      (count (fun p -> Spec.Engine.depth p.Process.spec));
    ext "spec_saved_blocks" [] Tint
      (count (fun p -> List.length (Spec.Engine.records p.Process.spec)));
    ext "heap_used" [] Tint (count (fun p -> Heap.used_cells p.Process.heap));
    ext "gc_minor" [] Tunit (collect Gc.Minor);
    ext "gc_major" [] Tunit (collect Gc.Major);
    ext "float_sqrt" [ Tfloat ] Tfloat
      (on_float (fun _ x -> Value.Vfloat (sqrt x)));
    ext "float_abs" [ Tfloat ] Tfloat
      (on_float (fun _ x -> Value.Vfloat (Float.abs x)));
    (* charge N microseconds of simulated work on the process's clock:
       lets a small verification kernel stand in for a production-scale
       computation without burning host time (used by the grid app) *)
    ext "work_us" [ Tint ] Tunit
      (on_int (fun proc us ->
           if us < 0 then bad_arguments ();
           proc.Process.cycles <-
             proc.Process.cycles + (us * proc.Process.arch.Arch.clock_mhz);
           Value.Vunit));
  ]

let base_table = table (entries ())
let signatures = lookup base_table
let base = handler base_table ()
