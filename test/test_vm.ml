(* Tests for the VM: interpreter semantics, traps, speculation and
   migration end-to-end, plus differential testing of the compiled MASM
   emulator against the reference interpreter. *)

open Fir
open Runtime

module Masm = Vm.Masm

open Kit

let exit_code = function
  | Vm.Process.Exited n -> n
  | Vm.Process.Trapped msg -> Alcotest.failf "trapped: %s" msg
  | Vm.Process.Running -> Alcotest.fail "still running"
  | Vm.Process.Migrating _ -> Alcotest.fail "unexpectedly migrating"

let run_interp ?seed program =
  let proc = Vm.Process.create ?seed program in
  let status = Vm.Interp.run proc in
  status, proc

let run_emulator ?seed ?(arch = Vm.Arch.cisc32) program =
  let image = Vm.Codegen.compile ~arch program in
  let proc = Vm.Process.create ?seed ~arch program in
  let emu = Vm.Emulator.create image proc in
  let status = Vm.Emulator.run emu in
  status, proc

(* ------------------------------------------------------------------ *)
(* Shared example programs                                             *)
(* ------------------------------------------------------------------ *)

let sum_loop =
  Builder.(
    let loop, entry =
      for_loop ~name:"loop" ~lo:(int 0) ~hi:(int 10)
        ~state_tys:[ Types.Tint ] ~state:[ int 0 ]
        ~body:(fun i st continue ->
          match st with
          | [ acc ] -> add acc i (fun acc' -> continue [ acc' ])
          | _ -> assert false)
        ~after:(fun st ->
          match st with [ acc ] -> exit_ acc | _ -> assert false)
    in
    prog [ loop; func "main" [] (fun _ -> entry) ])

let factorial =
  Builder.(
    prog
      [
        func "fact" [ "n", Types.Tint; "acc", Types.Tint ] (fun args ->
            match args with
            | [ n; acc ] ->
              le n (int 1) (fun base ->
                  if_ base (exit_ acc)
                    (mul acc n (fun acc' ->
                         sub n (int 1) (fun n' -> callf "fact" [ n'; acc' ]))))
            | _ -> assert false);
        func "main" [] (fun _ -> callf "fact" [ int 5; int 1 ]);
      ])

let heap_rw =
  Builder.(
    prog
      [
        func "main" [] (fun _ ->
            array Types.Tint ~size:(int 16) ~init:(int 0) (fun arr ->
                store arr (int 7) (int 42)
                  (binop (Types.Tptr Types.Tint) Ast.Padd arr (int 3)
                     (fun p ->
                       load Types.Tint p (int 4) (fun x -> exit_ x)))));
      ])

let speculative_retry =
  (* first attempt writes 99 into the cell and rolls back; the retry sees
     c=1, checks the cell was restored to 5, and exits c*100 + cell *)
  Builder.(
    prog
      [
        func "body"
          [ "c", Types.Tint; "cell", Types.Tptr Types.Tint ]
          (fun args ->
            match args with
            | [ c; cell ] ->
              eq c (int 0) (fun fresh ->
                  if_ fresh
                    (store cell (int 0) (int 99) (rollback (int 1) (int 1)))
                    (load Types.Tint cell (int 0) (fun v ->
                         mul c (int 100) (fun h ->
                             add h v (fun r -> exit_ r)))))
            | _ -> assert false);
        func "main" [] (fun _ ->
            array Types.Tint ~size:(int 1) ~init:(int 5) (fun cell ->
                speculate (fn "body") [ cell ]));
      ])

let speculative_commit =
  Builder.(
    prog
      [
        func "fin" [ "cell", Types.Tptr Types.Tint ] (fun args ->
            match args with
            | [ cell ] -> load Types.Tint cell (int 0) (fun v -> exit_ v)
            | _ -> assert false);
        func "body"
          [ "c", Types.Tint; "cell", Types.Tptr Types.Tint ]
          (fun args ->
            match args with
            | [ _; cell ] ->
              store cell (int 0) (int 77) (commit (int 1) (fn "fin") [ cell ])
            | _ -> assert false);
        func "main" [] (fun _ ->
            array Types.Tint ~size:(int 1) ~init:(int 5) (fun cell ->
                speculate (fn "body") [ cell ]));
      ])

let hello_print =
  Builder.(
    prog
      [
        func "main" [] (fun _ ->
            string "hello" (fun s ->
                ext Types.Tunit "print_string" [ s ] (fun _ ->
                    ext Types.Tunit "print_newline" [] (fun _ ->
                        ext Types.Tunit "print_int" [ int 42 ] (fun _ ->
                            exit_ (int 0))))));
      ])

let migrator =
  Builder.(
    prog
      [
        func "after" [ "x", Types.Tint ] (fun args ->
            match args with
            | [ x ] -> add x (int 1) (fun r -> exit_ r)
            | _ -> assert false);
        func "main" [] (fun _ ->
            string "mcc://node7" (fun dst ->
                migrate ~label:3 dst (fn "after") [ int 10 ]));
      ])

let all_programs =
  [
    "sum_loop", sum_loop, 45;
    "factorial", factorial, 120;
    "heap_rw", heap_rw, 42;
    "speculative_retry", speculative_retry, 105;
    "speculative_commit", speculative_commit, 77;
  ]

(* ------------------------------------------------------------------ *)
(* Interpreter semantics                                               *)
(* ------------------------------------------------------------------ *)

let test_interp_programs () =
  List.iter
    (fun (name, p, expected) ->
      check "program typechecks" true
        (Typecheck.well_typed ~externs:Vm.Extern.signatures p);
      let status, _ = run_interp p in
      check_int name expected (exit_code status))
    all_programs

let test_interp_output () =
  let status, proc = run_interp hello_print in
  check_int "exit 0" 0 (exit_code status);
  check_str "output buffer" "hello\n42" (Vm.Process.output proc)

let test_interp_optimized_agrees () =
  List.iter
    (fun (name, p, expected) ->
      let status, _ = run_interp (Opt.optimize p) in
      check_int (name ^ " optimized") expected (exit_code status))
    all_programs

let test_rand_deterministic () =
  let p =
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              ext Types.Tint "rand" [ int 1000 ] (fun a ->
                  ext Types.Tint "rand" [ int 1000 ] (fun b ->
                      mul a (int 1000) (fun h -> add h b (fun r -> exit_ r)))));
        ])
  in
  let s1, _ = run_interp ~seed:7 p in
  let s2, _ = run_interp ~seed:7 p in
  let s3, _ = run_interp ~seed:8 p in
  check_int "same seed same value" (exit_code s1) (exit_code s2);
  check "different seed differs" true (exit_code s1 <> exit_code s3)

(* ------------------------------------------------------------------ *)
(* Traps                                                               *)
(* ------------------------------------------------------------------ *)

let expect_trap name p =
  let status, _ = run_interp p in
  match status with
  | Vm.Process.Trapped _ -> ()
  | _ -> Alcotest.failf "%s: expected a trap" name

let test_trap_div_zero () =
  expect_trap "div by zero"
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              div (int 1) (int 0) (fun x -> exit_ x));
        ])

let test_trap_nil_deref () =
  expect_trap "nil dereference"
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              atom (Types.Tptr Types.Tint) (nil (Types.Tptr Types.Tint))
                (fun p -> load Types.Tint p (int 0) (fun x -> exit_ x)));
        ])

let test_trap_out_of_bounds () =
  expect_trap "out-of-bounds store"
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              array Types.Tint ~size:(int 2) ~init:(int 0) (fun arr ->
                  store arr (int 5) (int 1) (exit_ (int 0))));
        ])

let test_trap_negative_array () =
  expect_trap "negative array size"
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              array Types.Tint ~size:(int (-3)) ~init:(int 0) (fun _ ->
                  exit_ (int 0)));
        ])

let test_trap_bad_commit () =
  expect_trap "commit without speculation"
    Builder.(
      prog
        [
          func "fin" [] (fun _ -> exit_ (int 0));
          func "main" [] (fun _ -> commit (int 1) (fn "fin") []);
        ])

let test_trap_pointer_forge () =
  (* forging a pointer past the live pointer table must trap, not crash:
     this is the paper's safety argument for C memory *)
  expect_trap "forged pointer index"
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              array Types.Tint ~size:(int 1) ~init:(int 0) (fun arr ->
                  binop (Types.Tptr Types.Tint) Ast.Padd arr (int 1000000)
                    (fun p -> load Types.Tint p (int 0) (fun x -> exit_ x))));
        ])

(* ------------------------------------------------------------------ *)
(* Migration surface                                                   *)
(* ------------------------------------------------------------------ *)

let test_migrate_request () =
  let proc = Vm.Process.create migrator in
  let status = Vm.Interp.run proc in
  match status with
  | Vm.Process.Migrating req ->
    check_str "target decoded" "mcc://node7" req.Vm.Process.m_target;
    check_int "label" 3 req.Vm.Process.m_label;
    check_str "entry" "after" req.Vm.Process.m_entry;
    check "live args captured" true
      (req.Vm.Process.m_args = [ Value.Vint 10 ]);
    (* failure is invisible: the process resumes locally *)
    Vm.Process.migration_failed proc;
    let status = Vm.Interp.run proc in
    check_int "continued locally" 11 (exit_code status)
  | _ -> Alcotest.fail "expected a migration request"

let test_migrate_completed () =
  let proc = Vm.Process.create migrator in
  (match Vm.Interp.run proc with
  | Vm.Process.Migrating _ -> ()
  | _ -> Alcotest.fail "expected migration");
  Vm.Process.migration_completed proc;
  check "terminated on source" true (Vm.Process.is_terminated proc)

(* ------------------------------------------------------------------ *)
(* GC under execution                                                  *)
(* ------------------------------------------------------------------ *)

let allocating_loop n =
  (* allocate a tuple per iteration, keep only a running sum: forces
     collections while running *)
  Builder.(
    let loop, entry =
      for_loop ~name:"loop" ~lo:(int 0) ~hi:(int n)
        ~state_tys:[ Types.Tint ] ~state:[ int 0 ]
        ~body:(fun i st continue ->
          match st with
          | [ acc ] ->
            tuple [ Types.Tint, i; Types.Tint, acc ] (fun t ->
                proj Types.Tint t 0 (fun x ->
                    add acc x (fun acc' -> continue [ acc' ])))
          | _ -> assert false)
        ~after:(fun st ->
          match st with [ acc ] -> exit_ acc | _ -> assert false)
    in
    prog [ loop; func "main" [] (fun _ -> entry) ])

(* collections so far, from the collector's process-global registry *)
let collections () =
  let count = Obs.Metrics.counter_value Gc.metrics in
  count "gc.minor_collections" + count "gc.major_collections"

let test_gc_under_execution () =
  let p = allocating_loop 20_000 in
  let proc = Vm.Process.create p in
  let before = collections () in
  let status = Vm.Interp.run proc in
  check_int "sum correct despite GC" (20_000 * 19_999 / 2) (exit_code status);
  check "collections actually happened" true (collections () > before);
  check "heap stayed bounded" true
    (Heap.used_cells proc.Vm.Process.heap < 2_000_000)

let test_gc_during_speculation_run () =
  (* speculate, allocate enough to trigger GC, roll back: the original
     must survive the collections *)
  let p =
    Builder.(
      prog
        [
          func "churn"
            [ "i", Types.Tint; "c", Types.Tint;
              "cell", Types.Tptr Types.Tint ]
            (fun args ->
              match args with
              | [ i; c; cell ] ->
                gt i (int 0) (fun more ->
                    if_ more
                      (tuple [ Types.Tint, i ] (fun _junk ->
                           sub i (int 1) (fun i' ->
                               callf "churn" [ i'; c; cell ])))
                      (eq c (int 0) (fun fresh ->
                           if_ fresh
                             (rollback (int 1) (int 1))
                             (load Types.Tint cell (int 0) (fun v -> exit_ v)))))
              | _ -> assert false);
          func "body"
            [ "c", Types.Tint; "cell", Types.Tptr Types.Tint ]
            (fun args ->
              match args with
              | [ c; cell ] ->
                (* on retry (c <> 0) do NOT redo the speculative write:
                   the load at the end must then see the restored value *)
                eq c (int 0) (fun fresh ->
                    if_ fresh
                      (store cell (int 0) (int 999)
                         (callf "churn" [ int 30000; c; cell ]))
                      (callf "churn" [ int 30000; c; cell ]))
              | _ -> assert false);
          func "main" [] (fun _ ->
              array Types.Tint ~size:(int 1) ~init:(int 123) (fun cell ->
                  speculate (fn "body") [ cell ]));
        ])
  in
  let before = collections () in
  let status, _ = run_interp p in
  check_int "rollback restored across GC" 123 (exit_code status);
  check "GC ran during speculation" true (collections () > before)

(* ------------------------------------------------------------------ *)
(* Emulator: differential testing                                      *)
(* ------------------------------------------------------------------ *)

let test_emulator_matches_interp () =
  List.iter
    (fun (name, p, expected) ->
      List.iter
        (fun arch ->
          let status, _ = run_emulator ~arch p in
          check_int
            (Printf.sprintf "%s on %s" name arch.Vm.Arch.name)
            expected (exit_code status))
        Vm.Arch.all)
    all_programs

let test_emulator_output_matches () =
  let _, pi = run_interp hello_print in
  let _, pe = run_emulator hello_print in
  check_str "same output" (Vm.Process.output pi) (Vm.Process.output pe)

let test_emulator_traps_match () =
  List.iter
    (fun p ->
      let si, _ = run_interp p in
      let se, _ = run_emulator p in
      match si, se with
      | Vm.Process.Trapped _, Vm.Process.Trapped _ -> ()
      | _ -> Alcotest.fail "interpreter and emulator disagree on trapping")
    [
      Builder.(
        prog
          [ func "main" [] (fun _ -> div (int 1) (int 0) (fun x -> exit_ x)) ]);
      Builder.(
        prog
          [
            func "main" [] (fun _ ->
                array Types.Tint ~size:(int 2) ~init:(int 0) (fun arr ->
                    store arr (int 5) (int 1) (exit_ (int 0))));
          ]);
    ]

(* The Compiled (closure-compiled) mode must be OBSERVABLY identical to
   the Baseline per-instruction loop: same
   status (including trap messages and migration targets), same output,
   same retired-instruction count, and — because externs read cycles
   mid-block — the same final cycle count, on every program and both
   architectures. *)

(* Programs that exercise the compiled tier's fusion boundaries: an
   observation point (extern / migrate / speculate) landing in the
   middle of what would otherwise be a straight-line run, a switch whose
   targets land on (the start of) fused segments, and traps raised from
   deep inside a fused run with cycle/instruction checkpoints pending. *)
let boundary_programs =
  Builder.
    [
      ( "extern_mid_block",
        prog
          [
            func "main" [] (fun _ ->
                add (int 40) (int 2) (fun a ->
                    mul a a (fun b ->
                        ext Types.Tunit "print_int" [ b ] (fun _ ->
                            sub b (int 1700) (fun c ->
                                rem c (int 97) (fun d -> exit_ d))))));
          ] );
      ( "migrate_mid_block",
        prog
          [
            func "after" [ "x", Types.Tint ] (fun args ->
                match args with
                | [ x ] -> add x (int 1) (fun r -> exit_ r)
                | _ -> assert false);
            func "main" [] (fun _ ->
                add (int 2) (int 3) (fun a ->
                    mul a a (fun b ->
                        string "mcc://elsewhere" (fun dst ->
                            migrate ~label:1 dst (fn "after") [ b ]))));
          ] );
      ( "switch_into_segment",
        prog
          [
            func "loop"
              [ "i", Types.Tint; "acc", Types.Tint ]
              (fun args ->
                match args with
                | [ i; acc ] ->
                  lt i (int 30) (fun c ->
                      if_ c
                        (rem i (int 3) (fun r ->
                             let step d =
                               add acc (int d) (fun a ->
                                   add i (int 1) (fun j ->
                                       callf "loop" [ j; a ]))
                             in
                             switch r [ 0, step 1; 1, step 10 ] (step 100)))
                        (exit_ acc))
                | _ -> assert false);
            func "main" [] (fun _ -> callf "loop" [ int 0; int 0 ]);
          ] );
      ( "trap_mid_run",
        prog
          [
            func "main" [] (fun _ ->
                add (int 7) (int 35) (fun a ->
                    sub a (int 42) (fun z ->
                        div a z (fun q -> exit_ q))));
          ] );
      ( "trap_oob_store",
        prog
          [
            func "main" [] (fun _ ->
                array Types.Tint ~size:(int 2) ~init:(int 0) (fun arr ->
                    add (int 3) (int 2) (fun i ->
                        store arr i (int 1) (exit_ (int 0)))));
          ] );
    ]

let status_repr = function
  | Vm.Process.Exited n -> Printf.sprintf "exited %d" n
  | Vm.Process.Trapped m -> "trapped: " ^ m
  | Vm.Process.Migrating r -> "migrating to " ^ r.Vm.Process.m_target
  | Vm.Process.Running -> "running"

let test_emulator_modes_equivalent () =
  let check_program name p =
    List.iter
      (fun arch ->
        let run mode =
          let image = Vm.Codegen.compile ~arch p in
          let proc = Vm.Process.create ~seed:5 ~arch p in
          let emu = Vm.Emulator.create ~mode image proc in
          let status = Vm.Emulator.run emu in
          status, proc, Vm.Emulator.instructions emu
        in
        let st_b, proc_b, instrs_b = run Vm.Emulator.Baseline in
        let st_c, proc_c, instrs_c = run Vm.Emulator.Compiled in
        let label what =
          Printf.sprintf "%s on %s: %s" name arch.Vm.Arch.name what
        in
        check_str (label "status") (status_repr st_b) (status_repr st_c);
        check_str (label "output")
          (Vm.Process.output proc_b)
          (Vm.Process.output proc_c);
        check_int (label "instructions") instrs_b instrs_c;
        check_int (label "steps") proc_b.Vm.Process.steps
          proc_c.Vm.Process.steps;
        check_int (label "cycles") proc_b.Vm.Process.cycles
          proc_c.Vm.Process.cycles)
      Vm.Arch.all
  in
  List.iter (fun (name, p, _) -> check_program name p) all_programs;
  check_program "hello_print" hello_print;
  List.iter (fun (name, p) -> check_program name p) boundary_programs

let test_emulator_migration () =
  let image = Vm.Codegen.compile migrator in
  let proc = Vm.Process.create migrator in
  let emu = Vm.Emulator.create image proc in
  (match Vm.Emulator.run emu with
  | Vm.Process.Migrating req ->
    check_str "emulator migration target" "mcc://node7"
      req.Vm.Process.m_target
  | _ -> Alcotest.fail "expected migration from emulator");
  Vm.Process.migration_failed proc;
  check_int "emulator continues after failed migration" 11
    (exit_code (Vm.Emulator.run emu))

let test_emulator_arch_mismatch () =
  let image = Vm.Codegen.compile ~arch:Vm.Arch.risc64 sum_loop in
  let proc = Vm.Process.create ~arch:Vm.Arch.cisc32 sum_loop in
  match Vm.Emulator.create image proc with
  | exception Vm.Emulator.Emulator_error _ -> ()
  | _ -> Alcotest.fail "cross-arch image accepted without recompilation"

let test_spill_paths () =
  (* force spills on cisc32 (6 registers) with >6 simultaneously-live
     variables; the program must still compute correctly *)
  let p =
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              add (int 1) (int 0) (fun v1 ->
                  add v1 (int 1) (fun v2 ->
                      add v2 (int 1) (fun v3 ->
                          add v3 (int 1) (fun v4 ->
                              add v4 (int 1) (fun v5 ->
                                  add v5 (int 1) (fun v6 ->
                                      add v6 (int 1) (fun v7 ->
                                          add v1 v2 (fun s1 ->
                                              add s1 v3 (fun s2 ->
                                                  add s2 v4 (fun s3 ->
                                                      add s3 v5 (fun s4 ->
                                                          add s4 v6 (fun s5 ->
                                                              add s5 v7
                                                                (fun s6 ->
                                                                  exit_ s6))))))))))))));
        ])
  in
  let fn =
    Masm.fn_exn (Vm.Codegen.compile ~arch:Vm.Arch.cisc32 p) "main"
  in
  check "spills were generated" true (fn.Masm.fn_spills > 0);
  let status, _ = run_emulator ~arch:Vm.Arch.cisc32 p in
  check_int "spilled program computes correctly" 28 (exit_code status);
  (* the risc64 flavour has enough registers: no spills *)
  let fn64 =
    Masm.fn_exn (Vm.Codegen.compile ~arch:Vm.Arch.risc64 p) "main"
  in
  check_int "no spills on risc64" 0 fn64.Masm.fn_spills

let test_cycle_accounting () =
  let _, p32 = run_emulator ~arch:Vm.Arch.cisc32 sum_loop in
  let _, p64 = run_emulator ~arch:Vm.Arch.risc64 sum_loop in
  check "both consumed cycles" true
    (p32.Vm.Process.cycles > 0 && p64.Vm.Process.cycles > 0);
  check "architectures cost differently" true
    (p32.Vm.Process.cycles <> p64.Vm.Process.cycles)

let test_masm_roundtrip () =
  List.iter
    (fun (name, p, _) ->
      let image = Vm.Codegen.compile p in
      let image' = Masm.decode (Masm.encode image) in
      check_str (name ^ " masm roundtrip") (Masm.image_to_string image)
        (Masm.image_to_string image'))
    all_programs

let test_masm_corrupt () =
  let image = Vm.Codegen.compile sum_loop in
  let s = Masm.encode image in
  let b = Bytes.of_string s in
  Bytes.set b (Bytes.length b - 1)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 1));
  match Masm.decode (Bytes.to_string b) with
  | exception Masm.Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupt MASM image accepted"

let test_context_switch_cost () =
  let c32 = Vm.Emulator.context_switch_cycles Vm.Arch.cisc32 in
  let c64 = Vm.Emulator.context_switch_cycles Vm.Arch.risc64 in
  check "positive cost" true (c32 > 0 && c64 > 0);
  check "more registers cost more to switch" true (c64 > c32)

(* ------------------------------------------------------------------ *)
(* Pass-through tail calls                                             *)
(* ------------------------------------------------------------------ *)

let cont_repr (proc : Vm.Process.t) =
  let name, args = proc.Vm.Process.cont in
  name ^ "(" ^ String.concat ", " (List.map Value.to_string args) ^ ")"

(* Step a Baseline and a Compiled emulator over [image] in lockstep and
   hold them to the same continuation after every step, then to the same
   status, output, instructions, steps and cycles.  [between ~passed n
   proc] runs on both processes after step [n]; [passed] says whether
   that step ended the Compiled side in a pass-through tail (the list in
   [cont] is physically the one the block was entered with). *)
let lockstep ?(between = fun ~passed:_ _ _ -> ()) name program image =
  let mk mode =
    let proc = Vm.Process.create ~seed:5 ~arch:Vm.Arch.cisc32 program in
    proc, Vm.Emulator.create ~mode image proc
  in
  let pb, eb = mk Vm.Emulator.Baseline and pc, ec = mk Vm.Emulator.Compiled in
  let running (p : Vm.Process.t) = p.Vm.Process.status = Vm.Process.Running in
  let n = ref 0 in
  while running pb && running pc && !n < 100_000 do
    incr n;
    let before = snd pc.Vm.Process.cont in
    Vm.Emulator.step eb;
    Vm.Emulator.step ec;
    let passed = snd pc.Vm.Process.cont == before in
    between ~passed !n pb;
    between ~passed !n pc;
    check_str
      (Printf.sprintf "%s: cont after step %d" name !n)
      (cont_repr pb) (cont_repr pc)
  done;
  check_str (name ^ ": status") (status_repr pb.Vm.Process.status)
    (status_repr pc.Vm.Process.status);
  check_str (name ^ ": output") (Vm.Process.output pb) (Vm.Process.output pc);
  check_int (name ^ ": instructions") (Vm.Emulator.instructions eb)
    (Vm.Emulator.instructions ec);
  check_int (name ^ ": steps") pb.Vm.Process.steps pc.Vm.Process.steps;
  check_int (name ^ ": cycles") pb.Vm.Process.cycles pc.Vm.Process.cycles;
  pc.Vm.Process.status

let passthrough_sites image =
  (Vm.Compile.compile_masm image).Vm.Compile.c_passthrough

let test_passthrough_minic_loop () =
  let fir =
    compile_c
      {|
int main() {
  int *d = alloc_int(16);
  int i;
  int j;
  int s = 0;
  for (i = 0; i < 16; i = i + 1) d[i] = i * i;
  for (j = 0; j < 3; j = j + 1) {
    for (i = 0; i < 16; i = i + 1) s = s + d[i] * (j + 1);
  }
  print_int(s);
  return s % 251;
}
|}
  in
  let image = Vm.Codegen.compile ~arch:Vm.Arch.cisc32 fir in
  check "loop tails compile as pass-through" true
    (passthrough_sites image > 0);
  let passes = ref 0 in
  let status =
    lockstep "minic loop" fir image
      ~between:(fun ~passed _ _ -> if passed then incr passes)
  in
  check "compiled run took the pass-through path" true (!passes > 0);
  check_str "minic loop result" "exited 161" (status_repr status)

(* Hand-written MASM over a Builder program that supplies the function
   table: codegen gives every variable its own slot, so it never writes
   a parameter, and never permutes a self call. *)
let masm_image fns =
  {
    Masm.im_arch = Vm.Arch.cisc32.Vm.Arch.name;
    im_main = "main";
    im_fns =
      List.fold_left
        (fun m (fn : Masm.fn) -> Masm.String_map.add fn.Masm.fn_name fn m)
        Masm.String_map.empty fns;
  }

let masm_fn name params code =
  { Masm.fn_name = name; fn_params = params; fn_code = code; fn_spills = 0 }

let table_program names =
  Builder.(
    prog
      (List.map
         (fun (name, arity) ->
           func name
             (List.init arity (fun i -> Printf.sprintf "x%d" i, Types.Tint))
             (fun _ -> exit_ (int 0)))
         names))

let test_passthrough_rejected () =
  let open Masm in
  let r n = Slot (Reg n) and i n = Imm (Iint n) in
  (* loop(i, acc): acc += i; i -= 1; a tail with exactly the parameter
     slots in order, but the body wrote both *)
  let writes_params =
    masm_image
      [
        masm_fn "loop" [ Reg 0; Reg 1 ]
          [|
            Binop (Ast.Add, Reg 1, r 1, r 0);
            Binop (Ast.Sub, Reg 0, r 0, i 1);
            Binop (Ast.Gt, Reg 2, r 0, i 0);
            Jz (r 2, 5);
            Tail_call (Imm (Ifun "loop"), [ r 0; r 1 ]);
            Exit (r 1);
          |];
        masm_fn "main" []
          [| Tail_call (Imm (Ifun "loop"), [ i 10; i 0 ]) |];
      ]
  in
  (* swap(p, a, b): count p[0] down, swapping a and b on every step; the
     tail writes no parameter but passes them permuted *)
  let permutes =
    masm_image
      [
        masm_fn "swap" [ Reg 0; Reg 1; Reg 2 ]
          [|
            Load (Reg 3, r 0, i 0, 0);
            Binop (Ast.Sub, Reg 4, r 3, i 1);
            Store (r 0, i 0, 0, r 4);
            Binop (Ast.Gt, Reg 5, r 4, i 0);
            Jz (r 5, 6);
            Tail_call (Imm (Ifun "swap"), [ r 0; r 2; r 1 ]);
            Binop (Ast.Mul, Reg 5, r 1, i 10);
            Binop (Ast.Add, Reg 5, r 5, r 2);
            Exit (r 5);
          |];
        masm_fn "main" []
          [|
            Alloc_array (Reg 0, i 1, i 4);
            Tail_call (Imm (Ifun "swap"), [ r 0; i 1; i 2 ]);
          |];
      ]
  in
  List.iter
    (fun (name, table, image, expect) ->
      let status = lockstep name (table_program table) image in
      check_str (name ^ ": result") expect (status_repr status);
      check_int (name ^ ": no pass-through site") 0 (passthrough_sites image))
    [
      "writes a parameter", [ "loop", 2; "main", 0 ], writes_params,
      "exited 55";
      "permutes its arguments", [ "swap", 3; "main", 0 ], permutes,
      "exited 21";
    ]

(* count(cell, n): bump cell[0] until it reaches n — every step is a
   pass-through tail *)
let count_fn =
  Builder.(
    func "count"
      [ "cell", Types.Tptr Types.Tint; "n", Types.Tint ]
      (fun args ->
        match args with
        | [ cell; n ] ->
          load Types.Tint cell (int 0) (fun v ->
              add v (int 1) (fun v' ->
                  store cell (int 0) v'
                    (lt v' n (fun c ->
                         if_ c (callf "count" [ cell; n ]) (exit_ v')))))
        | _ -> assert false))

let counting_program =
  Builder.(
    prog
      [
        count_fn;
        (* same parameters as count: a continuation a host can switch to
           without touching the argument list *)
        func "report"
          [ "cell", Types.Tptr Types.Tint; "n", Types.Tint ]
          (fun args ->
            match args with
            | [ cell; _ ] -> load Types.Tint cell (int 0) exit_
            | _ -> assert false);
        func "main" [] (fun _ ->
            array Types.Tint ~size:(int 1) ~init:(int 0) (fun cell ->
                callf "count" [ cell; int 100 ]));
      ])

(* the count runs inside a speculation; rolled back, it counts to 40 *)
let speculative_counting_program =
  Builder.(
    prog
      [
        count_fn;
        func "body"
          [ "code", Types.Tint; "cell", Types.Tptr Types.Tint ]
          (fun args ->
            match args with
            | [ code; cell ] ->
              eq code (int 0) (fun first ->
                  if_ first
                    (callf "count" [ cell; int 100 ])
                    (callf "count" [ cell; int 40 ]))
            | _ -> assert false);
        func "main" [] (fun _ ->
            array Types.Tint ~size:(int 1) ~init:(int 0) (fun cell ->
                speculate (fn "body") [ cell ]));
      ])

(* [cont] rewritten between steps while the pass-through mark is set:
   every rewrite must force the full block entry *)
let test_passthrough_cont_rewrites () =
  let at_step k f ~passed n proc =
    if n = k then begin
      check (Printf.sprintf "step %d ended in a pass-through" k) true passed;
      f proc
    end
  in
  let run name program rewrite expect =
    let image = Vm.Codegen.compile ~arch:Vm.Arch.cisc32 program in
    check (name ^ ": the loop is pass-through") true
      (passthrough_sites image > 0);
    let status = lockstep name program image ~between:(at_step 12 rewrite) in
    check_str (name ^ ": result") expect (status_repr status)
  in
  run "rollback inside the loop" speculative_counting_program
    (fun proc -> Vm.Process.do_rollback proc ~level:1 ~code:1)
    "exited 40";
  (* a resumed migration stores the same (physical) name with fresh
     arguments, so only the argument list tells the entries apart *)
  run "migration_failed resuming mid-loop" counting_program
    (fun proc ->
      let name, args = proc.Vm.Process.cont in
      proc.Vm.Process.status <-
        Vm.Process.Migrating
          { Vm.Process.m_label = 1; m_target = "mcc://nowhere";
            m_entry = name; m_args = [ List.hd args; Value.Vint 30 ] };
      Vm.Process.migration_failed proc)
    "exited 30";
  (* the same (physical) list under another name: only the name tells
     the entries apart *)
  run "host switches to another entry" counting_program
    (fun proc ->
      proc.Vm.Process.cont <- "report", snd proc.Vm.Process.cont)
    "exited 11"

(* A looping process moved mid-loop runs on, and its trace is the same
   whether it started in Baseline or Compiled mode.  The loop's charged
   work outlasts the destination's compile, so the move cuts over
   mid-loop. *)
let test_passthrough_move_running () =
  let fir =
    compile_c
      {|
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 3000; i = i + 1) { s = (s + i * 7) % 10007; work_us(50); }
  print_int(s);
  return s % 100;
}
|}
  in
  let run mode =
    let cluster = mk_cluster ~nodes:2 Net.Faults.none in
    let pid = Net.Cluster.spawn cluster ~node_id:0 fir in
    (match Net.Cluster.entry_of_pid cluster pid with
    | Some e ->
      e.Net.Cluster.emu <-
        Vm.Emulator.create ~mode
          (Vm.Codegen.compile ~arch:e.Net.Cluster.proc.Vm.Process.arch fir)
          e.Net.Cluster.proc
    | None -> Alcotest.fail "process lost");
    ignore (Net.Cluster.run cluster ~max_rounds:1);
    check "still looping before the move" true
      (status_of cluster pid = Vm.Process.Running);
    let succ =
      match move_running cluster ~pid ~node_id:1 with
      | Ok rep -> rep.Net.Cluster.rep_pid
      | Error e ->
        Alcotest.failf "move failed: %s"
          (Net.Cluster.migration_error_to_string e)
    in
    ignore (Net.Cluster.run cluster);
    let out =
      match Net.Cluster.entry_of_pid cluster succ with
      | Some e -> Vm.Process.output e.Net.Cluster.proc
      | None -> Alcotest.fail "successor lost"
    in
    ( status_repr (status_of cluster succ),
      out,
      String.concat "\n"
        (List.map Obs.Trace.event_to_json
           (Obs.Trace.events (Net.Cluster.trace cluster))) )
  in
  let sb, ob, tb = run Vm.Emulator.Baseline in
  let sc, oc, tc = run Vm.Emulator.Compiled in
  check_str "moved loop: status" sb sc;
  check_str "moved loop: output" ob oc;
  check "moved loop: traces identical" true (String.equal tb tc);
  check_str "moved loop: result" "exited 78" sc

(* ------------------------------------------------------------------ *)
(* Extern binding                                                      *)
(* ------------------------------------------------------------------ *)

(* Sum [probe i] for i in [0, n) and exit with the sum. *)
let probe_loop n =
  Builder.(
    let loop, entry =
      for_loop ~name:"loop" ~lo:(int 0) ~hi:(int n)
        ~state_tys:[ Types.Tint ] ~state:[ int 0 ]
        ~body:(fun i st continue ->
          match st with
          | [ acc ] ->
            ext Types.Tint "probe" [ i ] (fun r ->
                add acc r (fun acc' -> continue [ acc' ]))
          | _ -> assert false)
        ~after:(fun st ->
          match st with [ acc ] -> exit_ acc | _ -> assert false)
    in
    prog [ loop; func "main" [] (fun _ -> entry) ])

(* A host whose one extern, [probe], returns its argument times [k]. *)
let probe_handler k =
  Vm.Extern.(
    handler
      (table
         [ ext "probe" [ Types.Tint ] Types.Tint (fun () _ -> function
             | [ Value.Vint n ] -> Value.Vint (k * n)
             | _ -> bad_arguments ()) ])
      ())

(* [h] with its calls and binds counted. *)
let counted (h : Vm.Process.handler) =
  let calls = ref 0 and binds = ref 0 in
  ( {
      Vm.Process.call =
        (fun proc name args ->
          incr calls;
          h.Vm.Process.call proc name args);
      bind =
        (fun name ->
          incr binds;
          h.Vm.Process.bind name);
    },
    calls,
    binds )

(* Compiled code resolves each extern site once per emulator: a loop
   that calls [probe] 1000 times binds it once in each of two emulators
   sharing one compiled image, and never dispatches by name.  The
   Baseline tier dispatches by name on every call. *)
let test_extern_bound_once () =
  let program = probe_loop 1000 in
  let image = Vm.Codegen.compile ~arch:Vm.Arch.cisc32 program in
  let compiled = Vm.Compile.compile_masm image in
  check_int "one extern site" 1 compiled.Vm.Compile.c_ext_sites;
  let h, calls, binds = counted (probe_handler 1) in
  let run mode =
    let proc = Vm.Process.create program in
    let emu = Vm.Emulator.create ~mode ~compiled image proc in
    exit_code (Vm.Emulator.run ~extern:h emu)
  in
  check_int "first emulator's sum" 499500 (run Vm.Emulator.Compiled);
  check_int "second emulator's sum" 499500 (run Vm.Emulator.Compiled);
  check_int "one bind per emulator" 2 !binds;
  check_int "no call by name" 0 !calls;
  check_int "Baseline's sum" 499500 (run Vm.Emulator.Baseline);
  check_int "Baseline calls by name" 1000 !calls;
  check_int "Baseline binds nothing" 2 !binds

(* Two hosts over different tables share one compiled image, each
   reaching its own entry; an emulator whose handler switches mid-run
   binds again under the new one, and ends exactly as the Baseline tier
   (which resolves every call) does under the same switch. *)
let test_extern_handlers_share_image () =
  let program = probe_loop 10 in
  let image = Vm.Codegen.compile ~arch:Vm.Arch.cisc32 program in
  let compiled = Vm.Compile.compile_masm image in
  let run ?(mode = Vm.Emulator.Compiled) ?(switch_after = max_int) first
      second =
    let proc = Vm.Process.create program in
    let emu = Vm.Emulator.create ~mode ~compiled image proc in
    let n = ref 0 in
    while proc.Vm.Process.status = Vm.Process.Running && !n < switch_after do
      Vm.Emulator.step ~extern:first emu;
      incr n
    done;
    exit_code (Vm.Emulator.run ~extern:second emu)
  in
  let one = probe_handler 1 and two = probe_handler 2 in
  check_int "the first host's entry" 45 (run one one);
  check_int "the second host's entry" 90 (run two two);
  let two', _, binds = counted two in
  let switched = run ~switch_after:6 one two' in
  check_int "the switch binds again" 1 !binds;
  check "the switch is seen" true (switched > 45 && switched < 90);
  check_int "as Baseline under the same switch" switched
    (run ~mode:Vm.Emulator.Baseline ~switch_after:6 one two)

let suites =
  [
    ( "vm.interp",
      [
        Alcotest.test_case "example programs" `Quick test_interp_programs;
        Alcotest.test_case "print externs" `Quick test_interp_output;
        Alcotest.test_case "optimizer preserves semantics" `Quick
          test_interp_optimized_agrees;
        Alcotest.test_case "seeded rand determinism" `Quick
          test_rand_deterministic;
      ] );
    ( "vm.traps",
      [
        Alcotest.test_case "division by zero" `Quick test_trap_div_zero;
        Alcotest.test_case "nil dereference" `Quick test_trap_nil_deref;
        Alcotest.test_case "out-of-bounds store" `Quick
          test_trap_out_of_bounds;
        Alcotest.test_case "negative array size" `Quick
          test_trap_negative_array;
        Alcotest.test_case "commit without speculation" `Quick
          test_trap_bad_commit;
        Alcotest.test_case "forged pointer" `Quick test_trap_pointer_forge;
      ] );
    ( "vm.migration",
      [
        Alcotest.test_case "request surfaces live state" `Quick
          test_migrate_request;
        Alcotest.test_case "completed migration terminates source" `Quick
          test_migrate_completed;
      ] );
    ( "vm.gc",
      [
        Alcotest.test_case "collections during execution" `Quick
          test_gc_under_execution;
        Alcotest.test_case "rollback across collections" `Quick
          test_gc_during_speculation_run;
      ] );
    ( "vm.emulator",
      [
        Alcotest.test_case "matches interpreter" `Quick
          test_emulator_matches_interp;
        Alcotest.test_case "output matches" `Quick
          test_emulator_output_matches;
        Alcotest.test_case "traps match" `Quick test_emulator_traps_match;
        Alcotest.test_case "compiled mode = baseline mode" `Quick
          test_emulator_modes_equivalent;
        Alcotest.test_case "migration from compiled code" `Quick
          test_emulator_migration;
        Alcotest.test_case "arch mismatch rejected" `Quick
          test_emulator_arch_mismatch;
        Alcotest.test_case "spill paths" `Quick test_spill_paths;
        Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting;
        Alcotest.test_case "context switch cost" `Quick
          test_context_switch_cost;
        Alcotest.test_case "pass-through: minic loop" `Quick
          test_passthrough_minic_loop;
        Alcotest.test_case "pass-through: rejected sites" `Quick
          test_passthrough_rejected;
        Alcotest.test_case "pass-through: cont rewrites" `Quick
          test_passthrough_cont_rewrites;
        Alcotest.test_case "pass-through: move of a running loop" `Quick
          test_passthrough_move_running;
        Alcotest.test_case "externs bind once per site and emulator" `Quick
          test_extern_bound_once;
        Alcotest.test_case "handlers share one compiled image" `Quick
          test_extern_handlers_share_image;
      ] );
    ( "vm.masm",
      [
        Alcotest.test_case "codec round-trip" `Quick test_masm_roundtrip;
        Alcotest.test_case "corruption detected" `Quick test_masm_corrupt;
      ] );
  ]
