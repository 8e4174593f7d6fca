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

let test_emulator_modes_equivalent () =
  let status_repr = function
    | Vm.Process.Exited n -> Printf.sprintf "exited %d" n
    | Vm.Process.Trapped m -> "trapped: " ^ m
    | Vm.Process.Migrating r -> "migrating to " ^ r.Vm.Process.m_target
    | Vm.Process.Running -> "running"
  in
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
      ] );
    ( "vm.masm",
      [
        Alcotest.test_case "codec round-trip" `Quick test_masm_roundtrip;
        Alcotest.test_case "corruption detected" `Quick test_masm_corrupt;
      ] );
  ]
