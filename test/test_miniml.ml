(* Tests for the mini-ML front-end: parsing, Hindley-Milner inference,
   closure-converted CPS lowering, execution on both engines, and the
   language-neutrality of the FIR (ML images serialize and migrate
   exactly like C ones). *)

open Kit

let compile src =
  match Miniml.Driver.compile src with
  | Ok fir -> fir
  | Error e ->
    Alcotest.failf "compile failed: %s" (Miniml.Driver.error_to_string e)

let run_ml src =
  let fir = compile src in
  let proc = Vm.Process.create fir in
  match Vm.Interp.run proc with
  | Vm.Process.Exited n -> n, Vm.Process.output proc
  | Vm.Process.Trapped m -> Alcotest.failf "trapped: %s" m
  | _ -> Alcotest.fail "did not exit"

let run_ml_emu ?(arch = Vm.Arch.risc64) src =
  let fir = compile src in
  let proc = Vm.Process.create ~arch fir in
  let emu = Vm.Emulator.create (Vm.Codegen.compile ~arch fir) proc in
  match Vm.Emulator.run emu with
  | Vm.Process.Exited n -> n, Vm.Process.output proc
  | Vm.Process.Trapped m -> Alcotest.failf "emulator trapped: %s" m
  | _ -> Alcotest.fail "emulator did not exit"

let expect_error phase src =
  match Miniml.Driver.compile src with
  | Ok _ -> Alcotest.failf "expected a %s error" phase
  | Error e ->
    let got =
      match e.Miniml.Driver.err_phase with
      | `Parse -> "parse"
      | `Type -> "type"
      | `Lower -> "lower"
      | `Fir -> "fir"
    in
    check_str "error phase" phase got

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let test_basics () =
  check_int "arith" 14 (fst (run_ml "let main = 2 + 3 * 4"));
  check_int "if" 10 (fst (run_ml "let main = if 2 < 3 then 10 else 20"));
  check_int "let" 25 (fst (run_ml "let main = let x = 5 in x * x"));
  check_int "nested let" 11
    (fst (run_ml "let main = let x = 5 in let y = 6 in x + y"))

let test_factorial () =
  let n, out =
    run_ml
      {|
let rec fact n = if n <= 1 then 1 else n * fact (n - 1)
let main = print_int (fact 10); print_newline (); fact 6
|}
  in
  check_int "fact 6" 720 n;
  check_str "fact 10 printed" "3628800\n" out

let test_fib () =
  check_int "fib 15" 610
    (fst
       (run_ml
          {|
let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
let main = fib 15
|}))

let test_closures () =
  check_int "adder" 16
    (fst
       (run_ml
          {|
let make_adder x = fun y -> x + y
let add3 = make_adder 3
let twice f = fun x -> f (f x)
let main = twice add3 10
|}));
  check_int "capture chain" 60
    (fst
       (run_ml
          {|
let f a = fun b -> fun c -> a * b + c
let main = f 5 11 5
|}))

let test_higher_order () =
  let n, out =
    run_ml
      {|
let rec iter f = fun lo -> fun hi ->
  if lo >= hi then () else (f lo; iter f (lo + 1) hi)
let main = iter print_int 0 5; 42
|}
  in
  check_int "iter result" 42 n;
  check_str "iter output" "01234" out

let test_let_polymorphism () =
  (* id used at int and at (int -> int) *)
  check_int "polymorphic id" 8
    (fst
       (run_ml
          {|
let id x = x
let inc x = x + 1
let main = id inc (id 7)
|}))

let test_currying_partial () =
  check_int "partial application" 30
    (fst
       (run_ml
          {|
let mul a b = a * b
let times5 = mul 5
let main = times5 6
|}))

let test_shadowing () =
  check_int "shadowing" 3
    (fst (run_ml "let main = let x = 1 in let x = x + 2 in x"))

let test_bool_ops () =
  check_int "bool ops" 1
    (fst
       (run_ml
          "let main = if (2 < 3 && 4 >= 4) || false then 1 else 0"))

let test_sequencing_effects () =
  let _, out =
    run_ml
      {|
let main = print_int 1; print_int 2; print_newline (); print_bool (1 = 1); 0
|}
  in
  check_str "ordered effects" "12\n1" out

let test_recursion_deep () =
  (* deep tail recursion: CPS means constant stack, heap cells per call *)
  check_int "count to 50000" 50000
    (fst
       (run_ml
          {|
let rec count n = if n >= 50000 then n else count (n + 1)
let main = count 0
|}))

let test_mutual_via_closures () =
  check_int "even/odd via closure dispatch" 1
    (fst
       (run_ml
          {|
let rec even n = if n = 0 then true else (if n = 1 then false else even (n - 2))
let main = if even 10 then 1 else 0
|}))

(* ------------------------------------------------------------------ *)
(* Rejection                                                           *)
(* ------------------------------------------------------------------ *)

let test_errors () =
  expect_error "parse" "let main = (1 + ";
  expect_error "parse" "main = 3";
  expect_error "type" "let main = x";
  expect_error "type" "let main = 1 + true";
  expect_error "type" "let main = if 1 then 2 else 3";
  expect_error "type" "let main = (fun x -> x x) 1";
  expect_error "type" "let f x = x + 1 let main = f true"

(* ------------------------------------------------------------------ *)
(* Engines and language neutrality                                     *)
(* ------------------------------------------------------------------ *)

let differential =
  [
    "let rec fact n = if n <= 1 then 1 else n * fact (n - 1)\nlet main = fact 8";
    "let make a = fun b -> a - b\nlet main = make 100 58";
    "let rec sum n = if n = 0 then 0 else n + sum (n - 1)\nlet main = sum 100";
  ]

let test_differential () =
  List.iter
    (fun src ->
      let ni, oi = run_ml src in
      let ne, oe = run_ml_emu src in
      check_int "interp = emulator" ni ne;
      check_str "output matches" oi oe)
    differential

let test_ml_fir_serializes () =
  (* the FIR produced from ML round-trips the canonical codec and is
     accepted by the strict (migration-server) typechecker *)
  List.iter
    (fun src ->
      let fir = compile src in
      check "strict typecheck" true
        (Fir.Typecheck.well_typed ~strict:true ~externs:Vm.Extern.signatures
           fir);
      let fir' = Fir.Serial.decode (Fir.Serial.encode fir) in
      let proc = Vm.Process.create fir' in
      match Vm.Interp.run proc with
      | Vm.Process.Exited _ -> ()
      | _ -> Alcotest.fail "decoded ML image did not run")
    differential

let test_ml_on_cluster () =
  (* an ML process and a C process coexist on the simulated cluster *)
  let ml =
    compile "let rec sum n = if n = 0 then 0 else n + sum (n - 1)\nlet main = sum 10"
  in
  let c =
    match Minic.Driver.compile "int main() { return 55; }" with
    | Ok fir -> fir
    | Error _ -> Alcotest.fail "C compile failed"
  in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let p1 = Net.Cluster.spawn cluster ~node_id:0 ml in
  let p2 = Net.Cluster.spawn cluster ~node_id:1 c in
  let _ = Net.Cluster.run cluster in
  let status pid =
    match Net.Cluster.entry_of_pid cluster pid with
    | Some e -> e.Net.Cluster.proc.Vm.Process.status
    | None -> Alcotest.fail "pid lost"
  in
  check "ML process" true (status p1 = Vm.Process.Exited 55);
  check "C process" true (status p2 = Vm.Process.Exited 55)

let suites =
  [
    ( "miniml.exec",
      [
        Alcotest.test_case "basics" `Quick test_basics;
        Alcotest.test_case "factorial" `Quick test_factorial;
        Alcotest.test_case "fibonacci" `Quick test_fib;
        Alcotest.test_case "closures" `Quick test_closures;
        Alcotest.test_case "higher-order functions" `Quick test_higher_order;
        Alcotest.test_case "let polymorphism" `Quick test_let_polymorphism;
        Alcotest.test_case "currying" `Quick test_currying_partial;
        Alcotest.test_case "shadowing" `Quick test_shadowing;
        Alcotest.test_case "booleans" `Quick test_bool_ops;
        Alcotest.test_case "effect ordering" `Quick test_sequencing_effects;
        Alcotest.test_case "deep recursion" `Quick test_recursion_deep;
        Alcotest.test_case "conditional recursion" `Quick
          test_mutual_via_closures;
      ] );
    ("miniml.reject", [ Alcotest.test_case "errors" `Quick test_errors ]);
    ( "miniml.neutrality",
      [
        Alcotest.test_case "interp = emulator" `Quick test_differential;
        Alcotest.test_case "FIR serializes and re-verifies" `Quick
          test_ml_fir_serializes;
        Alcotest.test_case "ML and C share the cluster" `Quick
          test_ml_on_cluster;
      ] );
  ]
