(* Tests for the mini-Pascal front-end: execution semantics (including
   Pascal's implicit real promotion and result-variable functions),
   rejection, both engines, the MCC primitives, and migration. *)

open Kit

let compile src =
  match Pascal.Driver.compile src with
  | Ok fir -> fir
  | Error e ->
    Alcotest.failf "compile failed: %s" (Pascal.Driver.error_to_string e)

let run_p src =
  let fir = compile src in
  let proc = Vm.Process.create fir in
  match Vm.Interp.run proc with
  | Vm.Process.Exited n -> n, Vm.Process.output proc
  | Vm.Process.Trapped m -> Alcotest.failf "trapped: %s" m
  | _ -> Alcotest.fail "did not exit"

let run_p_emu src =
  let fir = compile src in
  let proc = Vm.Process.create ~arch:Vm.Arch.risc64 fir in
  let emu =
    Vm.Emulator.create (Vm.Codegen.compile ~arch:Vm.Arch.risc64 fir) proc
  in
  match Vm.Emulator.run emu with
  | Vm.Process.Exited n -> n, Vm.Process.output proc
  | Vm.Process.Trapped m -> Alcotest.failf "emulator trapped: %s" m
  | _ -> Alcotest.fail "emulator did not exit"

let expect_error phase src =
  match Pascal.Driver.compile src with
  | Ok _ -> Alcotest.failf "expected a %s error" phase
  | Error e ->
    let got =
      match e.Pascal.Driver.err_phase with
      | `Lex -> "lex"
      | `Parse -> "parse"
      | `Translate -> "translate"
      | `C -> "c"
    in
    check_str "error phase" phase got

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let test_functions_and_results () =
  let n, out =
    run_p
      {|
program fibdemo;
var total: integer;

function fib(n: integer): integer;
begin
  if n < 2 then
    fib := n
  else
    fib := fib(n - 1) + fib(n - 2)
end;

begin
  total := fib(12);
  writeln('fib(12) = ', total);
  halt(total)
end.
|}
  in
  check_int "fib(12)" 144 n;
  check_str "writeln" "fib(12) = 144\n" out

let test_procedures () =
  let n, out =
    run_p
      {|
program procs;

procedure shout(x: integer; loud: boolean);
begin
  if loud then
    writeln(x * 10)
  else
    writeln(x)
end;

begin
  shout(4, true);
  shout(4, false);
  halt(0)
end.
|}
  in
  check_int "exit" 0 n;
  check_str "output" "40\n4\n" out

let test_loops_and_arrays () =
  let n, _ =
    run_p
      {|
program loops;
var i, acc: integer;
    a: array[0..9] of integer;
begin
  acc := 0;
  for i := 0 to 9 do
    a[i] := i * i;
  for i := 9 downto 0 do
    acc := acc + a[i];
  while acc mod 10 <> 5 do
    acc := acc - 1;
  halt(acc)
end.
|}
  in
  check_int "sum of squares" 285 n

let test_real_promotion () =
  let n, _ =
    run_p
      {|
program reals;
var x: real; n: integer;
begin
  x := 3 / 2;          { Pascal / is real division }
  x := x * 2.0 + 1;    { integer promoted }
  n := trunc(sqrt(16.0)) + trunc(x);
  halt(n)
end.
|}
  in
  check_int "promotion and real division" 8 n

let test_div_mod_booleans () =
  let n, _ =
    run_p
      {|
program dm;
var n: integer; ok: boolean;
begin
  n := 17 div 5 * 100 + 17 mod 5;
  ok := (n > 300) and not (n = 303) or false;
  if ok then
    halt(n)
  else
    halt(0 - n)
end.
|}
  in
  check_int "div/mod/booleans" 302 n

let test_open_array_params () =
  let n, _ =
    run_p
      {|
program openarr;
var data: array[0..4] of integer;
    i: integer;

function total(a: array of integer; n: integer): integer;
var i, acc: integer;
begin
  acc := 0;
  for i := 0 to n - 1 do
    acc := acc + a[i];
  total := acc
end;

begin
  for i := 0 to 4 do
    data[i] := i + 1;
  halt(total(data, 5))
end.
|}
  in
  check_int "open array parameter" 15 n

let test_abs_random () =
  let n, _ =
    run_p
      {|
program absr;
var a, b: integer;
begin
  a := abs(0 - 12) + abs(12);
  b := random(10);
  if (b >= 0) and (b < 10) then
    halt(a)
  else
    halt(0 - 1)
end.
|}
  in
  check_int "abs and random" 24 n

(* ------------------------------------------------------------------ *)
(* MCC primitives from Pascal                                          *)
(* ------------------------------------------------------------------ *)

let test_speculation_pascal () =
  let n, out =
    run_p
      {|
program spec;
var cell: array[0..0] of integer;
    specid: integer;
begin
  cell[0] := 5;
  specid := speculate;
  if specid > 0 then
  begin
    cell[0] := 99;
    abort(specid)
  end;
  writeln('restored: ', cell[0]);
  halt(cell[0])
end.
|}
  in
  check_int "rollback restored the array" 5 n;
  check_str "ran the abort path once" "restored: 5\n" out

let test_commit_pascal () =
  let n, _ =
    run_p
      {|
program spec2;
var cell: array[0..0] of integer;
    specid: integer;
begin
  specid := speculate;
  if specid > 0 then
  begin
    cell[0] := 77;
    commit(specid)
  end;
  halt(cell[0])
end.
|}
  in
  check_int "committed write survives" 77 n

let test_migration_pascal () =
  let fir =
    compile
      {|
program mig;
var data: array[0..49] of integer;
    i, acc: integer;
begin
  for i := 0 to 49 do
    data[i] := i;
  migrate('mcc://elsewhere');
  acc := 0;
  for i := 0 to 49 do
    acc := acc + data[i];
  halt(acc)
end.
|}
  in
  let proc = Vm.Process.create fir in
  (match Vm.Interp.run proc with
  | Vm.Process.Migrating req ->
    check_str "target" "mcc://elsewhere" req.Vm.Process.m_target
  | _ -> Alcotest.fail "expected a migration request");
  let packed = Migrate.Pack.pack_request proc in
  match
    Migrate.Pack.unpack ~arch:Vm.Arch.risc64 packed.Migrate.Pack.p_bytes
  with
  | Error m -> Alcotest.failf "unpack failed: %s" m
  | Ok (proc', masm, _linked, _) -> (
    let emu = Vm.Emulator.create masm proc' in
    match Vm.Emulator.run emu with
    | Vm.Process.Exited n ->
      check_int "Pascal process migrated heterogeneously" 1225 n
    | _ -> Alcotest.fail "resumed Pascal process failed")

(* ------------------------------------------------------------------ *)
(* Rejection                                                           *)
(* ------------------------------------------------------------------ *)

let test_errors () =
  expect_error "lex" "program p; begin halt(0) end. @";
  expect_error "lex" "program p; begin writeln('unterminated) end.";
  expect_error "parse" "program p; begin halt(0) end";
  expect_error "parse" "begin halt(0) end.";
  expect_error "translate" "program p; begin halt(x) end.";
  expect_error "translate"
    "program p; var x: integer; begin x := 1.5; halt(0) end.";
  expect_error "translate"
    "program p; var x: integer; begin if x then halt(0) end.";
  expect_error "translate"
    "program p; function f(n: integer): integer; begin f := n end; begin \
     halt(f(1, 2)) end.";
  expect_error "translate"
    "program p; procedure q; begin halt(0) end; begin q end.";
  (* array lower bounds must be 0 in the subset *)
  expect_error "parse"
    "program p; var a: array[1..5] of integer; begin halt(0) end."

(* ------------------------------------------------------------------ *)
(* Engines agree                                                       *)
(* ------------------------------------------------------------------ *)

let test_differential () =
  List.iter
    (fun src ->
      let ni, oi = run_p src in
      let ne, oe = run_p_emu src in
      check_int "interp = emulator" ni ne;
      check_str "output matches" oi oe)
    [
      {|
program a;
var i, acc: integer;
begin
  acc := 1;
  for i := 1 to 10 do acc := acc * 2 mod 1000;
  halt(acc)
end.
|};
      {|
program b;
function gcd(a: integer; b: integer): integer;
begin
  if b = 0 then gcd := a else gcd := gcd(b, a mod b)
end;
begin
  halt(gcd(462, 1071))
end.
|};
    ]

let test_api_integration () =
  match Mcc.Api.compile_pascal "program p; begin halt(41 + 1) end." with
  | Error m -> Alcotest.failf "Api.compile_pascal: %s" m
  | Ok fir ->
    check "runs through the facade" true
      (Mcc.Api.exit_code (Mcc.Api.run fir) = Ok 42)

let suites =
  [
    ( "pascal.exec",
      [
        Alcotest.test_case "functions and result assignment" `Quick
          test_functions_and_results;
        Alcotest.test_case "procedures" `Quick test_procedures;
        Alcotest.test_case "for/while and arrays" `Quick
          test_loops_and_arrays;
        Alcotest.test_case "real promotion and / division" `Quick
          test_real_promotion;
        Alcotest.test_case "div/mod and booleans" `Quick
          test_div_mod_booleans;
        Alcotest.test_case "open array parameters" `Quick
          test_open_array_params;
        Alcotest.test_case "abs and random" `Quick test_abs_random;
      ] );
    ( "pascal.primitives",
      [
        Alcotest.test_case "speculate/abort" `Quick test_speculation_pascal;
        Alcotest.test_case "commit" `Quick test_commit_pascal;
        Alcotest.test_case "heterogeneous migration" `Quick
          test_migration_pascal;
      ] );
    ("pascal.reject", [ Alcotest.test_case "errors" `Quick test_errors ]);
    ( "pascal.engines",
      [
        Alcotest.test_case "interp = emulator" `Quick test_differential;
        Alcotest.test_case "facade integration" `Quick test_api_integration;
      ] );
  ]
