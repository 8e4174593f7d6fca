(* Tests for the mini-C front-end: lexing, parsing, typechecking, CPS
   lowering, execution on both engines, the speculation/migration
   builtins, and interop with the simulated cluster. *)

open Kit

let compile src =
  match Minic.Driver.compile src with
  | Ok fir -> fir
  | Error e -> Alcotest.failf "compile failed: %s" (Minic.Driver.error_to_string e)

let run_c ?seed src =
  let fir = compile src in
  let proc = Vm.Process.create ?seed fir in
  match Vm.Interp.run proc with
  | Vm.Process.Exited n -> n, Vm.Process.output proc
  | Vm.Process.Trapped m -> Alcotest.failf "trapped: %s" m
  | _ -> Alcotest.fail "did not exit"

let run_c_emu ?(arch = Vm.Arch.cisc32) src =
  let fir = compile src in
  let proc = Vm.Process.create ~arch fir in
  let emu = Vm.Emulator.create (Vm.Codegen.compile ~arch fir) proc in
  match Vm.Emulator.run emu with
  | Vm.Process.Exited n -> n, Vm.Process.output proc
  | Vm.Process.Trapped m -> Alcotest.failf "emulator trapped: %s" m
  | _ -> Alcotest.fail "emulator did not exit"

let expect_error phase src =
  match Minic.Driver.compile src with
  | Ok _ -> Alcotest.failf "expected a %s error" phase
  | Error e ->
    let got =
      match e.Minic.Driver.err_phase with
      | `Lex -> "lex"
      | `Parse -> "parse"
      | `Type -> "type"
      | `Lower -> "lower"
      | `Fir -> "fir"
    in
    check_str "error phase" phase got

(* ------------------------------------------------------------------ *)
(* Basic programs                                                      *)
(* ------------------------------------------------------------------ *)

let test_arith () =
  let n, _ = run_c "int main() { return 2 + 3 * 4 - 20 / 4 % 3; }" in
  check_int "precedence" 12 n;
  let n, _ = run_c "int main() { return (2 + 3) * 4; }" in
  check_int "parens" 20 n;
  let n, _ = run_c "int main() { return 1 << 5 | 3 & 1; }" in
  check_int "bit ops" 33 n;
  let n, _ = run_c "int main() { return -7; }" in
  check_int "unary minus" (-7) n

let test_float () =
  let n, out =
    run_c
      {|
int main() {
  float x = 1.5;
  float y = x * 4.0 + 0.25;
  print_float(y); print_nl();
  float r = sqrtf(16.0);
  return (int)(y + r);
}
|}
  in
  check_int "float compute" 10 n;
  check_str "float output" "6.25\n" out

let test_comparisons_are_ints () =
  let n, _ =
    run_c "int main() { return (3 < 4) + (4 < 3) + (2 == 2) * 10; }"
  in
  check_int "0/1 comparisons" 11 n

let test_logical () =
  let n, _ =
    run_c
      "int main() { return (1 && 2) + (0 || 5 > 2) * 10 + (!0) * 100 + (!7) \
       * 1000; }"
  in
  check_int "logical ops" 111 n

let test_while_break_continue () =
  let n, _ =
    run_c
      {|
int main() {
  int i = 0;
  int acc = 0;
  while (1) {
    i = i + 1;
    if (i > 100) break;
    if (i % 2 == 0) continue;
    acc = acc + i;
  }
  return acc; // 1 + 3 + ... + 99 = 2500
}
|}
  in
  check_int "while with break/continue" 2500 n

let test_for_loop () =
  let n, _ =
    run_c
      {|
int main() {
  int acc = 0;
  int i;
  for (i = 0; i < 10; i = i + 1) acc = acc + i * i;
  return acc;
}
|}
  in
  check_int "for loop" 285 n

let test_nested_loops () =
  let n, _ =
    run_c
      {|
int main() {
  int total = 0;
  int i; int j;
  for (i = 0; i < 5; i = i + 1) {
    for (j = 0; j < 5; j = j + 1) {
      if (j > i) break;
      total = total + 1;
    }
  }
  return total; // 1+2+3+4+5
}
|}
  in
  check_int "nested loops with break" 15 n

let test_recursion () =
  let n, _ =
    run_c
      {|
int ack(int m, int n) {
  if (m == 0) return n + 1;
  if (n == 0) return ack(m - 1, 1);
  return ack(m - 1, ack(m, n - 1));
}
int main() { return ack(2, 3); }
|}
  in
  check_int "ackermann(2,3)" 9 n

let test_nested_call_args () =
  (* nested calls in argument positions exercise the temp-spilling rules *)
  let n, _ =
    run_c
      {|
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int main() {
  return add(mul(2, add(1, 2)), add(mul(3, 4), mul(add(1, 1), 5)));
}
|}
  in
  check_int "deeply nested calls" 28 n

let test_pointers () =
  let n, _ =
    run_c
      {|
int sum(int *a, int n) {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) acc = acc + a[i];
  return acc;
}
int main() {
  int *a = alloc_int(10);
  int i;
  for (i = 0; i < 10; i = i + 1) a[i] = i * i;
  int *p = a + 5;
  return sum(a, 10) + p[0];
}
|}
  in
  check_int "arrays and pointer arithmetic" (285 + 25) n

let test_strings () =
  let n, out =
    run_c
      {|
int main() {
  char *s = "hi\n";
  print_str(s);
  print_str("bye");
  return s[0]; // 'h' = 104
}
|}
  in
  check_int "string byte read" 104 n;
  check_str "string output" "hi\nbye" out

let test_void_functions () =
  let n, out =
    run_c
      {|
void shout(int x) {
  print_int(x);
  print_nl();
}
int main() {
  shout(7);
  shout(8);
  return 0;
}
|}
  in
  check_int "void call" 0 n;
  check_str "void output" "7\n8\n" out

let test_uninitialized_defaults () =
  let n, _ =
    run_c "int main() { int x; float f; return x + (int)f; }"
  in
  check_int "locals default to zero" 0 n

let test_rand_seeded () =
  let src = "int main() { return rand(1000) * 1000 + rand(1000); }" in
  let a, _ = run_c ~seed:3 src in
  let b, _ = run_c ~seed:3 src in
  let c, _ = run_c ~seed:4 src in
  check "deterministic per seed" true (a = b);
  check "seed matters" true (a <> c)

(* ------------------------------------------------------------------ *)
(* Rejection                                                           *)
(* ------------------------------------------------------------------ *)

let test_errors () =
  expect_error "lex" "int main() { return 1; } @";
  expect_error "lex" "int main() { char *s = \"unterminated; }";
  expect_error "parse" "int main() { return 1 }";
  expect_error "parse" "int main( { return 1; }";
  expect_error "type" "int main() { return x; }";
  expect_error "type" "int main() { int x = 1.5; return 0; }";
  expect_error "type" "int main() { int x; int x; return 0; }";
  expect_error "type" "int main() { break; }";
  expect_error "type" "int f() { return 0; } int main() { return f(1); }";
  expect_error "type" "float main() { return 0.0; }";
  expect_error "type" "int main() { return undefined_fun(3); }";
  expect_error "type" "int main() { if (1.5) return 1; return 0; }";
  expect_error "type" "void f() {} int main() { return 1 + f(); }"

let test_runtime_safety () =
  (* out-of-bounds access traps instead of corrupting memory *)
  let fir = compile "int main() { int *a = alloc_int(2); return a[5]; }" in
  let proc = Vm.Process.create fir in
  (match Vm.Interp.run proc with
  | Vm.Process.Trapped _ -> ()
  | _ -> Alcotest.fail "out-of-bounds read did not trap");
  let fir = compile "int main() { int *p; return p[0]; }" in
  let proc = Vm.Process.create fir in
  match Vm.Interp.run proc with
  | Vm.Process.Trapped _ -> ()
  | _ -> Alcotest.fail "null dereference did not trap"

(* ------------------------------------------------------------------ *)
(* Speculation from C (Figure 1 semantics)                             *)
(* ------------------------------------------------------------------ *)

let test_speculate_abort () =
  let n, out =
    run_c
      {|
int main() {
  int *cell = alloc_int(1);
  cell[0] = 5;
  int specid = speculate();
  if (specid > 0) {
    cell[0] = 99;
    abort(specid);
    return 111; // unreachable
  }
  print_str("rolled back"); print_nl();
  return cell[0] * 10 + (0 - specid); // specid = -level on re-entry
}
|}
  in
  check_int "write undone, re-entry code visible" 51 n;
  check_str "abort path runs once" "rolled back\n" out

let test_speculate_commit () =
  let n, _ =
    run_c
      {|
int main() {
  int *cell = alloc_int(1);
  int specid = speculate();
  if (specid > 0) {
    cell[0] = 77;
    commit(specid);
  }
  return cell[0];
}
|}
  in
  check_int "committed write survives" 77 n

let test_nested_speculation_c () =
  let n, _ =
    run_c
      {|
int main() {
  int *cell = alloc_int(1);
  cell[0] = 1;
  int outer = speculate();
  if (outer > 0) {
    cell[0] = 2;
    int inner = speculate();
    if (inner > 0) {
      cell[0] = 3;
      commit(inner);       // folds into outer
      abort(outer);        // undoes BOTH writes
      return 111;
    }
    return 222; // inner abort: not taken
  }
  return cell[0] * 100; // outer re-entry: cell restored to 1
}
|}
  in
  check_int "nested commit-then-abort" 100 n

(* Retried state rolls back, so a retry counter must be threaded through
   the rollback code (the paper: "this is currently the only way to carry
   state information across a rollback"). *)
let test_retry_loop () =
  let n, _ =
    run_c
      {|
int main() {
  int specid = speculate();
  // on re-entry specid is -level; use it as the retry counter's sign
  if (specid > 0) {
    abort(specid); // first pass always aborts
  }
  // second pass: specid < 0
  commit(0 - specid);
  return 0 - specid;
}
|}
  in
  check_int "rollback code carries state" 1 n

let test_speculation_with_gc_c () =
  (* allocate heavily inside a speculation, then abort: dirty state must
     be restored even across collections *)
  let n, _ =
    run_c
      {|
int main() {
  int *data = alloc_int(50);
  int i;
  for (i = 0; i < 50; i = i + 1) data[i] = i;
  int specid = speculate();
  if (specid > 0) {
    for (i = 0; i < 50; i = i + 1) data[i] = 0 - 1;
    int j;
    for (j = 0; j < 20000; j = j + 1) {
      int *junk = alloc_int(4);
      junk[0] = j;
    }
    abort(specid);
  }
  int acc = 0;
  for (i = 0; i < 50; i = i + 1) acc = acc + data[i];
  return acc; // 0+1+...+49
}
|}
  in
  check_int "rollback across GC pressure" 1225 n

(* ------------------------------------------------------------------ *)
(* Migration from C                                                    *)
(* ------------------------------------------------------------------ *)

let test_migrate_roundtrip_c () =
  let fir =
    compile
      {|
int main() {
  int *data = alloc_int(100);
  int i;
  for (i = 0; i < 100; i = i + 1) data[i] = i;
  int before = data[99];
  migrate("mcc://other");
  // resumes here on the target with all locals intact
  int acc = 0;
  for (i = 0; i < 100; i = i + 1) acc = acc + data[i];
  return acc + before;
}
|}
  in
  let proc = Vm.Process.create fir in
  (match Vm.Interp.run proc with
  | Vm.Process.Migrating req ->
    check_str "target" "mcc://other" req.Vm.Process.m_target
  | _ -> Alcotest.fail "expected a migration request");
  let packed = Migrate.Pack.pack_request proc in
  (match
     Migrate.Pack.unpack ~arch:Vm.Arch.risc64 packed.Migrate.Pack.p_bytes
   with
  | Error m -> Alcotest.failf "unpack failed: %s" m
  | Ok (proc', masm, _linked, _) ->
    let emu = Vm.Emulator.create masm proc' in
    (match Vm.Emulator.run emu with
    | Vm.Process.Exited n ->
      check_int "C locals survive heterogeneous migration" (4950 + 99) n
    | Vm.Process.Trapped m -> Alcotest.failf "resumed process trapped: %s" m
    | _ -> Alcotest.fail "resumed process did not exit"));
  (* and the failure path continues locally *)
  Vm.Process.migration_failed proc;
  match Vm.Interp.run proc with
  | Vm.Process.Exited n -> check_int "local continuation" (4950 + 99) n
  | _ -> Alcotest.fail "local continuation failed"

(* ------------------------------------------------------------------ *)
(* Engines agree                                                       *)
(* ------------------------------------------------------------------ *)

let differential_programs =
  [
    "int main() { return 2 + 3 * 4; }";
    "int f(int x) { return x * x; } int main() { return f(f(3)); }";
    {|
int main() {
  int *a = alloc_int(20);
  int i;
  for (i = 0; i < 20; i = i + 1) a[i] = i * 3;
  int acc = 0;
  for (i = 0; i < 20; i = i + 1) acc = acc + a[i];
  return acc;
}
|};
    {|
int main() {
  int *cell = alloc_int(1);
  cell[0] = 5;
  int s = speculate();
  if (s > 0) { cell[0] = 9; abort(s); }
  return cell[0];
}
|};
  ]

let test_differential () =
  List.iter
    (fun src ->
      let ni, oi = run_c src in
      let ne, oe = run_c_emu src in
      check_int "interp = emulator (exit)" ni ne;
      check_str "interp = emulator (output)" oi oe;
      let nr, _ = run_c_emu ~arch:Vm.Arch.risc64 src in
      check_int "cisc32 = risc64" ni nr)
    differential_programs

(* ------------------------------------------------------------------ *)
(* Values the lowering keeps in FIR variables                          *)
(* ------------------------------------------------------------------ *)

(* Within one straight-line segment the lowering reuses the value a
   local's cell was just given or read instead of loading it again; each
   program here reads a local after a point where that value must have
   been dropped (a control transfer, a rollback, a migration).  Every
   program runs on the interpreter and on MASM with a pinned result. *)
let both_engines name src want_exit want_out =
  let ni, oi = run_c src in
  let ne, oe = run_c_emu src in
  check_int (name ^ ": interp exit") want_exit ni;
  check_str (name ^ ": interp output") want_out oi;
  check_int (name ^ ": MASM exit") want_exit ne;
  check_str (name ^ ": MASM output") want_out oe

let test_forward_speculation_reentry () =
  (* the store and its forwarded read happen inside the speculation; the
     re-entered continuation must load the rolled-back cell *)
  both_engines "store in an aborted speculation"
    {|
int main() {
  int x = 5;
  int s = speculate();
  if (s > 0) {
    x = x + 4;
    print_int(x * 10);
    abort(s);
  }
  commit(0 - s);
  return x;
}
|}
    5 "90"

let test_forward_migrate () =
  let src =
    {|
int main() {
  int x = 6;
  x = x * 7;
  migrate("mcc://other");
  return x + 1;
}
|}
  in
  let fir = compile src in
  (* interpreter source, MASM target; then MASM source, interpreter
     target *)
  let hop ~run_source ~run_target =
    let proc = Vm.Process.create fir in
    (match run_source proc with
    | Vm.Process.Migrating _ -> ()
    | _ -> Alcotest.fail "expected a migration request");
    let packed = Migrate.Pack.pack_request proc in
    match
      Migrate.Pack.unpack ~arch:Vm.Arch.risc64 packed.Migrate.Pack.p_bytes
    with
    | Error m -> Alcotest.failf "unpack failed: %s" m
    | Ok (proc', masm, _linked, _) -> run_target proc' masm
  in
  let emu_run proc =
    Vm.Emulator.run (Vm.Emulator.create (Vm.Codegen.compile fir) proc)
  in
  let on_masm proc masm = Vm.Emulator.run (Vm.Emulator.create masm proc) in
  let on_interp proc _ = Vm.Interp.run proc in
  check "interp -> MASM: the stored value crosses" true
    (hop ~run_source:Vm.Interp.run ~run_target:on_masm = Vm.Process.Exited 43);
  check "MASM -> interp: the stored value crosses" true
    (hop ~run_source:emu_run ~run_target:on_interp = Vm.Process.Exited 43)

let test_forward_loop_carried () =
  both_engines "loop-carried local"
    {|
int main() {
  int acc = 1;
  int sum = 0;
  int i = 0;
  while (i < 5) {
    acc = acc * 2 + i;
    sum = sum + acc;
    i = i + 1;
  }
  return acc * 1000 + sum;
}
|}
    (* acc 1 -> 2 -> 5 -> 12 -> 27 -> 58; sum 104 *)
    58104 ""

let test_forward_if_join () =
  both_engines "written in one arm, read after the join"
    {|
int main() {
  int x = 1;
  int c = 3;
  if (c > 2) { x = 10; }
  int y = x;
  if (c > 5) { x = 20; } else { c = x + c; }
  return x * 100 + y + c;
}
|}
    1023 ""

let test_forward_call () =
  (* the callee's locals live in cells of their own; the caller's value
     stored before the call is read back after it *)
  both_engines "survives a non-tail call"
    {|
int twice(int x) {
  x = x * 2;
  return x;
}
int main() {
  int x = 7;
  int y = twice(x + 1);
  return x * 100 + y;
}
|}
    716 ""

let test_forward_extern () =
  both_engines "store, extern call, read"
    {|
int main() {
  int x = 3;
  x = x + 4;
  print_int(x);
  print_nl();
  int *a = alloc_int(2);
  a[0] = x;
  x = a[0] * 2;
  print_int(x);
  return x + a[0];
}
|}
    21 "7\n14"

(* The expressions that follow [e] directly: one for a let or store,
   the arms of a branch, none for a transfer of control. *)
let next_exps =
  let module A = Fir.Ast in
  function
  | A.Let_atom (_, _, _, e)
  | A.Let_cast (_, _, _, e)
  | A.Let_unop (_, _, _, _, e)
  | A.Let_binop (_, _, _, _, _, e)
  | A.Let_tuple (_, _, e)
  | A.Let_array (_, _, _, _, e)
  | A.Let_string (_, _, e)
  | A.Let_proj (_, _, _, _, e)
  | A.Set_proj (_, _, _, e)
  | A.Let_load (_, _, _, _, e)
  | A.Store (_, _, _, e)
  | A.Let_ext (_, _, _, _, e) ->
    [ e ]
  | A.If (_, a, b) -> [ a; b ]
  | A.Switch (_, cases, d) -> d :: List.map snd cases
  | A.Call _ | A.Exit _ | A.Migrate _ | A.Speculate _ | A.Commit _
  | A.Rollback _ ->
    []

(* The most times any one slot of [frame] is projected on a single path
   through [e] that goes around the loop: one that ends in a tail call
   to [self].  The exit path is left out: it runs once, after the loop's
   join, which projects afresh. *)
let max_projections_per_iteration ~self frame e =
  let rec worst counts most e =
    let counts, most =
      match e with
      | Fir.Ast.Let_proj (_, _, Fir.Ast.Var f, i, _)
        when Fir.Var.equal f frame ->
        let n = 1 + Option.value ~default:0 (List.assoc_opt i counts) in
        (i, n) :: counts, max most n
      | _ -> counts, most
    in
    match e with
    | Fir.Ast.Call (Fir.Ast.Fun f, _) when String.equal f self -> most
    | _ ->
      List.fold_left (fun acc e -> max acc (worst counts most e)) 0
        (next_exps e)
  in
  worst [] 0 e

let rec calls_extern name e =
  match e with
  | Fir.Ast.Let_ext (_, _, n, _, _) when String.equal n name -> true
  | _ -> List.exists (calls_extern name) (next_exps e)

let param_names fd = List.map (fun (v, _) -> Fir.Var.name v) fd.Fir.Ast.f_params

let serve_config speculative =
  { Mcc.Serve.clients = 8; services = 4; requests_per_client = 150;
    work_us = 5; skew = false; speculative }

let test_serve_loop_projections () =
  (* perfbench's serve shape: the service's receive loop is one FIR
     function that takes the activation's frame *)
  let fir = compile (Mcc.Serve.service_source (serve_config false) 0) in
  let loops =
    Fir.Ast.fold_funs
      (fun fd acc ->
        if calls_extern "msg_try_recv_any" fd.Fir.Ast.f_body then fd :: acc
        else acc)
      fir []
  in
  match loops with
  | [ fd ] ->
    check "the receive loop takes k, kenv, frame" true
      (param_names fd = [ "k"; "kenv"; "frame" ]);
    let frame = fst (List.nth fd.Fir.Ast.f_params 2) in
    check_int "projections of one slot per iteration" 1
      (max_projections_per_iteration ~self:fd.Fir.Ast.f_name frame
         fd.Fir.Ast.f_body)
  | l -> Alcotest.failf "%d functions receive, expected 1" (List.length l)

(* The lowering names its internal functions [<C function>$<n>]: joins,
   loop heads, call-return and speculate/commit/migrate continuations. *)
let is_internal name =
  match String.rindex_opt name '$' with
  | Some i when i + 1 < String.length name ->
    String.for_all
      (fun c -> c >= '0' && c <= '9')
      (String.sub name (i + 1) (String.length name - i - 1))
  | Some _ | None -> false

let test_internal_params () =
  (* every internal function takes k, kenv and the frame after at most
     one extra of its own (speculate's rollback code), or is a call's
     return continuation (closure environment, returned value); none
     carries a parameter per local *)
  let programs =
    [
      "serve service", Mcc.Serve.service_source (serve_config false) 0;
      "serve client", Mcc.Serve.client_source (serve_config false) 0;
      "speculative service",
      Mcc.Serve.service_source (serve_config true) 0;
      "speculative client",
      Mcc.Serve.client_source (serve_config true) 0;
      "grid rank 1", Mcc.Gridapp.source Mcc.Gridapp.default_config 1;
    ]
  in
  List.iter
    (fun (what, src) ->
      Fir.Ast.iter_funs
        (fun fd ->
          let name = fd.Fir.Ast.f_name in
          if is_internal name then
            match List.rev (param_names fd) with
            | [ "frame"; "kenv"; "k" ] | [ "frame"; "kenv"; "k"; _ ]
            | [ "r"; "env" ] ->
              ()
            | _ ->
              Alcotest.failf "%s: %s takes (%s)" what name
                (String.concat ", " (param_names fd)))
        (compile src))
    programs

let test_recursive_frames () =
  (* each activation writes its own [here] after the recursive call
     returns: a frame shared between activations would see the callee's
     value *)
  both_engines "recursive frames"
    {|
int depth(int n) {
  int here = n * 10;
  int below = 0;
  if (n > 0) below = depth(n - 1);
  here = here + below;
  print_int(here);
  print_nl();
  return here;
}
int main() {
  return depth(4) + 1;
}
|}
    101 "0\n10\n30\n60\n100\n"

(* ------------------------------------------------------------------ *)
(* Cluster interop                                                     *)
(* ------------------------------------------------------------------ *)

let test_c_workers_on_cluster () =
  let sender =
    compile
      {|
int main() {
  int *buf = alloc_int(4);
  int i;
  for (i = 0; i < 4; i = i + 1) buf[i] = (i + 1) * 11;
  return msg_send_int(1, 7, buf, 4);
}
|}
  in
  let receiver =
    compile
      {|
int main() {
  int *buf = alloc_int(4);
  int r = msg_try_recv_int(0, 7, buf, 4);
  while (r == 0 - 1) {
    r = msg_try_recv_int(0, 7, buf, 4);
  }
  return buf[0] + buf[1] + buf[2] + buf[3];
}
|}
  in
  check "C programs typecheck against cluster externs" true
    (Fir.Typecheck.well_typed ~strict:true
       ~externs:Net.Cluster.extern_signatures receiver);
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let spid = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 sender in
  let rpid = Net.Cluster.spawn cluster ~rank:1 ~node_id:1 receiver in
  let _ = Net.Cluster.run cluster in
  check "sender ok" true (Net.Cluster.exit_code cluster spid = Some 0);
  check "receiver summed" true (Net.Cluster.exit_code cluster rpid = Some 110)

let test_figure1_transfer () =
  (* the paper's Figure 1, speculative version, against the fault-injected
     object store *)
  let src =
    {|
int transfer(int obj1, int obj2, int k) {
  int *buf1 = alloc_int(k);
  int *buf2 = alloc_int(k);
  int specid = speculate();
  if (specid > 0) {
    if (obj_read(obj1, buf1, k) != k) abort(specid);
    if (obj_read(obj2, buf2, k) != k) abort(specid);
    if (obj_write(obj1, buf2, k) != k) abort(specid);
    if (obj_write(obj2, buf1, k) != k) abort(specid);
    commit(specid);
    return 1; // success
  }
  return 0;   // speculation aborted: failure, no partial writes
}
int main() {
  return transfer(1, 2, 4);
}
|}
  in
  let fir = compile src in
  check "figure 1 typechecks strictly" true
    (Fir.Typecheck.well_typed ~strict:true
       ~externs:Net.Cluster.extern_signatures fir);
  (* no faults: the transfer succeeds and swaps the objects *)
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 1 } in
  Net.Cluster.set_object cluster 1 "AAAA";
  Net.Cluster.set_object cluster 2 "BBBB";
  let pid = Net.Cluster.spawn cluster ~node_id:0 fir in
  let _ = Net.Cluster.run cluster in
  (match Net.Cluster.entry_of_pid cluster pid with
  | Some e ->
    check "transfer succeeded" true
      (e.Net.Cluster.proc.Vm.Process.status = Vm.Process.Exited 1)
  | None -> Alcotest.fail "pid lost");
  check_str "obj1 swapped" "BBBB" (Option.get (Net.Cluster.get_object cluster 1));
  check_str "obj2 swapped" "AAAA" (Option.get (Net.Cluster.get_object cluster 2));
  (* certain faults: the transfer fails atomically, objects unchanged *)
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 1 } in
  Net.Cluster.set_object cluster 1 "AAAA";
  Net.Cluster.set_object cluster 2 "BBBB";
  Net.Cluster.set_object_failure_probability cluster 1.0;
  let pid = Net.Cluster.spawn cluster ~node_id:0 fir in
  let _ = Net.Cluster.run cluster in
  (match Net.Cluster.entry_of_pid cluster pid with
  | Some e ->
    check "transfer failed cleanly" true
      (e.Net.Cluster.proc.Vm.Process.status = Vm.Process.Exited 0)
  | None -> Alcotest.fail "pid lost");
  check_str "obj1 untouched" "AAAA"
    (Option.get (Net.Cluster.get_object cluster 1));
  check_str "obj2 untouched" "BBBB"
    (Option.get (Net.Cluster.get_object cluster 2))

let suites =
  [
    ( "minic.exec",
      [
        Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "floats" `Quick test_float;
        Alcotest.test_case "comparisons yield ints" `Quick
          test_comparisons_are_ints;
        Alcotest.test_case "logical operators" `Quick test_logical;
        Alcotest.test_case "while/break/continue" `Quick
          test_while_break_continue;
        Alcotest.test_case "for loops" `Quick test_for_loop;
        Alcotest.test_case "nested loops" `Quick test_nested_loops;
        Alcotest.test_case "recursion (ackermann)" `Quick test_recursion;
        Alcotest.test_case "nested call arguments" `Quick
          test_nested_call_args;
        Alcotest.test_case "pointers and arrays" `Quick test_pointers;
        Alcotest.test_case "strings" `Quick test_strings;
        Alcotest.test_case "void functions" `Quick test_void_functions;
        Alcotest.test_case "zero defaults" `Quick
          test_uninitialized_defaults;
        Alcotest.test_case "seeded rand" `Quick test_rand_seeded;
      ] );
    ( "minic.reject",
      [
        Alcotest.test_case "compile errors" `Quick test_errors;
        Alcotest.test_case "runtime safety" `Quick test_runtime_safety;
      ] );
    ( "minic.speculation",
      [
        Alcotest.test_case "abort restores state" `Quick test_speculate_abort;
        Alcotest.test_case "commit keeps state" `Quick test_speculate_commit;
        Alcotest.test_case "nested speculation" `Quick
          test_nested_speculation_c;
        Alcotest.test_case "rollback code carries state" `Quick
          test_retry_loop;
        Alcotest.test_case "rollback across GC" `Quick
          test_speculation_with_gc_c;
      ] );
    ( "minic.migration",
      [
        Alcotest.test_case "heterogeneous round-trip" `Quick
          test_migrate_roundtrip_c;
      ] );
    ( "minic.forwarding",
      [
        Alcotest.test_case "store in an aborted speculation" `Quick
          test_forward_speculation_reentry;
        Alcotest.test_case "store, migrate, read on the target" `Quick
          test_forward_migrate;
        Alcotest.test_case "loop-carried local" `Quick
          test_forward_loop_carried;
        Alcotest.test_case "written in one if arm" `Quick
          test_forward_if_join;
        Alcotest.test_case "survives a non-tail call" `Quick
          test_forward_call;
        Alcotest.test_case "store, extern call, read" `Quick
          test_forward_extern;
        Alcotest.test_case "serve receive loop loads a local once" `Quick
          test_serve_loop_projections;
        Alcotest.test_case "internal functions take k, kenv, frame" `Quick
          test_internal_params;
        Alcotest.test_case "recursive calls never share a frame" `Quick
          test_recursive_frames;
      ] );
    ( "minic.engines",
      [ Alcotest.test_case "interp = emulator" `Quick test_differential ] );
    ( "minic.cluster",
      [
        Alcotest.test_case "C workers exchange messages" `Quick
          test_c_workers_on_cluster;
        Alcotest.test_case "Figure 1 transfer" `Quick test_figure1_transfer;
      ] );
  ]
