(* Tests for the FIR: types, variables, builder, typechecker, optimizer,
   and the canonical serializer. *)

open Fir

open Kit

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let test_type_equal () =
  let open Types in
  check "int = int" true (equal Tint Tint);
  check "int <> float" false (equal Tint Tfloat);
  check "enum cardinality matters" false (equal (Tenum 2) (Tenum 3));
  check "ptr int = ptr int" true (equal (Tptr Tint) (Tptr Tint));
  check "nested tuple" true
    (equal (Ttuple [ Tint; Tptr Tfloat ]) (Ttuple [ Tint; Tptr Tfloat ]));
  check "tuple arity" false (equal (Ttuple [ Tint ]) (Ttuple [ Tint; Tint ]));
  check "fun sig" true (equal (Tfun [ Tint; Tbool ]) (Tfun [ Tint; Tbool ]));
  check "fun sig order" false (equal (Tfun [ Tint; Tbool ]) (Tfun [ Tbool; Tint ]))

let test_type_predicates () =
  let open Types in
  check "ptr is reference" true (is_reference (Tptr Tint));
  check "raw is reference" true (is_reference Traw);
  check "tuple is reference" true (is_reference (Ttuple [ Tint ]));
  check "int is not reference" false (is_reference Tint);
  check "fun is not reference" false (is_reference (Tfun []));
  check_int "tuple cell size" 3 (cell_size (Ttuple [ Tint; Tint; Tfloat ]));
  check_int "scalar cell size" 1 (cell_size Tint)

let test_type_pp () =
  check_str "pp ptr" "int ptr" (Types.to_string (Types.Tptr Types.Tint));
  check_str "pp enum" "enum[4]" (Types.to_string (Types.Tenum 4));
  check_str "pp fun" "(int, bool) -> ."
    (Types.to_string (Types.Tfun [ Types.Tint; Types.Tbool ]))

(* ------------------------------------------------------------------ *)
(* Variables                                                           *)
(* ------------------------------------------------------------------ *)

let test_var_fresh () =
  let a = Var.fresh "x" and b = Var.fresh "x" in
  check "fresh vars differ" false (Var.equal a b);
  check "self equal" true (Var.equal a a);
  check "ordered" true (Var.compare a b < 0)

let test_var_of_id () =
  let v = Var.of_id ~id:1_000_000 ~name:"m" in
  let w = Var.fresh "n" in
  check "of_id preserves id" true (Var.id v = 1_000_000);
  check "fresh after of_id does not collide" true (Var.id w > 1_000_000)

(* ------------------------------------------------------------------ *)
(* Builder + typechecker                                               *)
(* ------------------------------------------------------------------ *)

let trivial_program =
  Builder.(
    prog
      [
        func "main" [] (fun _ ->
            add (int 1) (int 2) (fun s -> exit_ s));
      ])

let loop_program =
  (* sum 0..9 via the for_loop helper *)
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

let heap_program =
  Builder.(
    prog
      [
        func "main" [] (fun _ ->
            array Types.Tint ~size:(int 8) ~init:(int 0) (fun arr ->
                store arr (int 3) (int 42)
                  (load Types.Tint arr (int 3) (fun x -> exit_ x))));
      ])

let test_well_typed () =
  check "trivial" true (Typecheck.well_typed trivial_program);
  check "loop" true (Typecheck.well_typed loop_program);
  check "heap" true (Typecheck.well_typed heap_program)

let expect_ill_typed name p =
  match Typecheck.check_program p with
  | Ok () -> Alcotest.failf "%s: expected a type error" name
  | Error _ -> ()

let test_ill_typed_cond () =
  expect_ill_typed "int condition"
    Builder.(
      prog [ func "main" [] (fun _ -> if_ (int 1) (exit_ (int 0)) (exit_ (int 1))) ])

let test_ill_typed_arity () =
  expect_ill_typed "arity mismatch"
    Builder.(
      prog
        [
          func "f" [ "x", Types.Tint ] (fun _ -> exit_ (int 0));
          func "main" [] (fun _ -> callf "f" [ int 1; int 2 ]);
        ])

let test_ill_typed_arg () =
  expect_ill_typed "argument type mismatch"
    Builder.(
      prog
        [
          func "f" [ "x", Types.Tint ] (fun _ -> exit_ (int 0));
          func "main" [] (fun _ -> callf "f" [ bool true ]);
        ])

let test_ill_typed_enum_range () =
  expect_ill_typed "enum out of range"
    Builder.(
      prog [ func "main" [] (fun _ -> atom (Types.Tenum 2) (enum 2 5) (fun _ -> exit_ (int 0))) ])

let test_ill_typed_proj () =
  expect_ill_typed "projection out of bounds"
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              tuple [ Types.Tint, int 1 ] (fun t ->
                  proj Types.Tint t 3 (fun x -> exit_ x)));
        ])

let test_ill_typed_speculate () =
  (* the speculation entry function must take the rollback code first *)
  expect_ill_typed "speculate entry without code parameter"
    Builder.(
      prog
        [
          func "body" [ "x", Types.Tbool ] (fun _ -> exit_ (int 0));
          func "main" [] (fun _ -> speculate (fn "body") [ bool true ]);
        ])

let test_speculate_ok () =
  let p =
    Builder.(
      prog
        [
          func "body" [ "c", Types.Tint; "x", Types.Tint ] (fun args ->
              match args with
              | [ c; x ] ->
                eq c (int 0) (fun fresh ->
                    if_ fresh
                      (commit (int 1) (fn "done_") [ x ])
                      (exit_ c))
              | _ -> assert false);
          func "done_" [ "x", Types.Tint ] (fun args ->
              match args with [ x ] -> exit_ x | _ -> assert false);
          func "main" [] (fun _ -> speculate (fn "body") [ int 7 ]);
        ])
  in
  check "speculation program typechecks" true (Typecheck.well_typed p)

let test_ill_typed_main_params () =
  expect_ill_typed "main with parameters"
    Builder.(
      prog [ func "main" [ "x", Types.Tint ] (fun _ -> exit_ (int 0)) ])

let test_ill_typed_nil () =
  expect_ill_typed "nil of scalar type"
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              atom Types.Tint (nil Types.Tint) (fun x -> exit_ x));
        ])

let test_strict_externs () =
  let p =
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              ext Types.Tunit "mystery" [] (fun _ -> exit_ (int 0)));
        ])
  in
  check "lenient accepts unknown extern" true (Typecheck.well_typed p);
  check "strict rejects unknown extern" false
    (Typecheck.well_typed ~strict:true p);
  let externs name =
    if String.equal name "mystery" then Some ([], Types.Tunit) else None
  in
  check "strict accepts known extern" true
    (Typecheck.well_typed ~strict:true ~externs p)

let test_extern_signature_mismatch () =
  let p =
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              ext Types.Tint "print_int" [ bool true ] (fun _ ->
                  exit_ (int 0)));
        ])
  in
  let externs name =
    if String.equal name "print_int" then
      Some ([ Types.Tint ], Types.Tunit)
    else None
  in
  check "extern arg mismatch rejected" false
    (Typecheck.well_typed ~externs p)

(* ------------------------------------------------------------------ *)
(* Free variables / called functions                                   *)
(* ------------------------------------------------------------------ *)

let test_free_vars () =
  let x = Var.fresh "x" in
  let e =
    Ast.Let_binop
      (Var.fresh "y", Types.Tint, Ast.Add, Ast.Var x, Ast.Int 1,
       Ast.Exit (Ast.Var x))
  in
  let fv = Ast.free_vars e in
  check "x free" true (Var.Set.mem x fv);
  check_int "only x free" 1 (Var.Set.cardinal fv)

let test_bound_not_free () =
  let x = Var.fresh "x" in
  let e = Ast.Let_atom (x, Types.Tint, Ast.Int 1, Ast.Exit (Ast.Var x)) in
  check "bound var is not free" true (Var.Set.is_empty (Ast.free_vars e))

let test_called_funs () =
  let e =
    Ast.If
      ( Ast.Bool true,
        Ast.Call (Ast.Fun "f", []),
        Ast.Call (Ast.Fun "g", [ Ast.Fun "h" ]) )
  in
  let funs = List.sort_uniq String.compare (Ast.called_funs e) in
  check "f g h called" true (funs = [ "f"; "g"; "h" ])

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let test_constant_fold () =
  let p = Opt.optimize trivial_program in
  let main = Ast.fun_exn p "main" in
  (match main.Ast.f_body with
  | Ast.Exit (Ast.Int 3) -> ()
  | e -> Alcotest.failf "expected exit 3, got %s" (Pp.exp_to_string e));
  check "optimized still typechecks" true (Typecheck.well_typed p)

let test_fold_if () =
  let p =
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              lt (int 1) (int 2) (fun c ->
                  if_ c (exit_ (int 10)) (exit_ (int 20))));
        ])
  in
  let p = Opt.optimize p in
  match (Ast.fun_exn p "main").Ast.f_body with
  | Ast.Exit (Ast.Int 10) -> ()
  | e -> Alcotest.failf "expected exit 10, got %s" (Pp.exp_to_string e)

let test_fold_switch () =
  let p =
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              switch (int 2)
                [ 1, exit_ (int 100); 2, exit_ (int 200) ]
                (exit_ (int 0)));
        ])
  in
  let p = Opt.optimize p in
  match (Ast.fun_exn p "main").Ast.f_body with
  | Ast.Exit (Ast.Int 200) -> ()
  | e -> Alcotest.failf "expected exit 200, got %s" (Pp.exp_to_string e)

let test_dead_code () =
  let p =
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              tuple [ Types.Tint, int 1; Types.Tint, int 2 ] (fun _unused ->
                  exit_ (int 0)));
        ])
  in
  let p = Opt.optimize p in
  match (Ast.fun_exn p "main").Ast.f_body with
  | Ast.Exit (Ast.Int 0) -> ()
  | e -> Alcotest.failf "dead tuple not removed: %s" (Pp.exp_to_string e)

(* [main] draws an int, compares it with 3, and branches on
   [test (int_of_bool (x < 3)) 0] -- the shape a C condition lowers to --
   or, with [~direct], on [test x 0]. *)
let truth_test_program ?(direct = false) test =
  Builder.(
    prog
      [
        func "main" [] (fun _ ->
            ext Types.Tint "rand" [] (fun x ->
                let branch a =
                  test a (int 0) (fun t ->
                      if_ t (exit_ (int 1)) (exit_ (int 0)))
                in
                if direct then branch x
                else
                  lt x (int 3) (fun c ->
                      unop Types.Tint Ast.Int_of_bool c branch)));
      ])

let optimized_main p =
  let p = Opt.optimize p in
  check "optimized still typechecks" true (Typecheck.well_typed p);
  (Ast.fun_exn p "main").Ast.f_body

let test_fold_truth_ne () =
  match optimized_main (truth_test_program Builder.ne) with
  | Ast.Let_ext
      (_, _, _, _, Ast.Let_binop (c, _, Ast.Lt, _, _, Ast.If (Ast.Var c', _, _)))
    when Var.equal c c' ->
    ()
  | e ->
    Alcotest.failf "expected a branch on x < 3, got %s" (Pp.exp_to_string e)

let test_fold_truth_eq () =
  match optimized_main (truth_test_program Builder.eq) with
  | Ast.Let_ext
      ( _, _, _, _,
        Ast.Let_binop
          ( c, _, Ast.Lt, _, _,
            Ast.Let_unop (n, _, Ast.Not, Ast.Var c', Ast.If (Ast.Var n', _, _))
          ) )
    when Var.equal c c' && Var.equal n n' ->
    ()
  | e ->
    Alcotest.failf "expected a branch on not (x < 3), got %s"
      (Pp.exp_to_string e)

let test_truth_test_kept () =
  (* [x != 0] on a plain int is a real comparison *)
  match optimized_main (truth_test_program ~direct:true Builder.ne) with
  | Ast.Let_ext
      ( x, _, _, _,
        Ast.Let_binop (t, _, Ast.Ne, Ast.Var x', Ast.Int 0, Ast.If (Ast.Var t', _, _))
      )
    when Var.equal x x' && Var.equal t t' ->
    ()
  | e -> Alcotest.failf "x != 0 was rewritten: %s" (Pp.exp_to_string e)

let test_div_not_eliminated () =
  (* a division is kept even if unused: it can trap *)
  let x = Var.fresh "x" in
  let p =
    Ast.program ~main:"main"
      [
        {
          Ast.f_name = "main";
          f_params = [];
          f_body =
            Ast.Let_binop
              (x, Types.Tint, Ast.Div, Ast.Int 1, Ast.Int 0,
               Ast.Exit (Ast.Int 0));
        };
      ]
  in
  let p = Opt.optimize p in
  match (Ast.fun_exn p "main").Ast.f_body with
  | Ast.Let_binop (_, _, Ast.Div, _, _, _) -> ()
  | e -> Alcotest.failf "trapping div was eliminated: %s" (Pp.exp_to_string e)

let test_inline () =
  let p =
    Builder.(
      prog
        [
          func "double" [ "k", Types.Tfun [ Types.Tint ]; "x", Types.Tint ]
            (fun args ->
              match args with
              | [ k; x ] -> add x x (fun d -> call k [ d ])
              | _ -> assert false);
          func "finish" [ "r", Types.Tint ] (fun args ->
              match args with [ r ] -> exit_ r | _ -> assert false);
          func "main" [] (fun _ -> callf "double" [ fn "finish"; int 21 ]);
        ])
  in
  let p = Opt.optimize p in
  check "still typechecks after inlining" true (Typecheck.well_typed p);
  match (Ast.fun_exn p "main").Ast.f_body with
  | Ast.Exit (Ast.Int 42) -> ()
  | e -> Alcotest.failf "expected exit 42 after inlining, got %s"
           (Pp.exp_to_string e)

(* count binop nodes in an expression *)
let rec count_binops = function
  | Ast.Let_binop (_, _, _, _, _, e) -> 1 + count_binops e
  | Ast.Let_atom (_, _, _, e)
  | Ast.Let_cast (_, _, _, e)
  | Ast.Let_unop (_, _, _, _, e)
  | Ast.Let_tuple (_, _, e)
  | Ast.Let_array (_, _, _, _, e)
  | Ast.Let_string (_, _, e)
  | Ast.Let_proj (_, _, _, _, e)
  | Ast.Set_proj (_, _, _, e)
  | Ast.Let_load (_, _, _, _, e)
  | Ast.Store (_, _, _, e)
  | Ast.Let_ext (_, _, _, _, e) ->
    count_binops e
  | Ast.If (_, a, b) -> count_binops a + count_binops b
  | Ast.Switch (_, cases, d) ->
    List.fold_left (fun acc (_, e) -> acc + count_binops e) (count_binops d)
      cases
  | Ast.Call _ | Ast.Exit _ | Ast.Migrate _ | Ast.Speculate _ | Ast.Commit _
  | Ast.Rollback _ ->
    0

let test_cse_dedups () =
  (* the same sum computed twice from a parameter; constant folding cannot
     remove it, CSE must *)
  let p =
    Builder.(
      prog
        [
          func "f" [ "k", Types.Tfun [ Types.Tint ]; "x", Types.Tint ]
            (fun args ->
              match args with
              | [ k; x ] ->
                add x (int 1) (fun a ->
                    add x (int 1) (fun b ->
                        mul a b (fun r -> call k [ r ])))
              | _ -> assert false);
          func "fin" [ "r", Types.Tint ] (fun args ->
              match args with [ r ] -> exit_ r | _ -> assert false);
          func "main" [] (fun _ -> callf "f" [ fn "fin"; int 6 ]);
        ])
  in
  let before = count_binops (Ast.fun_exn p "f").Ast.f_body in
  let p' = Opt.optimize p in
  check "optimized still typechecks" true (Typecheck.well_typed p');
  (* after inlining, main holds the whole computation *)
  let total =
    Ast.fold_funs (fun fd acc -> acc + count_binops fd.Ast.f_body) p' 0
  in
  check "CSE removed the duplicate addition" true (total < before + 1)

let test_cse_commutative () =
  let body a_first =
    Builder.(
      func "main" [] (fun _ ->
          ext Types.Tint "rand" [ int 100 ] (fun x ->
              ext Types.Tint "rand" [ int 100 ] (fun y ->
                  binop Types.Tint Ast.Add x y (fun s1 ->
                      (if a_first then binop Types.Tint Ast.Add x y
                       else binop Types.Tint Ast.Add y x)
                        (fun s2 -> mul s1 s2 (fun r -> exit_ r))))))) 
  in
  let deduped flip =
    let p = Ast.program ~main:"main" [ body flip ] in
    let e =
      Opt.eliminate_common_subexpressions (Ast.fun_exn p "main").Ast.f_body
    in
    count_binops e
  in
  check_int "x+y ; x+y dedups" 2 (deduped true);
  check_int "x+y ; y+x dedups too (commutative)" 2 (deduped false);
  (* subtraction is not commutative *)
  let p =
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              ext Types.Tint "rand" [ int 100 ] (fun x ->
                  ext Types.Tint "rand" [ int 100 ] (fun y ->
                      binop Types.Tint Ast.Sub x y (fun s1 ->
                          binop Types.Tint Ast.Sub y x (fun s2 ->
                              mul s1 s2 (fun r -> exit_ r))))));
        ])
  in
  let e =
    Opt.eliminate_common_subexpressions (Ast.fun_exn p "main").Ast.f_body
  in
  check_int "x-y ; y-x does NOT dedup" 3 (count_binops e)

let test_cse_not_loads () =
  (* two loads of the same cell with a store in between must both stay *)
  let p =
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              array Types.Tint ~size:(int 1) ~init:(int 1) (fun cell ->
                  load Types.Tint cell (int 0) (fun a ->
                      store cell (int 0) (int 2)
                        (load Types.Tint cell (int 0) (fun b ->
                             mul (int 10) a (fun ta ->
                                 add ta b (fun r -> exit_ r)))))));
        ])
  in
  let p' = Opt.optimize p in
  check "loads survive optimization" true (Typecheck.well_typed p');
  (* semantics check happens in the VM suite; here: structure retains two
     loads *)
  let rec count_loads = function
    | Ast.Let_load (_, _, _, _, e) -> 1 + count_loads e
    | Ast.Let_atom (_, _, _, e)
    | Ast.Let_cast (_, _, _, e)
    | Ast.Let_unop (_, _, _, _, e)
    | Ast.Let_binop (_, _, _, _, _, e)
    | Ast.Let_tuple (_, _, e)
    | Ast.Let_array (_, _, _, _, e)
    | Ast.Let_string (_, _, e)
    | Ast.Let_proj (_, _, _, _, e)
    | Ast.Set_proj (_, _, _, e)
    | Ast.Store (_, _, _, e)
    | Ast.Let_ext (_, _, _, _, e) ->
      count_loads e
    | Ast.If (_, a, b) -> count_loads a + count_loads b
    | Ast.Switch (_, cases, d) ->
      List.fold_left (fun acc (_, e) -> acc + count_loads e) (count_loads d)
        cases
    | Ast.Call _ | Ast.Exit _ | Ast.Migrate _ | Ast.Speculate _
    | Ast.Commit _ | Ast.Rollback _ ->
      0
  in
  check_int "both loads retained" 2
    (count_loads (Ast.fun_exn p' "main").Ast.f_body)

let test_unreachable_removed () =
  let p =
    Builder.(
      prog
        [
          func "orphan" [] (fun _ -> exit_ (int 1));
          func "main" [] (fun _ -> exit_ (int 0));
        ])
  in
  let p = Opt.optimize p in
  check "orphan removed" true (Ast.find_fun p "orphan" = None);
  check "main kept" true (Ast.find_fun p "main" <> None)

let test_no_inline_speculate () =
  (* functions containing pseudo-instructions must not be inlined *)
  let p =
    Builder.(
      prog
        [
          func "body" [ "c", Types.Tint ] (fun args ->
              match args with [ c ] -> exit_ c | _ -> assert false);
          func "spec" [] (fun _ -> speculate (fn "body") []);
          func "main" [] (fun _ -> callf "spec" []);
        ])
  in
  let p = Opt.optimize p in
  match (Ast.fun_exn p "main").Ast.f_body with
  | Ast.Call (Ast.Fun "spec", []) -> ()
  | e ->
    Alcotest.failf "speculating function was inlined: %s" (Pp.exp_to_string e)

let test_no_inline_self_recursive () =
  (* a small loop function is under the threshold, but inlining it into
     itself or its caller would only unroll it *)
  let p =
    Builder.(
      prog
        [
          func "count" [ "i", Types.Tint ] (fun args ->
              match args with
              | [ i ] ->
                lt i (int 10) (fun c ->
                    if_ c
                      (add i (int 1) (fun j -> callf "count" [ j ]))
                      (exit_ i))
              | _ -> assert false);
          func "main" [] (fun _ -> callf "count" [ int 0 ]);
        ])
  in
  let p = Opt.optimize p in
  let rec branches = function
    | Ast.If (_, a, b) -> 1 + branches a + branches b
    | Ast.Let_binop (_, _, _, _, _, e) -> branches e
    | _ -> 0
  in
  check_int "the loop body is not unrolled" 1
    (branches (Ast.fun_exn p "count").Ast.f_body);
  match (Ast.fun_exn p "main").Ast.f_body with
  | Ast.Call (Ast.Fun "count", [ Ast.Int 0 ]) -> ()
  | e -> Alcotest.failf "loop inlined into main: %s" (Pp.exp_to_string e)

(* ------------------------------------------------------------------ *)
(* Serializer                                                          *)
(* ------------------------------------------------------------------ *)

(* The encoding renumbers variables by first occurrence, so a decoded
   program prints other [t_<id>] names than the one encoded.  What must
   hold: the bytes survive a decode and re-encode, and after one
   normalisation the program prints the same on every further trip. *)
let roundtrip name p =
  let s = Serial.encode p in
  let p' = Serial.decode s in
  check_str (name ^ " re-encodes to itself") s (Serial.encode p');
  check_str (name ^ " round-trips")
    (Pp.program_to_string p')
    (Pp.program_to_string (Serial.decode (Serial.encode p')));
  check (name ^ " stays well-typed") (Typecheck.well_typed p)
    (Typecheck.well_typed p')

let test_serial_roundtrip () =
  roundtrip "trivial" trivial_program;
  roundtrip "loop" loop_program;
  roundtrip "heap" heap_program

let test_serial_stable () =
  let s1 = Serial.encode loop_program in
  let s2 = Serial.encode (Serial.decode s1) in
  check_str "encoding is canonical" s1 s2

(* Payload ids follow first occurrence whatever the [Var] ids are: met
   out of order and far apart, they encode as 1, 2, 3 met in order. *)
let test_serial_id_order () =
  let prog ids =
    match List.map (fun id -> Var.of_id ~id ~name:"x") ids with
    | [ a; b; c ] ->
      Ast.program ~main:"main"
        [ { Ast.f_name = "main"; f_params = [];
            f_body =
              Ast.Let_atom
                ( a, Types.Tint, Ast.Int 1,
                  Ast.Let_atom
                    ( b, Types.Tint, Ast.Int 2,
                      Ast.Let_binop
                        ( c, Types.Tint, Ast.Add, Ast.Var a, Ast.Var b,
                          Ast.Exit (Ast.Var c) ) ) ) } ]
    | _ -> assert false
  in
  check_str "descending, sparse ids encode as in-order ones"
    (Serial.encode (prog [ 1; 2; 3 ]))
    (Serial.encode (prog [ 90_000; 7; 400 ]))

let test_serial_corrupt () =
  let s = Serial.encode trivial_program in
  (* flip one byte in the body *)
  let b = Bytes.of_string s in
  let k = Bytes.length b - 3 in
  Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 0xff));
  (match Serial.decode (Bytes.to_string b) with
  | exception Serial.Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupted image accepted");
  (* truncation *)
  (match Serial.decode (String.sub s 0 (String.length s / 2)) with
  | exception Serial.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated image accepted");
  (* bad magic *)
  match Serial.decode ("XXXX" ^ String.sub s 4 (String.length s - 4)) with
  | exception Serial.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted"

let test_serial_floats () =
  let weird = [ 0.1; -0.0; infinity; neg_infinity; 1e-300; Float.pi ] in
  List.iter
    (fun f ->
      let p =
        Builder.(
          prog
            [
              func "main" [] (fun _ ->
                  atom Types.Tfloat (float f) (fun x ->
                      unop Types.Tint Ast.Int_of_float x (fun n -> exit_ n)));
            ])
      in
      roundtrip (Printf.sprintf "float %h" f) p;
      let p' = Serial.decode (Serial.encode p) in
      check (Printf.sprintf "float %h keeps its bits" f) true
        (match (Ast.fun_exn p' "main").f_body with
        | Let_atom (_, _, Float g, _) ->
          Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
        | _ -> false))
    weird;
  (* NaN: bit pattern must survive even though NaN <> NaN *)
  let p =
    Builder.(
      prog
        [
          func "main" [] (fun _ ->
              atom Types.Tfloat (float Float.nan) (fun _ -> exit_ (int 0)));
        ])
  in
  let s = Serial.encode p in
  check_str "NaN canonical" s (Serial.encode (Serial.decode s))

(* Checksum and digest kernels against their byte-at-a-time
   definitions: the lane-parallel Adler-32 and the loop FNV-1a must
   agree with the textbook forms on every length, including both sides
   of Adler-32's 8 KB reduction chunk. *)
let adler32_oracle s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

let fnv_oracle s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let test_serial_kernels () =
  let rng = Random.State.make [| 18 |] in
  let random_string n =
    String.init n (fun _ -> Char.chr (Random.State.int rng 256))
  in
  let inputs =
    List.map random_string [ 0; 1; 5551; 5552; 5553; 8191; 8192; 8193; 11105 ]
    @ [ String.make 1_000_000 '\xff' ]
  in
  List.iter
    (fun s ->
      let n = String.length s in
      check_int
        (Printf.sprintf "adler32 of %d bytes" n)
        (adler32_oracle s) (Serial.adler32 s);
      check_str
        (Printf.sprintf "FNV-1a of %d bytes" n)
        (fnv_oracle s) (Serial.encoded_digest s);
      (* streaming: any split point gives the whole-string hash *)
      let cut = n / 3 in
      let h = Serial.fnv_feed Serial.fnv_basis s ~off:0 ~len:cut in
      check_str
        (Printf.sprintf "FNV-1a of %d bytes fed in two ranges" n)
        (fnv_oracle s)
        (Serial.fnv_hex (Serial.fnv_feed h s ~off:cut ~len:(n - cut))))
    inputs;
  (* a range inside a larger buffer, at every alignment of the
     eight-byte steps *)
  let big = Bytes.of_string (random_string 12_000) in
  List.iter
    (fun (off, len) ->
      check_int
        (Printf.sprintf "adler32_range %d+%d" off len)
        (adler32_oracle (Bytes.sub_string big off len))
        (Serial.adler32_range big ~off ~len))
    [ 0, 0; 3, 1; 1, 5560; 7, 11_105; 28, 11_972 ];
  (* every offset of the word loads, on random bytes and on all-0xFF
     bytes (the largest lane sums), at lengths on both sides of the 8 KB
     chunk and of the 8-byte tail *)
  let ff = Bytes.make 20_000 '\xff' in
  let rnd = Bytes.of_string (random_string 20_000) in
  List.iter
    (fun (what, buf) ->
      for off = 0 to 7 do
        List.iter
          (fun len ->
            check_int
              (Printf.sprintf "adler32_range of %s bytes %d+%d" what off len)
              (adler32_oracle (Bytes.sub_string buf off len))
              (Serial.adler32_range buf ~off ~len))
          [ 0; 1; 7; 8; 9; 15; 16; 8183; 8184; 8191; 8192; 8193; 8199;
            8200; 16_383; 16_384; 16_385; 16_391; 19_990 ]
      done)
    [ "random", rnd; "0xff", ff ];
  check "adler32_range rejects a range past the end" true
    (match Serial.adler32_range big ~off:11_999 ~len:2 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_int "Adler-32(\"Wikipedia\")" 0x11E60398 (Serial.adler32 "Wikipedia");
  check_str "FNV-1a-64 of the empty string" "cbf29ce484222325"
    (Serial.encoded_digest "");
  check "fnv_feed rejects a range past the end" true
    (match Serial.fnv_feed Serial.fnv_basis "abc" ~off:2 ~len:2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_serial_f64_bits () =
  List.iter
    (fun bits ->
      let w = Serial.writer 8 in
      Serial.put_f64_bits w (Int64.float_of_bits bits);
      let data = Serial.contents w in
      check_int "eight bytes" 8 (String.length data);
      let r = { Serial.data; pos = 0 } in
      let back = Int64.bits_of_float (Serial.get_f64_bits r) in
      check
        (Printf.sprintf "float bits %016Lx round-trip exactly" bits)
        true (Int64.equal bits back);
      check_int "reader advanced" 8 r.Serial.pos)
    [
      Int64.bits_of_float (-0.0);
      0x7ff80000deadbeefL (* quiet NaN with a payload *);
      Int64.bits_of_float infinity;
      Int64.bits_of_float neg_infinity;
      1L (* smallest subnormal *);
      Int64.bits_of_float max_float;
    ];
  (* the byte order is little-endian, whatever the host's *)
  let w = Serial.writer 8 in
  Serial.put_f64_bits w 1.0;
  check_str "1.0 is 3ff0... little-endian"
    "\x00\x00\x00\x00\x00\x00\xf0\x3f" (Serial.contents w)

let float_loop_source_upto n =
  Printf.sprintf
    {|int main() {
  float x = 0.5;
  int s = 0;
  int i;
  for (i = 0; i < %d; i = i + 1) {
    x = x * 1.25 + 0.125;
    s = s + i;
  }
  print_float(x); print_nl();
  return s;
}
|}
    n

let float_loop_source = float_loop_source_upto 12

(* The digest is a content address: one source compiled twice, with an
   unrelated compile in between to move the [Var] counter, gives one
   digest; a different program gives another. *)
let test_serial_digest_content () =
  let digest_twice name compile =
    let d1 = Digest.of_program (compile ()) in
    ignore (Minic.Driver.compile_exn "int main() { int a = 3; return a; }");
    let d2 = Digest.of_program (compile ()) in
    check_str (name ^ ": compiled twice, one digest") d1 d2;
    d1
  in
  let loop =
    digest_twice "mini-C loop" (fun () ->
        Minic.Driver.compile_exn float_loop_source)
  in
  let rank1 =
    digest_twice "grid rank 1" (fun () ->
        Mcc.Gridapp.compile_rank Mcc.Gridapp.default_config 1)
  in
  let rank2 =
    digest_twice "grid rank 2" (fun () ->
        Mcc.Gridapp.compile_rank Mcc.Gridapp.default_config 2)
  in
  let other =
    Digest.of_program (Minic.Driver.compile_exn (float_loop_source_upto 13))
  in
  check "loop and grid rank differ" false (String.equal loop rank1);
  check "grid ranks 1 and 2 differ" false (String.equal rank1 rank2);
  check "another loop bound, another digest" false
    (String.equal loop other)

(* Committed FIR payloads, pinned byte for byte: [fixtures/] holds the
   encoding of [float_loop_source] and of rank 1 of the Figure 2 grid
   ([Mcc.Gridapp.compile_rank Mcc.Gridapp.default_config 1]) as an
   earlier Mini-C lowering compiled them, before it reused the values a
   segment already held.  They pin the serial format and codegen, not
   what today's front end emits, so a front-end change leaves them be.
   The encoding numbers variables by first occurrence, so the bytes do
   not depend on which tests ran first.  Each payload decodes and
   re-encodes to itself, and the MASM compiled from it keeps its length
   and bytes on both architectures.  The MASM pins hold whatever ids the
   decoded variables carry, because codegen allocates its slots by first
   occurrence and never reads an id.  The grid rank outgrows the
   encoder's first buffer. *)
let pinned_payloads =
  [
    ( "minic_float_loop.fir", 1736, "2be3f5841b3f9762",
      [ "cisc32", 1333, "3d0fd0cb7c38dfdb"; "risc64", 1333, "d21776c544510540" ]
    );
    ( "grid_rank1.fir", 49682, "7a747af9b52d0edd",
      [ "cisc32", 30305, "ce786ac13310d823";
        "risc64", 30305, "9f90a4b3f7d22d05" ] );
  ]

(* [dune runtest] runs in the build copy of this directory; a run from
   the repository root finds the source copy. *)
let fixture name =
  let path = Filename.concat "fixtures" name in
  let path =
    if Sys.file_exists path then path else Filename.concat "test" path
  in
  In_channel.with_open_bin path In_channel.input_all

let test_serial_pinned () =
  List.iter
    (fun (name, len, digest, masm) ->
      let s = fixture name in
      check_int (name ^ " length") len (String.length s);
      check_str (name ^ " digest") digest (Digest.of_encoded s);
      let p = Serial.decode s in
      check (name ^ " re-encodes to itself") true
        (String.equal s (Serial.encode p));
      List.iter
        (fun (arch, mlen, mdigest) ->
          let arch_t = Vm.Arch.by_name arch in
          let m = Vm.Masm.encode (Vm.Codegen.compile ~arch:arch_t p) in
          check_int (Printf.sprintf "%s MASM length on %s" name arch) mlen
            (String.length m);
          check_str (Printf.sprintf "%s MASM bytes on %s" name arch) mdigest
            (Digest.of_encoded m))
        masm)
    pinned_payloads

(* qcheck: random types round-trip through a program embedding *)
let ty_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneofl
              [ Types.Tunit; Types.Tint; Types.Tfloat; Types.Tbool;
                Types.Traw ]
          else
            frequency
              [
                3, oneofl [ Types.Tint; Types.Tfloat; Types.Tbool ];
                1, map (fun t -> Types.Tptr t) (self (n / 2));
                1, map (fun c -> Types.Tenum (1 + abs c mod 16)) small_int;
                ( 1,
                  map
                    (fun ts -> Types.Ttuple ts)
                    (list_size (int_range 1 4) (self (n / 3))) );
                ( 1,
                  map
                    (fun ts -> Types.Tfun ts)
                    (list_size (int_range 0 3) (self (n / 3))) );
              ])
        (min n 12))

let prop_ty_roundtrip =
  QCheck.Test.make ~count:200 ~name:"random types round-trip via nil atom"
    (QCheck.make ty_gen ~print:Types.to_string)
    (fun t ->
      (* embed the type in a program through a Nil atom and a parameter *)
      let v = Var.fresh "p" in
      let body =
        Ast.Let_ext (Var.fresh "u", Types.Tunit, "sink", [ Ast.Var v ],
                     Ast.Exit (Ast.Int 0))
      in
      let p =
        Ast.program ~main:"main"
          [
            { Ast.f_name = "f"; f_params = [ v, t ]; f_body = body };
            { Ast.f_name = "main"; f_params = []; f_body = Ast.Exit (Ast.Int 0) };
          ]
      in
      let p' = Serial.decode (Serial.encode p) in
      Types.equal (List.assoc "f" (List.map (fun n -> n, Ast.fun_exn p' n) [ "f" ])
                   |> fun fd -> snd (List.hd fd.Ast.f_params))
        t)

let prop_exp_size_positive =
  QCheck.Test.make ~count:100 ~name:"exp_size positive on random chains"
    QCheck.(int_range 1 40)
    (fun n ->
      let rec build k =
        if k = 0 then Ast.Exit (Ast.Int 0)
        else
          Ast.Let_binop
            (Var.fresh "x", Types.Tint, Ast.Add, Ast.Int k, Ast.Int 1,
             build (k - 1))
      in
      Ast.exp_size (build n) = n + 1)

let suites =
  [
    ( "fir.types",
      [
        Alcotest.test_case "structural equality" `Quick test_type_equal;
        Alcotest.test_case "predicates" `Quick test_type_predicates;
        Alcotest.test_case "pretty printing" `Quick test_type_pp;
      ] );
    ( "fir.var",
      [
        Alcotest.test_case "fresh uniqueness" `Quick test_var_fresh;
        Alcotest.test_case "of_id counter bump" `Quick test_var_of_id;
      ] );
    ( "fir.typecheck",
      [
        Alcotest.test_case "well-typed programs" `Quick test_well_typed;
        Alcotest.test_case "int condition rejected" `Quick test_ill_typed_cond;
        Alcotest.test_case "arity mismatch rejected" `Quick
          test_ill_typed_arity;
        Alcotest.test_case "argument mismatch rejected" `Quick
          test_ill_typed_arg;
        Alcotest.test_case "enum range rejected" `Quick
          test_ill_typed_enum_range;
        Alcotest.test_case "projection bounds rejected" `Quick
          test_ill_typed_proj;
        Alcotest.test_case "speculate entry signature" `Quick
          test_ill_typed_speculate;
        Alcotest.test_case "speculation program accepted" `Quick
          test_speculate_ok;
        Alcotest.test_case "main with params rejected" `Quick
          test_ill_typed_main_params;
        Alcotest.test_case "nil of scalar rejected" `Quick test_ill_typed_nil;
        Alcotest.test_case "strict extern mode" `Quick test_strict_externs;
        Alcotest.test_case "extern signature mismatch" `Quick
          test_extern_signature_mismatch;
      ] );
    ( "fir.ast",
      [
        Alcotest.test_case "free variables" `Quick test_free_vars;
        Alcotest.test_case "bound not free" `Quick test_bound_not_free;
        Alcotest.test_case "called functions" `Quick test_called_funs;
      ] );
    ( "fir.opt",
      [
        Alcotest.test_case "constant folding" `Quick test_constant_fold;
        Alcotest.test_case "if folding" `Quick test_fold_if;
        Alcotest.test_case "switch folding" `Quick test_fold_switch;
        Alcotest.test_case "dead code elimination" `Quick test_dead_code;
        Alcotest.test_case "int_of_bool b != 0 is b" `Quick
          test_fold_truth_ne;
        Alcotest.test_case "int_of_bool b == 0 is not b" `Quick
          test_fold_truth_eq;
        Alcotest.test_case "plain int != 0 untouched" `Quick
          test_truth_test_kept;
        Alcotest.test_case "trapping ops preserved" `Quick
          test_div_not_eliminated;
        Alcotest.test_case "inlining" `Quick test_inline;
        Alcotest.test_case "unreachable functions removed" `Quick
          test_unreachable_removed;
        Alcotest.test_case "CSE removes duplicates" `Quick test_cse_dedups;
        Alcotest.test_case "CSE commutativity" `Quick test_cse_commutative;
        Alcotest.test_case "CSE never touches loads" `Quick
          test_cse_not_loads;
        Alcotest.test_case "speculation never inlined" `Quick
          test_no_inline_speculate;
        Alcotest.test_case "self-recursive function never inlined" `Quick
          test_no_inline_self_recursive;
      ] );
    ( "fir.serial",
      [
        Alcotest.test_case "round-trip" `Quick test_serial_roundtrip;
        Alcotest.test_case "canonical encoding" `Quick test_serial_stable;
        Alcotest.test_case "numbering ignores id order" `Quick
          test_serial_id_order;
        Alcotest.test_case "corruption detected" `Quick test_serial_corrupt;
        Alcotest.test_case "float exactness" `Quick test_serial_floats;
        Alcotest.test_case "checksum and digest kernels" `Quick
          test_serial_kernels;
        Alcotest.test_case "f64 bits round-trip exactly" `Quick
          test_serial_f64_bits;
        Alcotest.test_case "committed FIR and MASM bytes are pinned" `Quick
          test_serial_pinned;
        Alcotest.test_case "digest is a content address" `Quick
          test_serial_digest_content;
        QCheck_alcotest.to_alcotest prop_ty_roundtrip;
        QCheck_alcotest.to_alcotest prop_exp_size_positive;
      ] );
  ]
