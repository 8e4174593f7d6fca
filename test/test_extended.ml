(* Extended tests: discrete-event scheduling properties, transparent
   (host-initiated) migration, rank-mailbox continuity across death and
   resurrection, wire-codec properties, compiler fuzzing against OCaml
   reference evaluators, and grid-application equivalence on random
   configurations. *)

open Runtime

open Kit

(* ------------------------------------------------------------------ *)
(* Discrete-event scheduling                                           *)
(* ------------------------------------------------------------------ *)

let worker_with_work us =
  compile_c
    (Printf.sprintf
       "int main() { work_us(%d); return 1; }" us)

let test_des_parallel_nodes () =
  (* two 100 ms jobs on two nodes finish in ~100 ms, not 200 *)
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let p = worker_with_work 100_000 in
  let _ = Net.Cluster.spawn cluster ~node_id:0 p in
  let _ = Net.Cluster.spawn cluster ~node_id:1 p in
  let _ = Net.Cluster.run cluster in
  let t = Net.Cluster.now cluster in
  check "parallel nodes overlap" true (t < 0.15 && t >= 0.1)

let test_des_shared_node_serializes () =
  (* the same two jobs on ONE node serialise (plus context switches) *)
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 1 } in
  let p = worker_with_work 100_000 in
  let _ = Net.Cluster.spawn cluster ~node_id:0 p in
  let _ = Net.Cluster.spawn cluster ~node_id:0 p in
  let _ = Net.Cluster.run cluster in
  check "shared node serialises" true (Net.Cluster.now cluster >= 0.2)

let test_des_idle_node_waits () =
  (* a receiver alone on its node consumes only the idle time until the
     message arrives, not the sender's compute time *)
  let sender =
    compile_c
      {|
int main() {
  work_us(50000);
  int *buf = alloc_int(1);
  buf[0] = 7;
  return msg_send_int(1, 0, buf, 1);
}
|}
  in
  let receiver =
    compile_c
      {|
int main() {
  int *buf = alloc_int(1);
  int r = msg_try_recv_int(0, 0, buf, 1);
  while (r == 0 - 1) { r = msg_try_recv_int(0, 0, buf, 1); }
  return buf[0];
}
|}
  in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let spid = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 sender in
  let rpid = Net.Cluster.spawn cluster ~rank:1 ~node_id:1 receiver in
  let _ = Net.Cluster.run cluster in
  check "sender done" true (status_of cluster spid = Vm.Process.Exited 0);
  check "receiver got the payload" true
    (status_of cluster rpid = Vm.Process.Exited 7);
  (* receiver's node idled to ~50 ms, then did its tiny work *)
  let n1 = Net.Cluster.node cluster 1 in
  check "receiver idled, not burned" true
    (n1.Net.Cluster.busy_seconds < 0.01
    && n1.Net.Cluster.clock >= 0.05)

(* ------------------------------------------------------------------ *)
(* Transparent migration (load balancing)                              *)
(* ------------------------------------------------------------------ *)

(* Each round charges 1 ms of work: the worker outlasts the compile its
   destination runs ahead of the move. *)
let summing_worker =
  compile_c
    {|
int main() {
  int *data = alloc_int(50);
  int i;
  for (i = 0; i < 50; i = i + 1) data[i] = i * 7;
  int acc = 0;
  int round;
  for (round = 0; round < 400; round = round + 1) {
    for (i = 0; i < 50; i = i + 1) acc = (acc + data[i]) % 1000000;
    work_us(1000);
  }
  return acc;
}
|}

let test_transparent_migration () =
  (* reference result without migration *)
  let expected =
    let proc = Vm.Process.create summing_worker in
    match Vm.Interp.run proc with
    | Vm.Process.Exited n -> n
    | _ -> Alcotest.fail "reference run failed"
  in
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        node_count = 2;
        arches = [| Vm.Arch.cisc32; Vm.Arch.risc64 |] }
  in
  let pid = Net.Cluster.spawn cluster ~node_id:0 summing_worker in
  (* let it run a little, then move it mid-computation *)
  let _ = Net.Cluster.run cluster ~max_rounds:25 in
  check "still running before the move" true
    (status_of cluster pid = Vm.Process.Running);
  (match move_running cluster ~pid ~node_id:1 with
  | Error e ->
    Alcotest.failf "transparent migration failed: %s"
      (Net.Cluster.migration_error_to_string e)
  | Ok rep ->
    let new_pid = rep.Net.Cluster.rep_pid in
    (* node 1 lacked the code: one FIR hop, then one image hop *)
    check "reported one attempt per hop, no retries" true
      (rep.Net.Cluster.rep_attempts = 2 && rep.Net.Cluster.rep_retries = 0);
    check "source terminated" true
      (status_of cluster pid = Vm.Process.Exited 0);
    let _ = Net.Cluster.run cluster in
    check "successor finished with the same result" true
      (status_of cluster new_pid = Vm.Process.Exited expected);
    (match Net.Cluster.entry_of_pid cluster new_pid with
    | Some e -> check_int "runs on node1" 1 e.Net.Cluster.node_id
    | None -> Alcotest.fail "successor lost"));
  match migrate_dones cluster with
  | [ (ok, _, _) ] -> check "recorded as migration" true ok
  | l -> Alcotest.failf "expected 1 migrate_done event, got %d" (List.length l)

let test_transparent_migration_of_ml () =
  (* language neutrality: an ML process moves the same way *)
  let fir =
    match Miniml.Driver.compile
        "let rec sum n = if n = 0 then 0 else n + sum (n - 1)\n\
         let main = sum 3000"
    with
    | Ok fir -> fir
    | Error e -> Alcotest.failf "%s" (Miniml.Driver.error_to_string e)
  in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let pid = Net.Cluster.spawn cluster ~node_id:0 fir in
  (* the whole run is shorter than a compile: node 1 holds the code
     already, so the move lands at once *)
  seed_code cluster ~node_id:1 fir;
  let _ = Net.Cluster.run cluster ~max_rounds:10 in
  match move_running cluster ~pid ~node_id:1 with
  | Error e ->
    Alcotest.failf "ML transparent migration failed: %s"
      (Net.Cluster.migration_error_to_string e)
  | Ok rep ->
    let _ = Net.Cluster.run cluster in
    check "ML process completed after the move" true
      (status_of cluster rep.Net.Cluster.rep_pid
      = Vm.Process.Exited (3000 * 3001 / 2))

let test_move_rejections () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let pid = Net.Cluster.spawn cluster ~node_id:0 (worker_with_work 10) in
  (match move_running cluster ~pid ~node_id:0 with
  | Error Net.Cluster.Already_there -> ()
  | Error e ->
    Alcotest.failf "expected Already_there, got %s"
      (Net.Cluster.migration_error_to_string e)
  | Ok _ -> Alcotest.fail "migration to the same node accepted");
  Net.Cluster.fail_node cluster 1;
  (match move_running cluster ~pid ~node_id:1 with
  | Error Net.Cluster.Target_down -> ()
  | Error e ->
    Alcotest.failf "expected Target_down, got %s"
      (Net.Cluster.migration_error_to_string e)
  | Ok _ -> Alcotest.fail "migration to a dead node accepted");
  let _ = Net.Cluster.run cluster in
  (* the failed attempts were invisible *)
  check "process unaffected" true
    (status_of cluster pid = Vm.Process.Exited 1)

(* ------------------------------------------------------------------ *)
(* Rank mailboxes survive their holder                                 *)
(* ------------------------------------------------------------------ *)

let test_rank_mailbox_continuity () =
  let receiver =
    compile_c
      {|
int main() {
  migrate("suspend://r1");
  // resumes here when resurrected
  int *buf = alloc_int(1);
  int r = msg_try_recv_int(0, 9, buf, 1);
  while (r == 0 - 1) { r = msg_try_recv_int(0, 9, buf, 1); }
  return buf[0];
}
|}
  in
  let sender =
    compile_c
      {|
int main() {
  int *buf = alloc_int(1);
  buf[0] = 321;
  return msg_send_int(1, 9, buf, 1);
}
|}
  in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let rpid = Net.Cluster.spawn cluster ~rank:1 ~node_id:1 receiver in
  let _ = Net.Cluster.run cluster in
  check "receiver suspended" true
    (status_of cluster rpid = Vm.Process.Exited 0);
  (* the rank's holder is gone, but a send to the rank still queues *)
  let spid = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 sender in
  let _ = Net.Cluster.run cluster in
  check "send to a dormant rank succeeds" true
    (status_of cluster spid = Vm.Process.Exited 0);
  (* resurrect the rank: it inherits the queued message *)
  match Net.Cluster.resurrect cluster ~rank:1 ~node_id:0 ~path:"r1" with
  | Error m -> Alcotest.failf "resume failed: %s" m
  | Ok new_pid ->
    let _ = Net.Cluster.run cluster in
    check "resurrected holder received the buffered message" true
      (status_of cluster new_pid = Vm.Process.Exited 321)

(* ------------------------------------------------------------------ *)
(* Wire codec property                                                 *)
(* ------------------------------------------------------------------ *)

let value_gen =
  let open QCheck.Gen in
  oneof
    [
      return Value.Vunit;
      map (fun n -> Value.Vint n) int;
      map (fun f -> Value.Vfloat f) float;
      map (fun b -> Value.Vbool b) bool;
      map2 (fun c v -> Value.Venum (1 + abs c mod 64, abs v mod (1 + abs c mod 64)))
        small_int small_int;
      map2 (fun i o -> Value.Vptr (abs i, o)) small_int small_int;
      map (fun f -> Value.Vfun (abs f)) small_int;
    ]

let prop_wire_value_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire cells round-trip exactly"
    (QCheck.make value_gen ~print:Value.to_string)
    (fun v ->
      let bytes = Migrate.Wire.encode_value v in
      let r = { Fir.Serial.data = bytes; pos = 0 } in
      let v' = Migrate.Wire.get_value r in
      Value.equal v v' && r.Fir.Serial.pos = String.length bytes)

(* ------------------------------------------------------------------ *)
(* Compiler fuzzing: mini-C expressions vs an OCaml evaluator          *)
(* ------------------------------------------------------------------ *)

type cexpr =
  | Cconst of int
  | Cvar of int (* index into the fixed locals a,b,c *)
  | Cbin of string * cexpr * cexpr
  | Cneg of cexpr
  | Cnot of cexpr

let cexpr_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [ map (fun k -> Cconst (k mod 100)) small_signed_int;
                map (fun v -> Cvar (abs v mod 3)) small_int ]
          else
            frequency
              [
                3,
                ( oneofl [ "+"; "-"; "*"; "<"; "<="; ">"; ">="; "=="; "!=";
                           "&&"; "||" ]
                >>= fun op ->
                  map2 (fun a b -> Cbin (op, a, b)) (self (n / 2))
                    (self (n / 2)) );
                1, map (fun a -> Cneg a) (self (n - 1));
                1, map (fun a -> Cnot a) (self (n - 1));
              ])
        (min n 10))

let rec cexpr_to_c = function
  | Cconst k -> if k < 0 then Printf.sprintf "(0 - %d)" (-k) else string_of_int k
  | Cvar 0 -> "a"
  | Cvar 1 -> "b"
  | Cvar _ -> "c"
  | Cbin (op, x, y) ->
    Printf.sprintf "(%s %s %s)" (cexpr_to_c x) op (cexpr_to_c y)
  | Cneg x -> Printf.sprintf "(0 - %s)" (cexpr_to_c x)
  | Cnot x -> Printf.sprintf "(!%s)" (cexpr_to_c x)

let rec cexpr_eval env = function
  | Cconst k -> k
  | Cvar v -> env.(min v 2)
  | Cbin (op, x, y) ->
    let a = cexpr_eval env x and b = cexpr_eval env y in
    let b2i p = if p then 1 else 0 in
    (match op with
    | "+" -> a + b
    | "-" -> a - b
    | "*" -> a * b
    | "<" -> b2i (a < b)
    | "<=" -> b2i (a <= b)
    | ">" -> b2i (a > b)
    | ">=" -> b2i (a >= b)
    | "==" -> b2i (a = b)
    | "!=" -> b2i (a <> b)
    | "&&" -> b2i (a <> 0 && b <> 0)
    | "||" -> b2i (a <> 0 || b <> 0)
    | _ -> assert false)
  | Cneg x -> -cexpr_eval env x
  | Cnot x -> if cexpr_eval env x = 0 then 1 else 0

let prop_minic_matches_reference =
  QCheck.Test.make ~count:120
    ~name:"random mini-C expressions match the reference evaluator"
    (QCheck.make cexpr_gen ~print:cexpr_to_c)
    (fun e ->
      let env = [| 13; -7; 4 |] in
      let expected = cexpr_eval env e in
      (* exit codes are ints; clamp with a final modulus in the program
         and the model alike *)
      let src =
        Printf.sprintf
          "int main() { int a = 13; int b = 0 - 7; int c = 4; return %s; }"
          (cexpr_to_c e)
      in
      match Minic.Driver.compile src with
      | Error err ->
        QCheck.Test.fail_reportf "did not compile: %s"
          (Minic.Driver.error_to_string err)
      | Ok fir -> (
        let proc = Vm.Process.create fir in
        match Vm.Interp.run proc with
        | Vm.Process.Exited n ->
          if n <> expected then
            QCheck.Test.fail_reportf "interp %d <> expected %d" n expected
          else begin
            (* and the emulator agrees *)
            let proc2 = Vm.Process.create fir in
            let emu = Vm.Emulator.create (Vm.Codegen.compile fir) proc2 in
            match Vm.Emulator.run emu with
            | Vm.Process.Exited m ->
              m = expected
              || QCheck.Test.fail_reportf "emulator %d <> expected %d" m
                   expected
            | _ -> QCheck.Test.fail_reportf "emulator did not exit"
          end
        | Vm.Process.Trapped m -> QCheck.Test.fail_reportf "trapped: %s" m
        | _ -> QCheck.Test.fail_reportf "did not exit"))

(* ------------------------------------------------------------------ *)
(* Compiler fuzzing: mini-ML vs an OCaml evaluator                     *)
(* ------------------------------------------------------------------ *)

type mlexpr =
  | Mconst of int
  | Mvar of int (* de-bruijn-ish index into bound lets *)
  | Mbin of string * mlexpr * mlexpr
  | Mif of string * mlexpr * mlexpr * mlexpr * mlexpr
  | Mlet of mlexpr * mlexpr

let mlexpr_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [ map (fun k -> Mconst (k mod 50)) small_signed_int;
                map (fun v -> Mvar (abs v)) small_int ]
          else
            frequency
              [
                3,
                ( oneofl [ "+"; "-"; "*" ] >>= fun op ->
                  map2 (fun a b -> Mbin (op, a, b)) (self (n / 2))
                    (self (n / 2)) );
                1,
                ( oneofl [ "<"; "<="; "=" ] >>= fun cmp ->
                  self (n / 4) >>= fun c1 ->
                  self (n / 4) >>= fun c2 ->
                  self (n / 4) >>= fun t ->
                  map (fun e -> Mif (cmp, c1, c2, t, e)) (self (n / 4)) );
                2, map2 (fun v b -> Mlet (v, b)) (self (n / 2)) (self (n / 2));
              ])
        (min n 10))

let rec mlexpr_to_src depth = function
  | Mconst k -> if k < 0 then Printf.sprintf "(0 - %d)" (-k) else string_of_int k
  | Mvar v ->
    if depth = 0 then "x0" else Printf.sprintf "x%d" (v mod depth)
  | Mbin (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (mlexpr_to_src depth a) op
      (mlexpr_to_src depth b)
  | Mif (cmp, c1, c2, t, e) ->
    Printf.sprintf "(if %s %s %s then %s else %s)" (mlexpr_to_src depth c1)
      cmp (mlexpr_to_src depth c2) (mlexpr_to_src depth t)
      (mlexpr_to_src depth e)
  | Mlet (v, b) ->
    Printf.sprintf "(let x%d = %s in %s)" depth (mlexpr_to_src depth v)
      (mlexpr_to_src (depth + 1) b)

let rec mlexpr_eval env = function
  | Mconst k -> k
  | Mvar v ->
    (* [env] is appended in binding order, so position = binding depth =
       the name suffix the printer emits *)
    let depth = List.length env in
    if depth = 0 then 0 else List.nth env (v mod depth)
  | Mbin (op, a, b) -> (
    let x = mlexpr_eval env a and y = mlexpr_eval env b in
    match op with
    | "+" -> x + y
    | "-" -> x - y
    | "*" -> x * y
    | _ -> assert false)
  | Mif (cmp, c1, c2, t, e) ->
    let x = mlexpr_eval env c1 and y = mlexpr_eval env c2 in
    let taken =
      match cmp with
      | "<" -> x < y
      | "<=" -> x <= y
      | "=" -> x = y
      | _ -> assert false
    in
    if taken then mlexpr_eval env t else mlexpr_eval env e
  | Mlet (v, b) -> mlexpr_eval (env @ [ mlexpr_eval env v ]) b

let prop_miniml_matches_reference =
  QCheck.Test.make ~count:80
    ~name:"random mini-ML expressions match the reference evaluator"
    (QCheck.make mlexpr_gen ~print:(fun e ->
         mlexpr_to_src 1 (Mlet (Mconst 0, e)) |> fun _ ->
         mlexpr_to_src 1 e))
    (fun e ->
      (* one binding in scope so Mvar is always valid *)
      let src =
        Printf.sprintf "let main = let x0 = 11 in %s" (mlexpr_to_src 1 e)
      in
      let expected = mlexpr_eval [ 11 ] e in
      match Miniml.Driver.compile src with
      | Error err ->
        QCheck.Test.fail_reportf "did not compile: %s"
          (Miniml.Driver.error_to_string err)
      | Ok fir -> (
        let proc = Vm.Process.create fir in
        match Vm.Interp.run proc with
        | Vm.Process.Exited n ->
          n = expected
          || QCheck.Test.fail_reportf "interp %d <> expected %d" n expected
        | Vm.Process.Trapped m -> QCheck.Test.fail_reportf "trapped: %s" m
        | _ -> QCheck.Test.fail_reportf "did not exit"))

(* ------------------------------------------------------------------ *)
(* Grid application on random configurations                           *)
(* ------------------------------------------------------------------ *)

let prop_grid_matches_golden =
  QCheck.Test.make ~count:8
    ~name:"grid app matches the golden model on random configurations"
    QCheck.(
      make
        Gen.(
          map4
            (fun ranks rows cols steps -> ranks, rows, cols, steps)
            (int_range 1 3) (int_range 2 4) (int_range 4 8) (int_range 1 8))
        ~print:(fun (r, rw, c, s) ->
          Printf.sprintf "ranks=%d rows=%d cols=%d steps=%d" r rw c s))
    (fun (ranks, rows_per_rank, cols, timesteps) ->
      let config =
        { Mcc.Gridapp.ranks; rows_per_rank; cols; timesteps;
          interval = (if timesteps > 2 then 2 else 0); work_us_per_step = 0 }
      in
      let golden = Mcc.Gridapp.golden_checksums config in
      let cluster = mk_cluster ~nodes:ranks Net.Faults.none in
      let d = Mcc.Gridapp.deploy cluster config in
      let _ = Mcc.Gridapp.run d in
      Array.for_all2
        (fun g s -> s = Some g)
        golden (Mcc.Gridapp.checksums d))

let suites =
  [
    ( "extended.des",
      [
        Alcotest.test_case "parallel nodes overlap" `Quick
          test_des_parallel_nodes;
        Alcotest.test_case "shared node serialises" `Quick
          test_des_shared_node_serializes;
        Alcotest.test_case "idle node waits without burning" `Quick
          test_des_idle_node_waits;
      ] );
    ( "extended.load_balancing",
      [
        Alcotest.test_case "transparent migration preserves results" `Quick
          test_transparent_migration;
        Alcotest.test_case "works for ML processes too" `Quick
          test_transparent_migration_of_ml;
        Alcotest.test_case "failed moves are invisible" `Quick
          test_move_rejections;
      ] );
    ( "extended.rank_mailboxes",
      [
        Alcotest.test_case "messages outlive the rank holder" `Quick
          test_rank_mailbox_continuity;
      ] );
    ( "extended.properties",
      [
        QCheck_alcotest.to_alcotest prop_wire_value_roundtrip;
        QCheck_alcotest.to_alcotest prop_minic_matches_reference;
        QCheck_alcotest.to_alcotest prop_miniml_matches_reference;
        QCheck_alcotest.to_alcotest prop_grid_matches_golden;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* MojaveFS-lite: speculative file I/O (paper Section 7 future work)   *)
(* ------------------------------------------------------------------ *)

let test_fs_roundtrip () =
  let prog =
    compile_c
      {|
int main() {
  int *buf = alloc_int(4);
  buf[0] = 10; buf[1] = 20; buf[2] = 30; buf[3] = 40;
  if (fs_write("data.bin", buf, 4) != 4) return 0 - 1;
  int *back = alloc_int(4);
  if (fs_read("data.bin", back, 4) != 4) return 0 - 2;
  return back[0] + back[1] + back[2] + back[3] + fs_size("data.bin");
}
|}
  in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 1 } in
  let pid = Net.Cluster.spawn cluster ~node_id:0 prog in
  let _ = Net.Cluster.run cluster in
  check "file round-trip through shared storage" true
    (status_of cluster pid = Vm.Process.Exited 104)

let test_fs_write_rolls_back () =
  let prog =
    compile_c
      {|
int main() {
  int *buf = alloc_int(1);
  buf[0] = 65; // 'A'
  fs_write("account", buf, 1);
  int specid = speculate();
  if (specid > 0) {
    buf[0] = 66; // 'B'
    fs_write("account", buf, 1);
    abort(specid); // the file write must be undone with the speculation
  }
  int *back = alloc_int(1);
  fs_read("account", back, 1);
  return back[0];
}
|}
  in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 1 } in
  let pid = Net.Cluster.spawn cluster ~node_id:0 prog in
  let _ = Net.Cluster.run cluster in
  check "aborted file write rolled back" true
    (status_of cluster pid = Vm.Process.Exited 65);
  (* the store itself holds the restored contents *)
  match Net.Storage.read (Net.Cluster.storage cluster) "account" with
  | Some (data, _) -> Alcotest.(check string) "store contents" "A" data
  | None -> Alcotest.fail "file missing"

let test_fs_commit_durable () =
  let prog =
    compile_c
      {|
int main() {
  int *buf = alloc_int(1);
  int specid = speculate();
  if (specid > 0) {
    buf[0] = 90;
    fs_write("fresh", buf, 1);
    commit(specid);
  }
  int *back = alloc_int(1);
  fs_read("fresh", back, 1);
  return back[0];
}
|}
  in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 1 } in
  let pid = Net.Cluster.spawn cluster ~node_id:0 prog in
  let _ = Net.Cluster.run cluster in
  check "committed file write is durable" true
    (status_of cluster pid = Vm.Process.Exited 90)

let test_fs_created_in_spec_removed_on_abort () =
  let prog =
    compile_c
      {|
int main() {
  int *buf = alloc_int(1);
  int specid = speculate();
  if (specid > 0) {
    buf[0] = 1;
    fs_write("ghost", buf, 1);
    abort(specid);
  }
  return fs_size("ghost"); // -1: the file never existed
}
|}
  in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 1 } in
  let pid = Net.Cluster.spawn cluster ~node_id:0 prog in
  let _ = Net.Cluster.run cluster in
  check "speculatively created file removed on abort" true
    (status_of cluster pid = Vm.Process.Exited (-1))

let fs_suite =
  ( "extended.mojavefs",
    [
      Alcotest.test_case "read/write/size round-trip" `Quick test_fs_roundtrip;
      Alcotest.test_case "aborted writes roll back" `Quick
        test_fs_write_rolls_back;
      Alcotest.test_case "committed writes are durable" `Quick
        test_fs_commit_durable;
      Alcotest.test_case "speculative creation is undone" `Quick
        test_fs_created_in_spec_removed_on_abort;
    ] )

(* ------------------------------------------------------------------ *)
(* Statement-level mini-C fuzzing vs an OCaml reference interpreter    *)
(* ------------------------------------------------------------------ *)

type cstmt =
  | SAssign of int * cexpr
  | SIf of cexpr * cstmt list * cstmt list
  | SFor of int * int * cstmt list
      (* for (v = 0; v < k; v = v + 1) body — the body never assigns v *)

let var_name = function 0 -> "a" | 1 -> "b" | _ -> "c"

(* generate statements; [frozen] lists loop variables the subtree must not
   assign (termination guarantee) *)
let cstmt_gen =
  let open QCheck.Gen in
  let rec stmts frozen fuel n =
    if n <= 0 then return []
    else
      stmt frozen fuel >>= fun s ->
      stmts frozen fuel (n - 1) >>= fun rest -> return (s :: rest)
  and stmt frozen fuel =
    let assignable =
      List.filter (fun v -> not (List.mem v frozen)) [ 0; 1; 2 ]
    in
    let assign =
      oneofl assignable >>= fun v ->
      cexpr_gen >>= fun e -> return (SAssign (v, e))
    in
    if fuel <= 0 || assignable = [] then assign
    else
      frequency
        [
          4, assign;
          ( 2,
            cexpr_gen >>= fun c ->
            int_range 1 3 >>= fun nt ->
            int_range 0 2 >>= fun ne ->
            stmts frozen (fuel - 1) nt >>= fun thn ->
            stmts frozen (fuel - 1) ne >>= fun els ->
            return (SIf (c, thn, els)) );
          ( 1,
            oneofl assignable >>= fun v ->
            int_range 1 4 >>= fun k ->
            int_range 1 3 >>= fun nb ->
            stmts (v :: frozen) (fuel - 1) nb >>= fun body ->
            return (SFor (v, k, body)) );
        ]
  in
  QCheck.Gen.(int_range 1 6 >>= fun n -> stmts [] 2 n)

let rec cstmt_to_c ind s =
  let pad = String.make ind ' ' in
  match s with
  | SAssign (v, e) ->
    Printf.sprintf "%s%s = %s;\n" pad (var_name v) (cexpr_to_c e)
  | SIf (c, thn, els) ->
    Printf.sprintf "%sif (%s) {\n%s%s} else {\n%s%s}\n" pad (cexpr_to_c c)
      (String.concat "" (List.map (cstmt_to_c (ind + 2)) thn))
      pad
      (String.concat "" (List.map (cstmt_to_c (ind + 2)) els))
      pad
  | SFor (v, k, body) ->
    Printf.sprintf "%sfor (%s = 0; %s < %d; %s = %s + 1) {\n%s%s}\n" pad
      (var_name v) (var_name v) k (var_name v) (var_name v)
      (String.concat "" (List.map (cstmt_to_c (ind + 2)) body))
      pad

let rec cstmt_eval env s =
  match s with
  | SAssign (v, e) -> env.(v) <- cexpr_eval env e
  | SIf (c, thn, els) ->
    if cexpr_eval env c <> 0 then List.iter (cstmt_eval env) thn
    else List.iter (cstmt_eval env) els
  | SFor (v, k, body) ->
    env.(v) <- 0;
    while env.(v) < k do
      List.iter (cstmt_eval env) body;
      env.(v) <- env.(v) + 1
    done

let cprog_to_c stmts =
  Printf.sprintf
    "int main() {\n  int a = 3; int b = 0 - 5; int c = 9;\n%s  return a +      10 * b + 100 * c;\n}"
    (String.concat "" (List.map (cstmt_to_c 2) stmts))

let cprog_eval stmts =
  let env = [| 3; -5; 9 |] in
  List.iter (cstmt_eval env) stmts;
  env.(0) + (10 * env.(1)) + (100 * env.(2))

let prop_minic_statements_match_reference =
  QCheck.Test.make ~count:100
    ~name:"random mini-C statement programs match the reference"
    (QCheck.make cstmt_gen ~print:cprog_to_c)
    (fun stmts ->
      let src = cprog_to_c stmts in
      let expected = cprog_eval stmts in
      match Minic.Driver.compile src with
      | Error err ->
        QCheck.Test.fail_reportf "did not compile: %s"
          (Minic.Driver.error_to_string err)
      | Ok fir -> (
        let proc = Vm.Process.create fir in
        match Vm.Interp.run proc with
        | Vm.Process.Exited n ->
          if n <> expected then
            QCheck.Test.fail_reportf "interp %d <> expected %d" n expected
          else begin
            let proc2 = Vm.Process.create ~arch:Vm.Arch.risc64 fir in
            let emu =
              Vm.Emulator.create
                (Vm.Codegen.compile ~arch:Vm.Arch.risc64 fir) proc2
            in
            match Vm.Emulator.run emu with
            | Vm.Process.Exited m ->
              m = expected
              || QCheck.Test.fail_reportf "emulator %d <> expected %d" m
                   expected
            | _ -> QCheck.Test.fail_reportf "emulator did not exit"
          end
        | Vm.Process.Trapped m -> QCheck.Test.fail_reportf "trapped: %s" m
        | _ -> QCheck.Test.fail_reportf "did not exit"))

let stmt_fuzz_suite =
  ( "extended.stmt_fuzz",
    [ QCheck_alcotest.to_alcotest prop_minic_statements_match_reference ] )

(* ------------------------------------------------------------------ *)
(* Cross-language differential: one algorithm, three front-ends, one   *)
(* FIR, identical behaviour                                            *)
(* ------------------------------------------------------------------ *)

let test_three_languages_agree () =
  let c_fir =
    compile_c
      {|
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main() { print_int(fib(15)); print_nl(); return fib(15) % 1000; }
|}
  in
  let ml_fir =
    match
      Miniml.Driver.compile
        "let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)\n\
         let main = print_int (fib 15); print_newline (); fib 15 - fib 15 / \
         1000 * 1000"
    with
    | Ok fir -> fir
    | Error e -> Alcotest.failf "%s" (Miniml.Driver.error_to_string e)
  in
  let pas_fir =
    match
      Pascal.Driver.compile
        {|
program f;
function fib(n: integer): integer;
begin
  if n < 2 then fib := n else fib := fib(n - 1) + fib(n - 2)
end;
begin
  writeln(fib(15));
  halt(fib(15) mod 1000)
end.
|}
    with
    | Ok fir -> fir
    | Error e -> Alcotest.failf "%s" (Pascal.Driver.error_to_string e)
  in
  let outcomes =
    List.map
      (fun fir ->
        let proc = Vm.Process.create fir in
        match Vm.Interp.run proc with
        | Vm.Process.Exited n -> n, Vm.Process.output proc
        | _ -> Alcotest.fail "a front-end's program failed")
      [ c_fir; ml_fir; pas_fir ]
  in
  (match outcomes with
  | [ (nc, oc); (nm, om); (np, op_) ] ->
    check_int "C = ML exit" nc nm;
    check_int "C = Pascal exit" nc np;
    Alcotest.(check string) "C = ML output" oc om;
    Alcotest.(check string) "C = Pascal output" oc op_
  | _ -> assert false);
  (* and all three images migrate through the same machinery *)
  List.iter
    (fun fir ->
      let fir' = Fir.Serial.decode (Fir.Serial.encode fir) in
      check "image re-verifies strictly" true
        (Fir.Typecheck.well_typed ~strict:true ~externs:Vm.Extern.signatures
           fir'))
    [ c_fir; ml_fir; pas_fir ]

(* ------------------------------------------------------------------ *)
(* The cascade follows a dependent that migrates mid-speculation        *)
(* ------------------------------------------------------------------ *)

let test_cascade_follows_migration () =
  (* sender (rank 0): speculative write + send, spins, rolls back.
     receiver (rank 1): consumes the speculative message inside its own
     speculation (joining the sender's), then polls a message that never
     comes.  We transparently migrate the receiver to a third node AFTER
     it consumed; the sender's rollback must still reach the successor.
     The sender's spin charges 0.3 s of work, so the receiver's
     destination finishes compiling it and the cut-over lands first. *)
  let sender =
    compile_c
      {|
int main() {
  int *buf = alloc_int(1);
  int specid = speculate();
  if (specid > 0) {
    buf[0] = 55;
    msg_send_int(1, 0, buf, 1);
    int i;
    for (i = 0; i < 30000; i = i + 1) { buf[0] = buf[0]; work_us(10); }
    abort(specid);
  }
  return 100;
}
|}
  in
  let receiver =
    compile_c
      {|
int main() {
  int *cell = alloc_int(1);
  int *buf = alloc_int(1);
  int specid = speculate();
  if (specid > 0) {
    int r = msg_try_recv_int(0, 0, buf, 1);
    while (r == 0 - 1) { r = msg_try_recv_int(0, 0, buf, 1); }
    cell[0] = buf[0];
    // wait for a second message that never arrives
    r = msg_try_recv_int(0, 1, buf, 1);
    while (r == 0 - 1) { r = msg_try_recv_int(0, 1, buf, 1); }
    return 111;
  }
  // forced rollback by the sender's abort lands here
  return 300 + cell[0];
}
|}
  in
  let net = Net.Simnet.create ~latency_us:0.01 ~connect_ms:0.001 () in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 3; net = Some net } in
  let spid = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 sender in
  let rpid = Net.Cluster.spawn cluster ~rank:1 ~node_id:1 receiver in
  (* run until the receiver has consumed and parked on the second poll *)
  let parked () =
    match Net.Cluster.entry_of_pid cluster rpid with
    | Some e -> e.Net.Cluster.parked_on = Some (Net.Mpi.Rank 0, 1)
    | None -> false
  in
  let _ = Net.Cluster.run cluster ~max_rounds:4000 ~stop:parked in
  check "receiver consumed and parked on the dead tag" true (parked ());
  check "sender still speculating" true
    (status_of cluster spid = Vm.Process.Running);
  (* migrate the parked receiver to node2 mid-speculation *)
  (match move_running cluster ~pid:rpid ~node_id:2 with
  | Error e ->
    Alcotest.failf "migration failed: %s"
      (Net.Cluster.migration_error_to_string e)
  | Ok rep ->
    let new_pid = rep.Net.Cluster.rep_pid in
    let _ = Net.Cluster.run cluster in
    check "sender rolled back and finished" true
      (status_of cluster spid = Vm.Process.Exited 100);
    (* the successor was cascaded: cell restored to 0, code path 300 *)
    check "cascade reached the migrated successor" true
      (status_of cluster new_pid = Vm.Process.Exited 300))

(* ------------------------------------------------------------------ *)
(* Checkpointing INSIDE an open speculation, then dying: the           *)
(* resurrected copy carries the speculation and can still roll back    *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_inside_speculation () =
  let prog =
    compile_c
      {|
int main() {
  int *cell = alloc_int(1);
  cell[0] = 5;
  int specid = speculate();
  if (specid > 0) {
    cell[0] = 99;                       // speculative write
    migrate("checkpoint://midspec");    // checkpoint with the level OPEN
    abort(specid);                      // then roll back
  }
  return cell[0] * 10;                  // 50 if the write was undone
}
|}
  in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let pid = Net.Cluster.spawn cluster ~node_id:0 prog in
  let _ = Net.Cluster.run cluster in
  check "original rolled back after its checkpoint" true
    (status_of cluster pid = Vm.Process.Exited 50);
  (* resurrect the mid-speculation image: the restored level must roll
     back over the RESTORED heap exactly the same way *)
  match Net.Cluster.resurrect cluster ~node_id:1 ~path:"midspec" with
  | Error m -> Alcotest.failf "resurrect failed: %s" m
  | Ok new_pid ->
    let _ = Net.Cluster.run cluster in
    check "resurrected copy rolled back its restored speculation" true
      (status_of cluster new_pid = Vm.Process.Exited 50)

let midspec_suite =
  ( "extended.midspec_checkpoint",
    [
      Alcotest.test_case
        "a checkpoint taken inside a speculation restores and rolls back"
        `Quick test_checkpoint_inside_speculation;
    ] )

(* ------------------------------------------------------------------ *)
(* Pointer-table property: random alloc/free/set sequences vs a model  *)
(* ------------------------------------------------------------------ *)

type ptop = PAlloc of int | PFree of int | PSet of int * int

let ptop_gen =
  let open QCheck.Gen in
  frequency
    [
      3, map (fun a -> PAlloc (abs a)) small_int;
      1, map (fun i -> PFree (abs i)) small_int;
      2, map2 (fun i a -> PSet (abs i, abs a)) small_int small_int;
    ]

let prop_pointer_table_model =
  QCheck.Test.make ~count:200
    ~name:"pointer table matches a map model under random operations"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 80) ptop_gen)
       ~print:(fun ops ->
         String.concat ";"
           (List.map
              (function
                | PAlloc a -> Printf.sprintf "alloc %d" a
                | PFree i -> Printf.sprintf "free %d" i
                | PSet (i, a) -> Printf.sprintf "set %d %d" i a)
              ops)))
    (fun ops ->
      let t = Pointer_table.create ~initial_capacity:2 () in
      let model = Hashtbl.create 16 in
      let issued = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | PAlloc a ->
            let idx = Pointer_table.alloc t a in
            if Hashtbl.mem model idx then ok := false (* reused a LIVE idx *);
            Hashtbl.replace model idx a;
            issued := idx :: !issued
          | PFree k -> (
            match !issued with
            | [] -> ()
            | l ->
              let idx = List.nth l (k mod List.length l) in
              Pointer_table.free t idx;
              Hashtbl.remove model idx)
          | PSet (k, a) -> (
            match !issued with
            | [] -> ()
            | l -> (
              let idx = List.nth l (k mod List.length l) in
              match Pointer_table.set t idx a with
              | () ->
                if not (Hashtbl.mem model idx) then ok := false
                else Hashtbl.replace model idx a
              | exception Pointer_table.Invalid_pointer _ ->
                if Hashtbl.mem model idx then ok := false)))
        ops;
      (* every model entry readable with the right address; every
         non-model issued index invalid *)
      Hashtbl.iter
        (fun idx addr ->
          if Pointer_table.get t idx <> addr then ok := false)
        model;
      List.iter
        (fun idx ->
          if
            (not (Hashtbl.mem model idx)) && Pointer_table.is_valid t idx
          then ok := false)
        !issued;
      !ok && Pointer_table.live_count t = Hashtbl.length model)

(* minor collection with a pinned YOUNG original *)
let test_gc_minor_pinned_young () =
  let h = Heap.create () in
  let e = Spec.Engine.create h in
  (* everything here is young: block, clone and record *)
  let idx = Heap.alloc h ~tag:Heap.Array ~size:2 ~init:(Value.Vint 7) in
  let _ = Spec.Engine.enter e ~cont:{ Spec.Engine.entry = "x"; args = [] } in
  Heap.write h idx 0 (Value.Vint 8);
  for _ = 1 to 10 do
    ignore (Heap.alloc h ~tag:Heap.Array ~size:16 ~init:Value.Vunit)
  done;
  let res =
    Gc.collect h ~kind:Gc.Minor
      ~roots:[ Value.Vptr (idx, 0) ]
      ~pinned:(Spec.Engine.records e)
  in
  Spec.Engine.rewrite_after_gc e res;
  Heap.validate h;
  let _ = Spec.Engine.rollback e 1 in
  check "young original survived the minor collection" true
    (Value.equal (Heap.read h idx 0) (Value.Vint 7))

let more_runtime_suite =
  ( "extended.runtime_more",
    [
      QCheck_alcotest.to_alcotest prop_pointer_table_model;
      Alcotest.test_case "minor GC pins young originals" `Quick
        test_gc_minor_pinned_young;
    ] )

let cascade_migration_suite =
  ( "extended.cascade_migration",
    [
      Alcotest.test_case "rollback cascade follows a migrated dependent"
        `Quick test_cascade_follows_migration;
    ] )

let cross_suite =
  ( "extended.cross_language",
    [
      Alcotest.test_case "C, ML and Pascal agree on the same algorithm"
        `Quick test_three_languages_agree;
    ] )

let suites =
  suites
  @ [
      fs_suite; stmt_fuzz_suite; cross_suite; midspec_suite;
      more_runtime_suite; cascade_migration_suite;
    ]
