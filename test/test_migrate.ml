(* Tests for migration: protocol parsing, the process-image wire format,
   pack/unpack round-trips (homogeneous and heterogeneous), the binary
   fast path, mid-speculation migration, and the migration server's
   rejection of corrupt or unsafe images. *)

open Fir
open Runtime

open Kit

let exit_code = function
  | Vm.Process.Exited n -> n
  | Vm.Process.Trapped msg -> Alcotest.failf "trapped: %s" msg
  | Vm.Process.Running -> Alcotest.fail "still running"
  | Vm.Process.Migrating _ -> Alcotest.fail "unexpectedly migrating"

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse () =
  (match Migrate.Protocol.parse "mcc://node3" with
  | Migrate.Protocol.Migrate_to h -> check_str "host" "node3" h
  | _ -> Alcotest.fail "wrong protocol");
  (match Migrate.Protocol.parse "suspend://ckpt.img" with
  | Migrate.Protocol.Suspend_to p -> check_str "path" "ckpt.img" p
  | _ -> Alcotest.fail "wrong protocol");
  (match Migrate.Protocol.parse "checkpoint://step5" with
  | Migrate.Protocol.Checkpoint_to p -> check_str "path" "step5" p
  | _ -> Alcotest.fail "wrong protocol");
  check "ckpt alias" true
    (Migrate.Protocol.parse "ckpt://x" = Migrate.Protocol.Checkpoint_to "x");
  List.iter
    (fun bad ->
      match Migrate.Protocol.parse bad with
      | exception Migrate.Protocol.Bad_target _ -> ()
      | _ -> Alcotest.failf "accepted bad target %S" bad)
    [ ""; "mcc://"; "nonsense"; "http://x"; "mcc:/x" ];
  check "checkpoint continues" true
    (Migrate.Protocol.continues_after_success
       (Migrate.Protocol.Checkpoint_to "x"));
  check "migrate does not continue" false
    (Migrate.Protocol.continues_after_success
       (Migrate.Protocol.Migrate_to "x"))

let test_protocol_roundtrip () =
  List.iter
    (fun t ->
      check "to_string/parse roundtrip" true
        (Migrate.Protocol.parse (Migrate.Protocol.to_string t) = t))
    [
      Migrate.Protocol.Migrate_to "host9";
      Migrate.Protocol.Suspend_to "a/b.img";
      Migrate.Protocol.Checkpoint_to "c";
    ]

(* ------------------------------------------------------------------ *)
(* A migrating workload                                                *)
(* ------------------------------------------------------------------ *)

(* Fill an array with 0..n-1, sum the first half, migrate with the array
   and the partial sum live, then finish the sum on the other side. *)
let migrating_sum n =
  Builder.(
    let fill, fill_entry =
      for_loop ~name:"fill" ~lo:(int 0) ~hi:(int n)
        ~state_tys:[ Types.Tptr Types.Tint ]
        ~state:[ nil (Types.Tptr Types.Tint) ] (* replaced below *)
        ~body:(fun i st continue ->
          match st with
          | [ arr ] -> store arr i i (continue [ arr ])
          | _ -> assert false)
        ~after:(fun st ->
          match st with
          | [ arr ] -> callf "sum_lo" [ arr; int 0; int 0 ]
          | _ -> assert false)
    in
    ignore fill_entry;
    let sum_lo =
      func "sum_lo"
        [ "arr", Types.Tptr Types.Tint; "i", Types.Tint; "acc", Types.Tint ]
        (fun args ->
          match args with
          | [ arr; i; acc ] ->
            lt i (int (n / 2)) (fun more ->
                if_ more
                  (load Types.Tint arr i (fun x ->
                       add acc x (fun acc' ->
                           add i (int 1) (fun i' ->
                               callf "sum_lo" [ arr; i'; acc' ]))))
                  (string "mcc://elsewhere" (fun dst ->
                       migrate ~label:17 dst (fn "sum_hi")
                         [ arr; i; acc ])))
          | _ -> assert false)
    in
    let sum_hi =
      func "sum_hi"
        [ "arr", Types.Tptr Types.Tint; "i", Types.Tint; "acc", Types.Tint ]
        (fun args ->
          match args with
          | [ arr; i; acc ] ->
            lt i (int n) (fun more ->
                if_ more
                  (load Types.Tint arr i (fun x ->
                       add acc x (fun acc' ->
                           add i (int 1) (fun i' ->
                               callf "sum_hi" [ arr; i'; acc' ]))))
                  (exit_ acc))
          | _ -> assert false)
    in
    let main =
      func "main" [] (fun _ ->
          array Types.Tint ~size:(int n) ~init:(int 0) (fun arr ->
              callf "fill" [ int 0; arr ]))
    in
    prog [ fill; sum_lo; sum_hi; main ])

let run_to_migration ?(arch = Vm.Arch.cisc32) p =
  let proc = Vm.Process.create ~arch p in
  match Vm.Interp.run proc with
  | Vm.Process.Migrating req -> proc, req
  | s ->
    Alcotest.failf "expected migration, got %s"
      (match s with
      | Vm.Process.Exited n -> Printf.sprintf "exit %d" n
      | Vm.Process.Trapped m -> "trap " ^ m
      | _ -> "?")

let expected_sum n = n * (n - 1) / 2

(* ------------------------------------------------------------------ *)
(* Pack / unpack                                                       *)
(* ------------------------------------------------------------------ *)

let test_pack_roundtrip_untrusted () =
  let n = 60 in
  let proc, _req = run_to_migration (migrating_sum n) in
  let packed = Migrate.Pack.pack_request proc in
  match
    Migrate.Pack.unpack ~arch:Vm.Arch.cisc32 packed.Migrate.Pack.p_bytes
  with
  | Error msg -> Alcotest.failf "unpack failed: %s" msg
  | Ok (proc', _masm, _linked, costs) ->
    check "untrusted images are verified" true costs.Migrate.Pack.u_verified;
    check "untrusted images are recompiled" true
      costs.Migrate.Pack.u_recompiled;
    check "compile cycles charged" true
      (costs.Migrate.Pack.u_compile_cycles > 0);
    let status = Vm.Interp.run proc' in
    check_int "migrated process finishes the sum" (expected_sum n)
      (exit_code status)

let test_pack_roundtrip_binary () =
  let n = 40 in
  let proc, _req = run_to_migration (migrating_sum n) in
  let packed = Migrate.Pack.pack_request proc in
  match
    Migrate.Pack.unpack ~trusted:true ~arch:Vm.Arch.cisc32
      packed.Migrate.Pack.p_bytes
  with
  | Error msg -> Alcotest.failf "unpack failed: %s" msg
  | Ok (proc', masm, _linked, costs) ->
    check "binary fast path skips recompilation" false
      costs.Migrate.Pack.u_recompiled;
    (* only the stub-linking charge remains: it must be well under the
       full recompile of the same image *)
    let full =
      match
        Migrate.Pack.unpack ~trusted:false ~arch:Vm.Arch.cisc32
          packed.Migrate.Pack.p_bytes
      with
      | Ok (_, _, _, c) -> c.Migrate.Pack.u_compile_cycles
      | Error m -> Alcotest.failf "untrusted unpack failed: %s" m
    in
    check "fast path much cheaper than recompilation" true
      (costs.Migrate.Pack.u_compile_cycles * 3 < full);
    (* the shipped binary actually runs *)
    let emu = Vm.Emulator.create masm proc' in
    check_int "shipped binary resumes correctly" (expected_sum n)
      (exit_code (Vm.Emulator.run emu))

let test_pack_heterogeneous () =
  let n = 40 in
  let proc, _req = run_to_migration ~arch:Vm.Arch.cisc32 (migrating_sum n) in
  let packed = Migrate.Pack.pack_request proc in
  (* even a trusted image cannot use the binary fast path cross-arch *)
  match
    Migrate.Pack.unpack ~trusted:true ~arch:Vm.Arch.risc64
      packed.Migrate.Pack.p_bytes
  with
  | Error msg -> Alcotest.failf "unpack failed: %s" msg
  | Ok (proc', masm, _linked, costs) ->
    check "cross-arch forces recompilation" true
      costs.Migrate.Pack.u_recompiled;
    check_str "image recompiled for target" "risc64" masm.Vm.Masm.im_arch;
    let emu = Vm.Emulator.create masm proc' in
    check_int "resumes on the other architecture" (expected_sum n)
      (exit_code (Vm.Emulator.run emu))

let test_pack_gc_shrinks_image () =
  (* pack garbage-collects first: an image of a process with lots of
     garbage must not be much bigger than one without *)
  let p_with_garbage =
    Builder.(
      let churn, churn_entry =
        for_loop ~name:"churn" ~lo:(int 0) ~hi:(int 2000) ~state_tys:[]
          ~state:[]
          ~body:(fun _i _st continue ->
            tuple [ Types.Tint, int 1 ] (fun _ -> continue []))
          ~after:(fun _st ->
            string "mcc://x" (fun dst ->
                migrate ~label:1 dst (fn "after") []))
      in
      ignore churn_entry;
      prog
        [
          churn;
          func "after" [] (fun _ -> exit_ (int 0));
          func "main" [] (fun _ -> callf "churn" [ int 0 ]);
        ])
  in
  let proc, _ = run_to_migration p_with_garbage in
  let packed = Migrate.Pack.pack_request ~with_binary:false proc in
  let live_cells =
    Array.length packed.Migrate.Pack.p_image.Migrate.Wire.i_cells
  in
  check "pack collected the garbage" true (live_cells < 1000)

let test_spec_migration () =
  (* checkpoint in the middle of a speculation, restore, then roll back:
     the restored records must still work *)
  let p =
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
                      (store cell (int 0) (int 99)
                         (string "mcc://backup" (fun dst ->
                              migrate ~label:5 dst (fn "resume_pt")
                                [ cell ])))
                      (load Types.Tint cell (int 0) (fun v -> exit_ v)))
              | _ -> assert false);
          func "resume_pt" [ "cell", Types.Tptr Types.Tint ] (fun args ->
              match args with
              | [ _cell ] -> rollback (int 1) (int 1)
              | _ -> assert false);
          func "main" [] (fun _ ->
              array Types.Tint ~size:(int 1) ~init:(int 5) (fun cell ->
                  speculate (fn "body") [ cell ]));
        ])
  in
  let proc, _ = run_to_migration p in
  check_int "speculation depth travels" 1
    (Spec.Engine.depth proc.Vm.Process.spec);
  let packed = Migrate.Pack.pack_request proc in
  match Migrate.Pack.unpack ~arch:Vm.Arch.cisc32 packed.Migrate.Pack.p_bytes with
  | Error msg -> Alcotest.failf "unpack failed: %s" msg
  | Ok (proc', _, _, _) ->
    check_int "restored speculation depth" 1
      (Spec.Engine.depth proc'.Vm.Process.spec);
    let status = Vm.Interp.run proc' in
    (* rollback after restore must see the pre-speculation value *)
    check_int "restored records roll back correctly" 5 (exit_code status)

(* ------------------------------------------------------------------ *)
(* Rejection paths                                                     *)
(* ------------------------------------------------------------------ *)

let packed_bytes () =
  let proc, _ = run_to_migration (migrating_sum 20) in
  (Migrate.Pack.pack_request proc).Migrate.Pack.p_bytes

let test_reject_corrupt () =
  let bytes = packed_bytes () in
  let b = Bytes.of_string bytes in
  let k = Bytes.length b / 2 in
  Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 0x55));
  match Migrate.Pack.unpack ~arch:Vm.Arch.cisc32 (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt image accepted"

let test_reject_truncated () =
  let bytes = packed_bytes () in
  match
    Migrate.Pack.unpack ~arch:Vm.Arch.cisc32
      (String.sub bytes 0 (String.length bytes - 10))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated image accepted"

(* Re-encode a tampered image (valid checksums, malicious content). *)
let reencode tamper =
  let proc, _ = run_to_migration (migrating_sum 20) in
  let packed = Migrate.Pack.pack_request proc in
  Migrate.Wire.encode (tamper packed.Migrate.Pack.p_image)

let test_reject_ill_typed_fir () =
  (* replace the FIR with a program that reads an int as a pointer *)
  let evil =
    let v = Var.fresh "p" in
    Ast.program ~main:"main"
      [
        {
          Ast.f_name = "main";
          f_params = [];
          f_body =
            Ast.Let_atom
              ( v,
                Types.Tptr Types.Tint,
                Ast.Int 1234,
                Ast.Exit (Ast.Int 0) );
        };
      ]
  in
  let bytes =
    (* the digest must match the substituted bytes, or the wire layer
       rejects before the typechecker ever runs — that path has its own
       test below *)
    reencode (fun im ->
        let fir = Serial.encode evil in
        { im with
          Migrate.Wire.i_fir = fir;
          i_digest = Fir.Digest.of_encoded fir;
        })
  in
  (match Migrate.Pack.unpack ~arch:Vm.Arch.cisc32 bytes with
  | Error msg ->
    if not (String.length msg >= 12 && String.sub msg 0 12 = "FIR rejected")
    then Alcotest.failf "expected a typecheck rejection, got: %s" msg
  | Ok _ -> Alcotest.fail "ill-typed FIR accepted by untrusted unpack");
  (* note: a TRUSTED unpack would accept it — trust is the only bypass *)
  ()

let test_reject_digest_mismatch () =
  (* swap the FIR without fixing the digest: the wire layer must reject
     the image as corrupt before typecheck or cache can see it *)
  let other =
    let proc, _ = run_to_migration (migrating_sum 21) in
    (Migrate.Pack.pack_request proc).Migrate.Pack.p_image
  in
  let bytes =
    reencode (fun im -> { im with Migrate.Wire.i_fir = other.Migrate.Wire.i_fir })
  in
  match Migrate.Pack.unpack ~arch:Vm.Arch.cisc32 bytes with
  | Error msg ->
    if
      not
        (String.length msg >= 7 && String.sub msg 0 7 = "corrupt")
    then Alcotest.failf "expected a corrupt-image rejection, got: %s" msg
  | Ok _ -> Alcotest.fail "digest-mismatched image accepted"

let test_reject_bad_menv () =
  let bytes =
    reencode (fun im -> { im with Migrate.Wire.i_menv = 999999 })
  in
  match Migrate.Pack.unpack ~arch:Vm.Arch.cisc32 bytes with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad migrate_env accepted"

let test_reject_bad_entry () =
  let bytes =
    reencode (fun im -> { im with Migrate.Wire.i_entry = "no_such_fun" })
  in
  match Migrate.Pack.unpack ~arch:Vm.Arch.cisc32 bytes with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown resume function accepted"

let test_reject_bad_ftable () =
  let bytes =
    reencode (fun im ->
        { im with Migrate.Wire.i_ftable = [ "bogus"; "entries" ] })
  in
  match Migrate.Pack.unpack ~arch:Vm.Arch.cisc32 bytes with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong function table accepted"

let test_reject_forged_heap_ref () =
  (* plant a reference to a pointer-table index that does not exist *)
  let bytes =
    reencode (fun im ->
        let cells = Array.copy im.Migrate.Wire.i_cells in
        (* find a data cell (skip a header) and forge it *)
        cells.(Heap.header_cells) <- Value.Vptr (424242, 0);
        { im with Migrate.Wire.i_cells = cells })
  in
  match Migrate.Pack.unpack ~arch:Vm.Arch.cisc32 bytes with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forged heap reference accepted"

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

let test_server () =
  let server = Migrate.Server.(create_cfg Config.default Vm.Arch.risc64) in
  let bytes = packed_bytes () in
  (match Migrate.Server.handle server bytes with
  | Error msg -> Alcotest.failf "server rejected a good image: %s" msg
  | Ok outcome ->
    check_int "fresh pid assigned" 1000 outcome.Migrate.Server.o_pid;
    let emu =
      Vm.Emulator.create outcome.Migrate.Server.o_masm
        outcome.Migrate.Server.o_process
    in
    check_int "server-reconstructed process runs" (expected_sum 20)
      (exit_code (Vm.Emulator.run emu)));
  (match Migrate.Server.handle server "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "server accepted garbage");
  let count = Obs.Metrics.counter_value (Migrate.Server.metrics server) in
  check_int "accepted" 1 (count "server.accepted");
  check_int "rejected" 1 (count "server.rejected");
  check_int "recompilations" 1 (count "server.recompilations")

let test_image_size_scales () =
  let size n =
    let proc, _ = run_to_migration (migrating_sum n) in
    String.length
      (Migrate.Pack.pack_request ~with_binary:false proc)
        .Migrate.Pack.p_bytes
  in
  let s100 = size 100 and s1000 = size 1000 in
  (* 900 extra int cells over a fixed FIR payload; v7's varint/run-length
     heap segments cost at least one wire byte per distinct cell *)
  check "image size grows with heap" true (s1000 - s100 > 900)

let suites =
  [
    ( "migrate.protocol",
      [
        Alcotest.test_case "parsing" `Quick test_protocol_parse;
        Alcotest.test_case "round-trip" `Quick test_protocol_roundtrip;
      ] );
    ( "migrate.pack",
      [
        Alcotest.test_case "untrusted round-trip (verify+recompile)" `Quick
          test_pack_roundtrip_untrusted;
        Alcotest.test_case "trusted binary fast path" `Quick
          test_pack_roundtrip_binary;
        Alcotest.test_case "heterogeneous migration" `Quick
          test_pack_heterogeneous;
        Alcotest.test_case "pack collects garbage first" `Quick
          test_pack_gc_shrinks_image;
        Alcotest.test_case "mid-speculation migration" `Quick
          test_spec_migration;
        Alcotest.test_case "image size scales with heap" `Quick
          test_image_size_scales;
      ] );
    ( "migrate.reject",
      [
        Alcotest.test_case "corrupt bytes" `Quick test_reject_corrupt;
        Alcotest.test_case "truncated bytes" `Quick test_reject_truncated;
        Alcotest.test_case "ill-typed FIR" `Quick test_reject_ill_typed_fir;
        Alcotest.test_case "FIR digest mismatch" `Quick
          test_reject_digest_mismatch;
        Alcotest.test_case "bad migrate_env" `Quick test_reject_bad_menv;
        Alcotest.test_case "unknown resume function" `Quick
          test_reject_bad_entry;
        Alcotest.test_case "wrong function table" `Quick
          test_reject_bad_ftable;
        Alcotest.test_case "forged heap reference" `Quick
          test_reject_forged_heap_ref;
      ] );
    ( "migrate.server",
      [ Alcotest.test_case "accept/reject statistics" `Quick test_server ] );
  ]
