(* Tests for the content-addressed recompilation cache: FIR digests, the
   v6 wire header, hit/miss/eviction accounting, LRU order,
   cross-architecture and trust-mode isolation, negative caching of
   hostile payloads, and the disabled-cache (--code-cache 0) path
   matching uncached behaviour. *)

open Fir

open Kit

(* the migrating workload and driver from the migration tests *)
let migrating_sum = Test_migrate.migrating_sum
let run_to_migration = Test_migrate.run_to_migration

let packed_bytes n =
  let proc, _ = run_to_migration (migrating_sum n) in
  (Migrate.Pack.pack_request proc).Migrate.Pack.p_bytes

let finish proc masm =
  let emu = Vm.Emulator.create masm proc in
  let rec go () =
    match proc.Vm.Process.status with
    | Vm.Process.Running ->
      Vm.Emulator.step emu;
      go ()
    | s -> s
  in
  match go () with
  | Vm.Process.Exited n -> n
  | s ->
    Alcotest.failf "process did not exit: %s"
      (match s with
      | Vm.Process.Trapped m -> "trap " ^ m
      | Vm.Process.Migrating _ -> "migrating"
      | _ -> "?")

(* a counter from the cache's registry *)
let count cache name =
  Obs.Metrics.counter_value (Migrate.Codecache.metrics cache) name

let unpack ?cache ?(trusted = false) ?(arch = Vm.Arch.cisc32) bytes =
  match Migrate.Pack.unpack ?cache ~trusted ~arch bytes with
  | Ok r -> r
  | Error m -> Alcotest.failf "unpack failed: %s" m

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

let test_digest_stable () =
  let p = migrating_sum 30 in
  let d1 = Digest.of_program p in
  let d2 = Digest.of_encoded (Serial.encode p) in
  check_str "digest is a function of the canonical encoding" d1 d2;
  check_int "hex digest length" Digest.hex_length (String.length d1);
  let q = migrating_sum 31 in
  check "different programs digest differently" false
    (String.equal d1 (Digest.of_program q))

let test_wire_v6_roundtrip () =
  let proc, _ = run_to_migration (migrating_sum 24) in
  let packed = Migrate.Pack.pack_request proc in
  let im = packed.Migrate.Pack.p_image in
  check_str "header digest matches the FIR payload"
    (Digest.of_encoded im.Migrate.Wire.i_fir)
    im.Migrate.Wire.i_digest;
  let im' = Migrate.Wire.decode packed.Migrate.Pack.p_bytes in
  check_str "digest survives the round trip" im.Migrate.Wire.i_digest
    im'.Migrate.Wire.i_digest;
  check_str "FIR survives the round trip" im.Migrate.Wire.i_fir
    im'.Migrate.Wire.i_fir

(* ------------------------------------------------------------------ *)
(* Hit / miss / equivalence                                            *)
(* ------------------------------------------------------------------ *)

let test_cache_hit () =
  let n = 40 in
  let bytes = packed_bytes n in
  let cache = Migrate.Codecache.create ~capacity:8 () in
  let _, _, compiled_cold, cold = unpack ~cache bytes in
  check "first delivery misses" false cold.Migrate.Pack.u_cache_hit;
  check "first delivery compiles" true cold.Migrate.Pack.u_recompiled;
  let proc, masm, compiled_warm, warm = unpack ~cache bytes in
  check "second delivery hits" true warm.Migrate.Pack.u_cache_hit;
  check "hit does not recompile" false warm.Migrate.Pack.u_recompiled;
  (* the warm hop resumes into the SAME closure-compiled image — the
     closure arrays are memoized, not rebuilt per delivery *)
  check "hit reuses the cached compiled image" true
    (compiled_warm == compiled_cold);
  check "hit still verified" true warm.Migrate.Pack.u_verified;
  check "hit charges strictly fewer cycles" true
    (warm.Migrate.Pack.u_compile_cycles < cold.Migrate.Pack.u_compile_cycles);
  check_int "hit charges link cycles only"
    (Vm.Codegen.simulated_link_cycles masm)
    warm.Migrate.Pack.u_compile_cycles;
  (* the cached code is the real thing: the process finishes correctly *)
  check_int "resumed process computes the right sum"
    (Test_migrate.expected_sum n) (finish proc masm);
  check_int "one hit recorded" 1 (count cache "codecache.hits");
  check_int "one miss recorded" 1 (count cache "codecache.misses")

let test_cache_disabled_matches_uncached () =
  let bytes = packed_bytes 26 in
  let cache = Migrate.Codecache.create ~capacity:0 () in
  let _, _, _, c1 = unpack ~cache bytes in
  let _, _, _, c2 = unpack ~cache bytes in
  let _, _, _, plain = unpack bytes in
  List.iter
    (fun (c : Migrate.Pack.unpack_costs) ->
      check "no hit" false c.Migrate.Pack.u_cache_hit;
      check "always recompiles" true c.Migrate.Pack.u_recompiled;
      check_int "same cycles as the uncached path"
        plain.Migrate.Pack.u_compile_cycles c.Migrate.Pack.u_compile_cycles)
    [ c1; c2 ];
  check_int "disabled cache records nothing" 0
    (count cache "codecache.lookups" + count cache "codecache.hits"
    + count cache "codecache.misses" + count cache "codecache.insertions");
  check_int "disabled cache stores nothing" 0
    (Migrate.Codecache.length cache)

(* ------------------------------------------------------------------ *)
(* Isolation                                                           *)
(* ------------------------------------------------------------------ *)

let test_cross_arch_isolation () =
  let bytes = packed_bytes 28 in
  let cache = Migrate.Codecache.create ~capacity:8 () in
  let _, _, _, _ = unpack ~cache ~arch:Vm.Arch.cisc32 bytes in
  let _, masm64, _, c = unpack ~cache ~arch:Vm.Arch.risc64 bytes in
  check "another architecture never hits" false c.Migrate.Pack.u_cache_hit;
  check_str "risc64 got risc64 code" Vm.Arch.risc64.Vm.Arch.name
    masm64.Vm.Masm.im_arch;
  let _, masm64', _, c' = unpack ~cache ~arch:Vm.Arch.risc64 bytes in
  check "same architecture hits" true c'.Migrate.Pack.u_cache_hit;
  check_str "the hit serves matching code" Vm.Arch.risc64.Vm.Arch.name
    masm64'.Vm.Masm.im_arch;
  check_int "both architectures cached" 2 (Migrate.Codecache.length cache)

let test_trust_mode_isolation () =
  let bytes = packed_bytes 28 in
  let cache = Migrate.Codecache.create ~capacity:8 () in
  let _, _, _, _ = unpack ~cache ~trusted:true bytes in
  (* an entry admitted without a typecheck must not serve a verified
     request *)
  let _, _, _, c = unpack ~cache ~trusted:false bytes in
  check "trusted entry cannot serve a verified request" false
    c.Migrate.Pack.u_cache_hit;
  check "the verified request ran the full pipeline" true
    c.Migrate.Pack.u_verified

(* ------------------------------------------------------------------ *)
(* Eviction and bounds                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction () =
  let a = packed_bytes 30 in
  let b = packed_bytes 31 in
  let cache = Migrate.Codecache.create ~capacity:1 () in
  let _, _, _, _ = unpack ~cache a in
  let _, _, _, _ = unpack ~cache b in
  (* b displaced a *)
  check_int "capacity bound holds" 1 (Migrate.Codecache.length cache);
  let _, _, _, ca = unpack ~cache a in
  check "evicted entry misses again" false ca.Migrate.Pack.u_cache_hit;
  check "evictions recorded" true (count cache "codecache.evictions" >= 2);
  check_int "no hit ever possible at capacity 1 with alternation" 0
    (count cache "codecache.hits")

(* A FIFO would pass the capacity-1 test above: at capacity 2, a lookup
   must save its entry from the next eviction. *)
let test_lru_order () =
  let a = packed_bytes 30 and b = packed_bytes 31 and c = packed_bytes 32 in
  let cache = Migrate.Codecache.create ~capacity:2 () in
  let hit bytes =
    let _, _, _, costs = unpack ~cache bytes in
    costs.Migrate.Pack.u_cache_hit
  in
  ignore (hit a);
  ignore (hit b);
  check "the lookup of a hits" true (hit a);
  ignore (hit c);
  check_int "one eviction" 1 (count cache "codecache.evictions");
  check "a survives: its lookup made b the stalest" true (hit a);
  check "b was evicted" false (hit b)


(* ------------------------------------------------------------------ *)
(* Negative caching                                                    *)
(* ------------------------------------------------------------------ *)

let test_negative_caching () =
  (* an ill-typed program, packaged with a consistent digest *)
  let evil =
    let v = Var.fresh "p" in
    Ast.program ~main:"main"
      [
        {
          Ast.f_name = "main";
          f_params = [];
          f_body =
            Ast.Let_atom
              (v, Types.Tptr Types.Tint, Ast.Int 9, Ast.Exit (Ast.Int 0));
        };
      ]
  in
  let proc, _ = run_to_migration (migrating_sum 20) in
  let im = (Migrate.Pack.pack_request proc).Migrate.Pack.p_image in
  let fir = Serial.encode evil in
  let bytes =
    Migrate.Wire.encode
      { im with
        Migrate.Wire.i_fir = fir;
        i_digest = Digest.of_encoded fir;
      }
  in
  let cache = Migrate.Codecache.create ~capacity:8 () in
  let reject () =
    match Migrate.Pack.unpack ~cache ~arch:Vm.Arch.cisc32 bytes with
    | Error msg -> check "typecheck rejection" true
                     (String.length msg >= 12
                      && String.sub msg 0 12 = "FIR rejected")
    | Ok _ -> Alcotest.fail "ill-typed FIR accepted"
  in
  reject ();
  reject ();
  check_int "second rejection served from the negative entry" 1
    (count cache "codecache.hits");
  check_int "only one typecheck paid" 1 (count cache "codecache.misses");
  check_str "a negative entry holds no instructions"
    "1 entries (0 instrs), 1 hits / 1 misses, 0 evictions"
    (Migrate.Codecache.report cache)

(* ------------------------------------------------------------------ *)
(* Accounting consistency                                              *)
(* ------------------------------------------------------------------ *)

(* An ill-typed program packaged with a consistent digest — produces a
   NEGATIVE cache entry (cached rejection, zero instructions). *)
let hostile_bytes () =
  let evil =
    let v = Var.fresh "p" in
    Ast.program ~main:"main"
      [
        {
          Ast.f_name = "main";
          f_params = [];
          f_body =
            Ast.Let_atom
              (v, Types.Tptr Types.Tint, Ast.Int 9, Ast.Exit (Ast.Int 0));
        };
      ]
  in
  let proc, _ = run_to_migration (migrating_sum 21) in
  let im = (Migrate.Pack.pack_request proc).Migrate.Pack.p_image in
  let fir = Serial.encode evil in
  Migrate.Wire.encode
    { im with Migrate.Wire.i_fir = fir; i_digest = Digest.of_encoded fir }

let test_stats_consistency () =
  let a = packed_bytes 33 in
  let b = packed_bytes 34 in
  let evil = hostile_bytes () in
  let cache = Migrate.Codecache.create ~capacity:8 () in
  let _ = unpack ~cache a in
  let _ = unpack ~cache a in
  let _ = unpack ~cache b in
  let _ = unpack ~cache ~trusted:true b in
  (match Migrate.Pack.unpack ~cache ~arch:Vm.Arch.cisc32 evil with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ill-typed FIR accepted");
  check_int "lookups = hits + misses"
    (count cache "codecache.lookups")
    (count cache "codecache.hits" + count cache "codecache.misses");
  check_int "one lookup per delivery" 5 (count cache "codecache.lookups")

(* ------------------------------------------------------------------ *)
(* Cluster aggregation                                                 *)
(* ------------------------------------------------------------------ *)

let caches cl =
  List.init (Net.Cluster.node_count cl) (fun i ->
      Migrate.Server.cache (Net.Cluster.node cl i).Net.Cluster.daemon)

(* a codecache counter summed over every node's daemon *)
let cluster_count cl name =
  List.fold_left
    (fun acc c -> match c with Some c -> acc + count c name | None -> acc)
    0 (caches cl)

let test_cluster_hit_rate () =
  (* resurrect the same checkpoint twice on one node: the second
     resurrection hits the node's cache *)
  let cl = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2; trusted = true } in
  let proc, _ = run_to_migration (migrating_sum 22) in
  let packed = Migrate.Pack.pack_request ~with_binary:false proc in
  ignore
    (Net.Storage.write (Net.Cluster.storage cl) "ckpt.img"
       packed.Migrate.Pack.p_bytes);
  (match Net.Cluster.resurrect cl ~node_id:0 ~path:"ckpt.img" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "resurrect failed: %s" m);
  check_int "cold cluster has no hits" 0 (cluster_count cl "codecache.hits");
  (match Net.Cluster.resurrect cl ~node_id:0 ~path:"ckpt.img" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "resurrect failed: %s" m);
  check "second resurrection hits" true
    (cluster_count cl "codecache.hits" = 1
    && cluster_count cl "codecache.misses" = 1);
  check "every node has a cache" true (List.for_all Option.is_some (caches cl));
  let off = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2; code_cache = 0 } in
  check "a cache-disabled cluster has no caches" true
    (List.for_all Option.is_none (caches off))

let suites =
  [
    ( "codecache",
      [
        Alcotest.test_case "digest stability" `Quick test_digest_stable;
        Alcotest.test_case "wire v6 digest round-trip" `Quick
          test_wire_v6_roundtrip;
        Alcotest.test_case "hit skips typecheck+codegen" `Quick
          test_cache_hit;
        Alcotest.test_case "capacity 0 matches uncached" `Quick
          test_cache_disabled_matches_uncached;
        Alcotest.test_case "cross-arch isolation" `Quick
          test_cross_arch_isolation;
        Alcotest.test_case "trust-mode isolation" `Quick
          test_trust_mode_isolation;
        Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
        Alcotest.test_case "LRU order: a lookup refreshes" `Quick
          test_lru_order;
        Alcotest.test_case "negative caching" `Quick test_negative_caching;
        Alcotest.test_case "stats consistency (lookups = hits + misses)"
          `Quick test_stats_consistency;
        Alcotest.test_case "cluster hit rate" `Quick test_cluster_hit_rate;
      ] );
  ]
