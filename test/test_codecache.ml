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
  let cl = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
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
  check "every node has a cache" true (List.for_all Option.is_some (caches cl))

(* Re-homed services hit by content: the perfbench serve shape (8
   clients, 4 services, 150 requests each, 10 re-homes requested on 6
   nodes under loss and duplication).  Identical service programs share
   a digest, so a node's cache hits exactly when the node already holds
   a service with the same digest: it was registered there, received
   one, or compiled one ahead of a cut-over.  A miss compiles ahead: a
   Cache_miss on the destination when the move is requested, then the
   cut-over's Migrate_start and Migrate_done, reporting the compile.
   The prediction replays the move schedule read from the trace (the
   Cache_miss and Migrate_start name the old pid, the successful
   Migrate_done the successor) against the digests of the services'
   sources, compiled here; it does not read the cache. *)
let test_rehome_hits_by_content () =
  let module Serve = Mcc.Gridapp.Serve in
  let cfg =
    { Serve.clients = 8; services = 4; requests_per_client = 150;
      work_us = 5; skew = false; speculative = false }
  in
  let cl =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        node_count = 6;
        seed = 1;
        net = Some (Net.Simnet.create ~latency_us:5.0 ());
        faults =
          { Net.Faults.none with
            f_seed = 1;
            f_loss = 0.05;
            f_dup = 0.02;
            f_crash_in_commit = 0.2 } }
  in
  let d = Serve.deploy cl cfg in
  let programs =
    Array.init cfg.Serve.services (fun k ->
        Minic.Driver.compile_exn (Serve.service_source cfg k))
  in
  let digests = Array.map Digest.of_program programs in
  let pids = Array.copy d.Serve.sv_service_pids in
  (* registration seeds the service's node with its digest *)
  let registered =
    Array.map
      (fun pid ->
        match Net.Cluster.entry_of_pid cl pid with
        | Some e -> e.Net.Cluster.node_id
        | None -> Alcotest.fail "a service was never spawned")
      pids
  in
  let r = Serve.run ~migrate_every_s:0.004 ~migrations:10 d in
  check "exactly-once" true (Serve.exactly_once d r);
  (* the tenth request re-moves a service whose cut-over is pending *)
  check_int "nine of ten re-homes accepted" 9 r.Serve.rp_migrations;
  check_int "all nine landed" 9 (landed_moves cl);
  let service_of pid =
    let rec find k =
      if k = Array.length pids then None
      else if pids.(k) = pid then Some k
      else find (k + 1)
    in
    find 0
  in
  let received = Hashtbl.create 16 in
  Array.iteri
    (fun k node -> Hashtbl.replace received (node, digests.(k)) ())
    registered;
  let moving = ref None and predicted = ref 0 and traced = ref 0 in
  (* compiles ahead whose code no cut-over has used yet: until one lands
     there, a miss on that node may be a move joining the compile *)
  let compiling = Hashtbl.create 4 in
  let ahead = ref 0 and joined = ref 0 and joiners = Hashtbl.create 4 in
  let link_s node k =
    let arch = (Net.Cluster.node cl node).Net.Cluster.node_arch in
    Vm.Arch.seconds arch
      (Vm.Codegen.simulated_link_cycles
         (Vm.Codegen.compile ~arch programs.(k)))
  in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Cache_miss -> (
        (* the offer missed: the destination compiles ahead, or joins
           the compile of the same code it already runs *)
        match service_of ev.Obs.Trace.pid with
        | None -> Alcotest.fail "a compile ahead for no service"
        | Some k ->
          let key = ev.Obs.Trace.node, digests.(k) in
          if Hashtbl.mem compiling key then begin
            incr joined;
            Hashtbl.replace joiners k ()
          end
          else begin
            check
              (Printf.sprintf "service %d to node %d: a predicted miss" k
                 (fst key))
              false (Hashtbl.mem received key);
            Hashtbl.replace received key ();
            Hashtbl.replace compiling key ()
          end)
      | Obs.Trace.Migrate_start _ -> moving := service_of ev.Obs.Trace.pid
      | Obs.Trace.Migrate_done { ok = true; cache_hit; compile_s; _ } -> (
        match !moving with
        | None -> Alcotest.fail "a move of no service"
        | Some k ->
          let node = ev.Obs.Trace.node in
          check
            (Printf.sprintf "service %d on node %d: code held" k node)
            true
            (Hashtbl.mem received (node, digests.(k)));
          if cache_hit then begin
            incr traced;
            (* a hit skips typecheck and codegen: only the link step of
               the cached code is charged *)
            check
              (Printf.sprintf "service %d hit on node %d charges the link only"
                 k node)
              true (compile_s = link_s node k)
          end
          else if Hashtbl.mem joiners k then begin
            (* the compile is charged once, to the move that started it *)
            Hashtbl.remove joiners k;
            check
              (Printf.sprintf "service %d joined node %d's compile" k node)
              true (compile_s = 0.0)
          end
          else begin
            incr ahead;
            (* a cut-over reports the compile its destination ran ahead *)
            check
              (Printf.sprintf "service %d cut over to node %d after a compile"
                 k node)
              true (compile_s > link_s node k)
          end;
          Hashtbl.remove compiling (node, digests.(k));
          pids.(k) <- ev.Obs.Trace.pid;
          moving := None)
      | _ -> ())
    (Obs.Trace.events (Net.Cluster.trace cl));
  predicted := !traced;
  check_int "moves that joined a compile" 2 !joined;
  check_int "hits predicted by the schedule" 6 !predicted;
  check_int "compiles ahead" 1 !ahead;
  check_int "cluster.migration_cache_hits" !predicted
    (Obs.Metrics.counter_value (Net.Cluster.metrics cl)
       "cluster.migration_cache_hits")

(* Registration seeds the service's node with the code its emulator
   already runs.  Spawning alone seeds nothing, so a grid deployment
   (ranks, no services) leaves every cache empty. *)
let test_registration_seeds () =
  let module Serve = Mcc.Gridapp.Serve in
  let grid = Net.Cluster.create_cfg Net.Cluster.Config.default in
  ignore (Mcc.Gridapp.deploy grid Mcc.Gridapp.default_config);
  check_int "a grid deploy inserts nothing" 0
    (cluster_count grid "codecache.insertions");
  (* each request charges 2 ms: the services outlast the compile of a
     re-home to a node without their code, so both re-homes land *)
  let cfg =
    { Serve.clients = 2; services = 2; requests_per_client = 60;
      work_us = 2000; skew = false; speculative = false }
  in
  let digest =
    Digest.of_program (Minic.Driver.compile_exn (Serve.service_source cfg 0))
  in
  let cl = Net.Cluster.create_cfg Net.Cluster.Config.default in
  let d = Serve.deploy cl cfg in
  check_int "one insertion per service" cfg.Serve.services
    (cluster_count cl "codecache.insertions");
  Array.iter
    (fun pid ->
      let e = Option.get (Net.Cluster.entry_of_pid cl pid) in
      let n = Net.Cluster.node cl e.Net.Cluster.node_id in
      match
        Option.bind (Migrate.Server.cache n.Net.Cluster.daemon) (fun c ->
            Migrate.Codecache.find c ~digest
              ~arch:n.Net.Cluster.node_arch.Vm.Arch.name ~trusted:false)
      with
      | Some { Migrate.Codecache.e_code = Ok code; _ } ->
        check "the entry is the emulator's code" true
          (fst (Vm.Emulator.code e.Net.Cluster.emu)
          == code.Migrate.Codecache.masm)
      | Some { Migrate.Codecache.e_code = Error m; _ } ->
        Alcotest.failf "seeded a rejection: %s" m
      | None -> Alcotest.failf "node %d not seeded" n.node_id)
    d.Serve.sv_service_pids;
  (* services sit on nodes 2 and 3 of 4; the first re-home lands
     service 0 on node 3, which holds service 1's program *)
  let r = Serve.run ~migrate_every_s:0.0005 ~migrations:2 d in
  check "exactly-once" true (Serve.exactly_once d r);
  check_int "two re-homes" 2 r.Serve.rp_migrations;
  check_int "both landed" 2 (landed_moves cl);
  check_int "the first re-home hits" 1
    (Obs.Metrics.counter_value (Net.Cluster.metrics cl)
       "cluster.migration_cache_hits")

(* ------------------------------------------------------------------ *)
(* The deploy memo: one compile per program value and arch             *)
(* ------------------------------------------------------------------ *)

(* The closure-compiled image a spawned process runs *)
let compiled_of cl pid =
  let e = Option.get (Net.Cluster.entry_of_pid cl pid) in
  Option.get (snd (Vm.Emulator.code e.Net.Cluster.emu))

(* [images] with physical duplicates dropped *)
let distinct images =
  List.fold_left
    (fun acc c -> if List.exists (( == ) c) acc then acc else c :: acc)
    [] images

(* perfbench's serve shape spawns 12 processes from 2 programs: they
   run on 2 compiled images, one per role, and the 4 services are
   seeded with one FIR payload *)
let test_deploy_compiles_once () =
  let module Serve = Mcc.Gridapp.Serve in
  let cfg =
    { Serve.clients = 8; services = 4; requests_per_client = 10;
      work_us = 5; skew = false; speculative = false }
  in
  let cl =
    Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 6 }
  in
  let d = Serve.deploy cl cfg in
  let role pids = Array.to_list (Array.map (compiled_of cl) pids) in
  let clients = role d.Serve.sv_client_pids
  and services = role d.Serve.sv_service_pids in
  check_int "the clients share one image" 1 (List.length (distinct clients));
  check_int "the services share one image" 1
    (List.length (distinct services));
  check_int "two images in all" 2
    (List.length (distinct (clients @ services)));
  let payloads =
    Array.to_list
      (Array.map
         (fun pid ->
           let e = Option.get (Net.Cluster.entry_of_pid cl pid) in
           (Vm.Process.fir_payload e.Net.Cluster.proc).Vm.Process.fir_bytes)
         d.Serve.sv_service_pids)
  in
  check "the services share one FIR encoding" true
    (List.for_all (( == ) (List.hd payloads)) payloads);
  let r = Serve.run ~migrations:0 d in
  check "exactly-once" true (Serve.exactly_once d r)

let sharing_src =
  {|
int main() {
  int acc = 0;
  int i;
  for (i = 0; i < 200; i = i + 1) acc = (acc * 31 + i) % 10007;
  print_int(acc);
  return acc % 100;
}
|}

(* A two-arch cluster compiles one program once per arch *)
let test_deploy_once_per_arch () =
  let cl =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        arches = [| Vm.Arch.cisc32; Vm.Arch.risc64 |] }
  in
  let program = compile_c sharing_src in
  let pids =
    List.init 4 (fun node_id -> Net.Cluster.spawn cl ~node_id program)
  in
  let images = List.map (compiled_of cl) pids in
  let arch_of pid =
    let e = Option.get (Net.Cluster.entry_of_pid cl pid) in
    (fst (Vm.Emulator.code e.Net.Cluster.emu)).Vm.Masm.im_arch
  in
  check_int "one image per arch" 2 (List.length (distinct images));
  (match images with
  | [ c0; r1; c2; r3 ] ->
    check "cisc32 nodes share" true (c0 == c2);
    check "risc64 nodes share" true (r1 == r3)
  | _ -> Alcotest.fail "four spawns");
  check_str "node 0 runs cisc32 code" "cisc32" (arch_of (List.nth pids 0));
  check_str "node 1 runs risc64 code" "risc64" (arch_of (List.nth pids 1));
  ignore (Net.Cluster.run cl);
  List.iter
    (fun pid ->
      match status_of cl pid with
      | Vm.Process.Exited _ -> ()
      | _ -> Alcotest.failf "pid %d did not exit" pid)
    pids

(* The memo is keyed on the program value: a content-equal copy
   compiles its own image, and its process ends exactly as one on the
   shared image does *)
let test_deploy_distinct_value () =
  let cl = Net.Cluster.create_cfg Net.Cluster.Config.default in
  let program = compile_c sharing_src and copy = compile_c sharing_src in
  check "two values" true (program != copy);
  check_str "one content" (Digest.of_program program)
    (Digest.of_program copy);
  let shared = Net.Cluster.spawn cl ~node_id:0 program in
  let sibling = Net.Cluster.spawn cl ~node_id:1 program in
  let own = Net.Cluster.spawn cl ~node_id:2 copy in
  check "siblings share" true (compiled_of cl shared == compiled_of cl sibling);
  check "the copy compiles its own" true
    (compiled_of cl own != compiled_of cl shared);
  ignore (Net.Cluster.run cl);
  let proc pid =
    (Option.get (Net.Cluster.entry_of_pid cl pid)).Net.Cluster.proc
  in
  let a = proc shared and b = proc own in
  check "exited" true (Vm.Process.is_terminated a);
  check "same status" true (a.Vm.Process.status = b.Vm.Process.status);
  check_str "same output" (Vm.Process.output a) (Vm.Process.output b);
  check_int "same steps" a.Vm.Process.steps b.Vm.Process.steps;
  check_int "same cycles" a.Vm.Process.cycles b.Vm.Process.cycles

(* ------------------------------------------------------------------ *)
(* Compile ahead of the cut-over                                       *)
(* ------------------------------------------------------------------ *)

(* 300 rounds of 1 ms charged work: long enough to outlast a compile *)
let ahead_worker =
  compile_c
    {|
int main() {
  int acc = 0;
  int round;
  int i;
  for (round = 0; round < 300; round = round + 1) {
    for (i = 0; i < 20; i = i + 1) acc = (acc + i * 3) % 100003;
    work_us(1000);
  }
  return acc % 100;
}
|}

let ahead_expected =
  match Vm.Interp.run (Vm.Process.create ahead_worker) with
  | Vm.Process.Exited n -> n
  | _ -> Alcotest.fail "reference run failed"

let request_move cl ~pid ~dest =
  Net.Cluster.move cl
    (Net.Cluster.Move.request ~reason:Net.Cluster.Move.Explicit
       (Net.Cluster.Move.Running pid) ~dest)

(* A move that compiles ahead: its ticket and the code's ready time. *)
let compiling_move cl ~pid ~dest =
  match request_move cl ~pid ~dest with
  | Ok { Net.Cluster.Move.mv_cutover = Some ticket; mv_pid; mv_report = None }
    -> (
    check_int "the subject keeps its pid until the cut-over" pid mv_pid;
    match Net.Cluster.Move.cutover ticket with
    | Net.Cluster.Compiling { ready_at; _ } -> ticket, ready_at
    | Net.Cluster.Landed _ | Net.Cluster.Abandoned _ ->
      Alcotest.fail "the cut-over was decided at the request")
  | Ok _ -> Alcotest.fail "the move landed at once on a node without the code"
  | Error e -> Alcotest.fail (Net.Cluster.migration_error_to_string e)

let landed_report ticket =
  match Net.Cluster.Move.cutover ticket with
  | Net.Cluster.Landed rep -> rep
  | Net.Cluster.Compiling _ | Net.Cluster.Abandoned _ ->
    Alcotest.fail "the cut-over did not land"

let server_count cl node name =
  Obs.Metrics.counter_value
    (Migrate.Server.metrics (Net.Cluster.node cl node).Net.Cluster.daemon)
    name

(* Successful Migrate_done events, as (time, node, pid, compile_s). *)
let landings cl =
  List.filter_map
    (fun (ev : Obs.Trace.event) ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Migrate_done { ok = true; compile_s; _ } ->
        Some (ev.Obs.Trace.time, ev.Obs.Trace.node, ev.Obs.Trace.pid, compile_s)
      | _ -> None)
    (Obs.Trace.events (Net.Cluster.trace cl))

(* A service re-homed to a node without its code keeps serving at its
   source while the destination compiles, and cuts over once the code
   is ready. *)
let test_source_serves_during_compile () =
  let module Serve = Mcc.Gridapp.Serve in
  let cl = mk_cluster ~nodes:3 Net.Faults.none in
  let d =
    Serve.deploy cl
      { Serve.clients = 2; services = 1; requests_per_client = 300;
        work_us = 200; skew = false; speculative = false }
  in
  let pid = d.Serve.sv_service_pids.(0) in
  let src = (Option.get (Net.Cluster.entry_of_pid cl pid)).Net.Cluster.node_id in
  let dest = (src + 1) mod 3 in
  ignore (Net.Cluster.run cl ~stop:(fun () -> Net.Cluster.now cl >= 0.005));
  let requested = (Net.Cluster.node cl src).Net.Cluster.clock in
  let ticket, ready_at = compiling_move cl ~pid ~dest in
  check "the code is ready after the request" true (ready_at > requested);
  let r = Serve.run d in
  check "exactly-once" true (Serve.exactly_once d r);
  let served_by_source =
    List.length
      (List.filter
         (fun (ev : Obs.Trace.event) ->
           ev.Obs.Trace.pid = pid
           && ev.Obs.Trace.time >= requested
           && ev.Obs.Trace.time < ready_at
           &&
           match ev.Obs.Trace.kind with
           | Obs.Trace.Msg_recv _ -> true
           | _ -> false)
         (Obs.Trace.events (Net.Cluster.trace cl)))
  in
  check "the source received requests while the destination compiled" true
    (served_by_source > 0);
  let rep = landed_report ticket in
  check "a miss" false rep.Net.Cluster.rep_cache_hit;
  (match Net.Cluster.entry_of_pid cl rep.Net.Cluster.rep_pid with
  | Some e ->
    check_int "the successor runs at the destination" dest
      e.Net.Cluster.node_id;
    check "the successor starts once the code is ready" true
      (e.Net.Cluster.start_at >= ready_at)
  | None -> Alcotest.fail "successor lost");
  check "the source retired cleanly" true
    (status_of cl pid = Vm.Process.Exited 0)

(* Two moves to one node while it compiles the same code: the second
   joins the first's compile, so the node compiles once, and both cut
   over at or after the one ready time. *)
let test_moves_join_one_compile () =
  let cl = mk_cluster ~nodes:3 Net.Faults.none in
  let a = Net.Cluster.spawn cl ~node_id:0 ahead_worker in
  let b = Net.Cluster.spawn cl ~node_id:1 ahead_worker in
  ignore (Net.Cluster.run cl ~max_rounds:3);
  let ta, ra = compiling_move cl ~pid:a ~dest:2 in
  let tb, rb = compiling_move cl ~pid:b ~dest:2 in
  check "the second move waits for the first's compile" true (ra = rb);
  check_int "one compile on the destination" 1
    (server_count cl 2 "server.recompilations");
  ignore (Net.Cluster.run cl);
  let succ ticket = (landed_report ticket).Net.Cluster.rep_pid in
  let sa = succ ta and sb = succ tb in
  List.iter
    (fun s ->
      check "the successor finished with the same result" true
        (status_of cl s = Vm.Process.Exited ahead_expected))
    [ sa; sb ];
  check_int "still one compile on the destination" 1
    (server_count cl 2 "server.recompilations");
  (match landings cl with
  | [ (ta, 2, pa, ca); (tb, 2, pb, cb) ] ->
    check "both landed at or after the ready time" true
      (ta >= ra && tb >= ra);
    check "the landings are the two successors" true
      (List.sort compare [ pa; pb ] = List.sort compare [ sa; sb ]);
    check "the compile is charged once" true
      ((ca > 0.0 && cb = 0.0) || (ca = 0.0 && cb > 0.0))
  | l -> Alcotest.failf "expected 2 landings on node 2, got %d" (List.length l))

(* A move of a subject whose cut-over is pending is refused with the
   typed error; the subject runs on and the first move still lands. *)
let test_remove_while_pending () =
  let cl = mk_cluster ~nodes:3 Net.Faults.none in
  let pid = Net.Cluster.spawn cl ~node_id:0 ahead_worker in
  ignore (Net.Cluster.run cl ~max_rounds:3);
  let ticket, ready_at = compiling_move cl ~pid ~dest:1 in
  (match request_move cl ~pid ~dest:2 with
  | Error (Net.Cluster.Cutover_pending { dest; ready_at = t }) ->
    check_int "names the pending destination" 1 dest;
    check "names its ready time" true (t = ready_at)
  | Error e ->
    Alcotest.failf "expected Cutover_pending, got %s"
      (Net.Cluster.migration_error_to_string e)
  | Ok _ -> Alcotest.fail "a second move of a pending subject was accepted");
  check "the subject keeps running" true
    (status_of cl pid = Vm.Process.Running);
  check_int "nothing compiled on the refused destination" 0
    (server_count cl 2 "server.recompilations");
  match await_cutover cl ticket with
  | Ok rep ->
    ignore (Net.Cluster.run cl);
    check "the first move landed and finished" true
      (status_of cl rep.Net.Cluster.rep_pid = Vm.Process.Exited ahead_expected)
  | Error e -> Alcotest.fail (Net.Cluster.migration_error_to_string e)

(* A target behind a partition that never heals fails the move at the
   offer: the FIR hop exhausts its retries, no image is packed, nothing
   compiles, and the subject finishes where it was. *)
let test_unreachable_at_offer () =
  let plan =
    { Net.Faults.none with
      f_seed = env_seed;
      f_partitions =
        [ { Net.Faults.pa = 0; pb = 1; p_from = 0.0; p_until = infinity } ] }
  in
  let cl = mk_cluster ~nodes:2 plan in
  let pid = Net.Cluster.spawn cl ~node_id:0 ahead_worker in
  ignore (Net.Cluster.run cl ~max_rounds:3);
  (match request_move cl ~pid ~dest:1 with
  | Error (Net.Cluster.Unreachable { attempts; _ }) ->
    check_int "the FIR hop used the whole retry budget"
      Net.Cluster.Config.default_retry.Net.Cluster.Config.max_attempts attempts
  | Error e ->
    Alcotest.failf "expected Unreachable, got %s"
      (Net.Cluster.migration_error_to_string e)
  | Ok _ -> Alcotest.fail "a move through a dead link was accepted");
  check_int "nothing compiled on the target" 0
    (server_count cl 1 "server.recompilations");
  let fir_bytes =
    String.length
      (Vm.Process.fir_payload
         (Option.get (Net.Cluster.entry_of_pid cl pid)).Net.Cluster.proc)
        .Vm.Process.fir_bytes
  in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Migrate_start { bytes; _ } ->
        check_int "the failed hop carried the FIR, not an image" fir_bytes
          bytes
      | Obs.Trace.Migrate_done { ok; pack_s; _ } ->
        check "recorded as failed" false ok;
        check "nothing was packed" true (pack_s = 0.0)
      | _ -> ())
    (Obs.Trace.events (Net.Cluster.trace cl));
  ignore (Net.Cluster.run cl);
  check "the subject finished where it was" true
    (status_of cl pid = Vm.Process.Exited ahead_expected)

(* The worker's program, where rank 1 also migrates itself to node 2
   at its 41st round. *)
let self_migrating_worker =
  compile_c
    {|
int main() {
  int acc = 0;
  int round;
  int i;
  for (round = 0; round < 300; round = round + 1) {
    for (i = 0; i < 20; i = i + 1) acc = (acc + i * 3) % 100003;
    work_us(1000);
    if (round == 40 && rank() == 1) { migrate("mcc://node2"); }
  }
  return acc % 100;
}
|}

(* A program's own migrate onto a node that is still compiling the
   program ahead of a cut-over finds the code in the cache, but the code
   only exists at the ready time: the successor starts no earlier, and
   the hop reports a miss that waited for that compile. *)
let test_migrate_waits_for_compile () =
  let cl = mk_cluster ~nodes:3 Net.Faults.none in
  let a = Net.Cluster.spawn cl ~rank:0 ~node_id:0 self_migrating_worker in
  let b = Net.Cluster.spawn cl ~rank:1 ~node_id:1 self_migrating_worker in
  ignore (Net.Cluster.run cl ~max_rounds:1);
  let ticket, ready_at = compiling_move cl ~pid:a ~dest:2 in
  ignore (Net.Cluster.run cl);
  let events = Obs.Trace.events (Net.Cluster.trace cl) in
  let b_left =
    List.find_map
      (fun (ev : Obs.Trace.event) ->
        match ev.Obs.Trace.kind with
        | Obs.Trace.Migrate_start _ when ev.Obs.Trace.pid = b ->
          Some ev.Obs.Trace.time
        | _ -> None)
      events
  in
  check "rank 1 migrated itself while node 2 compiled" true
    (match b_left with Some t -> t < ready_at | None -> false);
  let a_succ = (landed_report ticket).Net.Cluster.rep_pid in
  (match
     List.filter (fun (_, node, pid, _) -> node = 2 && pid <> a_succ)
       (landings cl)
   with
  | [ (t, _, pid, compile_s) ] ->
    check "the self-migrated successor starts once the code is ready" true
      (t >= ready_at);
    check "its hop waited for the compile" true (compile_s > 0.0);
    check "it was no hit" true
      (List.exists
         (fun (ev : Obs.Trace.event) ->
           ev.Obs.Trace.pid = pid
           && ev.Obs.Trace.kind = Obs.Trace.Cache_miss)
         events);
    check "it finished with the same result" true
      (status_of cl pid = Vm.Process.Exited ahead_expected)
  | l ->
    Alcotest.failf "expected one self-migration onto node 2, got %d"
      (List.length l));
  check_int "node 2 compiled once" 1
    (server_count cl 2 "server.recompilations")

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
        Alcotest.test_case "re-homed services hit by content" `Quick
          test_rehome_hits_by_content;
        Alcotest.test_case "registration seeds, spawning does not" `Quick
          test_registration_seeds;
        Alcotest.test_case "a deploy compiles once per role" `Quick
          test_deploy_compiles_once;
        Alcotest.test_case "a deploy compiles once per arch" `Quick
          test_deploy_once_per_arch;
        Alcotest.test_case "a distinct program value compiles its own" `Quick
          test_deploy_distinct_value;
      ] );
    ( "compile-ahead",
      [
        Alcotest.test_case "the source serves while the destination compiles"
          `Quick test_source_serves_during_compile;
        Alcotest.test_case "two moves join one compile" `Quick
          test_moves_join_one_compile;
        Alcotest.test_case "a re-move while pending is refused" `Quick
          test_remove_while_pending;
        Alcotest.test_case "an unreachable target fails at the offer" `Quick
          test_unreachable_at_offer;
        Alcotest.test_case "a program's migrate waits for a compile ahead"
          `Quick test_migrate_waits_for_compile;
      ] );
  ]
