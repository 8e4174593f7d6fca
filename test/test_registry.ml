(* Tests for the process registry — location-transparent logical
   addresses over mobile ranks — and the correctness fixes riding with
   it: the mailbox's two-list FIFO discipline under interleaved
   enqueue/receive bursts, wildcard receive, the deterministic table
   re-key, and the request-serving workload whose services are re-homed
   MID-TRAFFIC (including double migrations, whose vacated ranks both
   relay to the newest, and TTL expiry that must surface as a typed
   error) under loss / duplication / jitter fault plans.

   The fault-plan tests take their seed from MCC_FAULT_SEED when set,
   so CI can run the suite under several seeds. *)

open Runtime

open Kit

(* ------------------------------------------------------------------ *)
(* Mailbox: two-list FIFO discipline                                   *)
(* ------------------------------------------------------------------ *)

let msg ~src ~tag ~at payload =
  {
    Net.Mpi.msg_src_rank = src;
    msg_src_pid = 100 + src;
    msg_tag = tag;
    msg_payload = Array.map (fun n -> Value.Vint n) payload;
    msg_deliver_at = at;
    msg_spec = None;
    msg_src_epoch = 0;
  }

let payload_int (m : Net.Mpi.message) =
  match m.Net.Mpi.msg_payload with
  | [| Value.Vint n |] -> n
  | _ -> Alcotest.fail "unexpected payload shape"

let recv_exn mbox ~now ~src ~tag =
  match Net.Mpi.try_recv mbox ~now ~src:(Net.Mpi.Rank src) ~tag with
  | Net.Mpi.Received m -> m
  | Net.Mpi.None_yet -> Alcotest.fail "expected a message, got None_yet"
  | Net.Mpi.Roll -> Alcotest.fail "expected a message, got Roll"

(* Interleave enqueue bursts with partial drains, so the front list is
   non-empty every time the back list flips — exactly the pattern under
   which the old [normalize] appended the reversed back list onto a
   NON-EMPTY front (quadratic, and a latent reordering hazard).  The
   fixed two-list discipline must deliver strict FIFO order. *)
let test_interleaved_fifo () =
  let mbox = Net.Mpi.create_mailbox () in
  let next = ref 0 in
  let received = ref [] in
  for _burst = 1 to 20 do
    for _ = 1 to 5 do
      Net.Mpi.enqueue mbox (msg ~src:1 ~tag:4 ~at:0.0 [| !next |]);
      incr next
    done;
    for _ = 1 to 3 do
      received := payload_int (recv_exn mbox ~now:1.0 ~src:1 ~tag:4) :: !received
    done
  done;
  let rec drain () =
    match Net.Mpi.try_recv mbox ~now:1.0 ~src:(Net.Mpi.Rank 1) ~tag:4 with
    | Net.Mpi.Received m ->
      received := payload_int m :: !received;
      drain ()
    | Net.Mpi.None_yet -> ()
    | Net.Mpi.Roll -> Alcotest.fail "unexpected roll"
  in
  drain ();
  check "strict FIFO across interleaved bursts" true
    (List.rev !received = List.init 100 (fun i -> i));
  check_int "mailbox drained" 0 (Net.Mpi.pending mbox)

(* A not-yet-deliverable head must not block a later message that IS
   deliverable (out-of-order arrival), and order must heal once both
   are due — on both halves of the two-list FIFO. *)
let test_fifo_with_delayed_head () =
  let mbox = Net.Mpi.create_mailbox () in
  Net.Mpi.enqueue mbox (msg ~src:2 ~tag:9 ~at:5.0 [| 10 |]);
  Net.Mpi.enqueue mbox (msg ~src:2 ~tag:9 ~at:1.0 [| 11 |]);
  check_int "late head is skipped" 11
    (payload_int (recv_exn mbox ~now:2.0 ~src:2 ~tag:9));
  check "head still pending" true
    (Net.Mpi.try_recv mbox ~now:2.0 ~src:(Net.Mpi.Rank 2) ~tag:9
    = Net.Mpi.None_yet);
  check_int "head arrives once due" 10
    (payload_int (recv_exn mbox ~now:6.0 ~src:2 ~tag:9))

(* ------------------------------------------------------------------ *)
(* Mailbox: wildcard receive                                           *)
(* ------------------------------------------------------------------ *)

let test_recv_any_enqueue_order () =
  let mbox = Net.Mpi.create_mailbox () in
  Net.Mpi.enqueue mbox (msg ~src:7 ~tag:9 ~at:0.0 [| 1 |]);
  Net.Mpi.enqueue mbox (msg ~src:2 ~tag:9 ~at:0.0 [| 2 |]);
  Net.Mpi.enqueue mbox (msg ~src:5 ~tag:8 ~at:0.0 [| 3 |]);
  Net.Mpi.enqueue mbox (msg ~src:2 ~tag:9 ~at:0.0 [| 4 |]);
  let recv_any tag =
    match Net.Mpi.try_recv mbox ~now:1.0 ~src:Net.Mpi.Any ~tag with
    | Net.Mpi.Received m -> payload_int m
    | _ -> Alcotest.fail "expected a wildcard match"
  in
  check_int "enqueue order across sources (1st)" 1 (recv_any 9);
  check_int "enqueue order across sources (2nd)" 2 (recv_any 9);
  check_int "other tag untouched" 3 (recv_any 8);
  check_int "per-source FIFO preserved" 4 (recv_any 9);
  check "empty for tag 9" true
    (Net.Mpi.try_recv mbox ~now:1.0 ~src:Net.Mpi.Any ~tag:9 = Net.Mpi.None_yet);
  check "delivery probe agrees" false
    (match Net.Mpi.next_matching_delivery mbox ~src:Net.Mpi.Any ~tag:9 with
    | Some at -> at <= 1.0
    | None -> false)

let test_recv_any_roll_priority () =
  let mbox = Net.Mpi.create_mailbox () in
  Net.Mpi.enqueue mbox (msg ~src:1 ~tag:3 ~at:0.0 [| 42 |]);
  Net.Mpi.post_roll_notice mbox ~src_rank:6;
  Net.Mpi.post_roll_notice mbox ~src_rank:4;
  check "roll notice takes priority" true
    (Net.Mpi.try_recv mbox ~now:1.0 ~src:Net.Mpi.Any ~tag:3 = Net.Mpi.Roll);
  check "lowest rank's notice consumed first" true
    (not (Net.Mpi.has_roll_notice mbox ~src:(Net.Mpi.Rank 4))
    && Net.Mpi.has_roll_notice mbox ~src:(Net.Mpi.Rank 6));
  check "second notice consumed next" true
    (Net.Mpi.try_recv mbox ~now:1.0 ~src:Net.Mpi.Any ~tag:3 = Net.Mpi.Roll);
  check_int "message survives the notices" 42
    (payload_int
       (match Net.Mpi.try_recv mbox ~now:1.0 ~src:Net.Mpi.Any ~tag:3 with
       | Net.Mpi.Received m -> m
       | _ -> Alcotest.fail "expected the message"))

let test_take_all () =
  let mbox = Net.Mpi.create_mailbox () in
  Net.Mpi.enqueue mbox (msg ~src:3 ~tag:1 ~at:0.0 [| 1 |]);
  Net.Mpi.enqueue mbox (msg ~src:1 ~tag:2 ~at:9.0 [| 2 |]);
  Net.Mpi.enqueue mbox (msg ~src:3 ~tag:1 ~at:0.0 [| 3 |]);
  let drained = Net.Mpi.take_all mbox in
  check "oldest first, regardless of delivery time" true
    (List.map payload_int drained = [ 1; 2; 3 ]);
  check_int "empty afterwards" 0 (Net.Mpi.pending mbox);
  check "no residual delivery" true
    (Net.Mpi.next_matching_delivery mbox ~src:(Net.Mpi.Rank 3) ~tag:1 = None
    && Net.Mpi.next_matching_delivery mbox ~src:Net.Mpi.Any ~tag:2 = None)

(* ------------------------------------------------------------------ *)
(* Deterministic table re-key                                          *)
(* ------------------------------------------------------------------ *)

(* Colliding remapped keys must merge in STABLE SORTED order of the
   original keys — never in [Hashtbl.fold] order (the old
   [rekey_identity] bug: merge results depended on hash-bucket
   iteration, so two runs could disagree). *)
let test_rekey_merge_deterministic () =
  let remap k = k mod 3 in
  let entries =
    [ 7, [ "g" ]; 1, [ "b" ]; 4, [ "e" ]; 0, [ "a" ]; 3, [ "d" ]; 6, [ "f" ] ]
  in
  let expected = [ 0, [ "a"; "d"; "f" ]; 1, [ "b"; "e"; "g" ] ] in
  check "canonical merge order" true
    (Net.Cluster.Rekey.merge ~remap entries = expected);
  (* every input permutation yields the identical merge *)
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun p -> x :: p)
            (permutations (List.filter (fun y -> fst y <> fst x) l)))
        l
  in
  List.iter
    (fun perm ->
      check "permutation-independent" true
        (Net.Cluster.Rekey.merge ~remap perm = expected))
    (permutations entries)

(* ------------------------------------------------------------------ *)
(* Registry: bindings, forwarders, expiry                              *)
(* ------------------------------------------------------------------ *)

let test_registry_basic () =
  let r = Net.Registry.create () in
  check_int "laddrs are sequential from 1" 1 (Net.Registry.register r ~rank:10);
  check_int "second laddr" 2 (Net.Registry.register r ~rank:11);
  check "lookup" true (Net.Registry.lookup r 1 = Some 10);
  check "reverse lookup" true (Net.Registry.laddr_of_rank r 11 = Some 2);
  check "unknown laddr" true (Net.Registry.lookup r 9 = None);
  check "current rank resolves direct" true
    (Net.Registry.resolve r ~now:0.0 10 = Net.Registry.Direct 10);
  Net.Registry.rebind r ~laddr:1 ~new_rank:20 ~now:0.0 ~ttl:1.0;
  check "rebound" true (Net.Registry.lookup r 1 = Some 20);
  check "old rank no longer serves the laddr" true
    (Net.Registry.laddr_of_rank r 10 = None);
  check "stale rank forwards" true
    (Net.Registry.resolve r ~now:0.5 10 = Net.Registry.Forwarded 20);
  check "new rank is direct" true
    (Net.Registry.resolve r ~now:0.5 20 = Net.Registry.Direct 20);
  check "past the TTL: typed expiry, not a silent drop" true
    (Net.Registry.resolve r ~now:2.0 10 = Net.Registry.Expired 10);
  check_int "housekeeping drops the expired forwarder" 1
    (Net.Registry.expire r ~now:2.0);
  check "no forwarder left: the old rank resolves direct" true
    (Net.Registry.resolve r ~now:2.0 10 = Net.Registry.Direct 10)

let test_registry_double_move () =
  let m = Obs.Metrics.create () in
  let r = Net.Registry.create ~metrics:m () in
  ignore (Net.Registry.register r ~rank:10);
  Net.Registry.rebind r ~laddr:1 ~new_rank:20 ~now:0.0 ~ttl:10.0;
  Net.Registry.rebind r ~laddr:1 ~new_rank:30 ~now:0.0 ~ttl:10.0;
  (* both vacated ranks name the laddr, so both relay straight to C *)
  check "the first vacated rank relays to the newest" true
    (Net.Registry.resolve r ~now:1.0 10 = Net.Registry.Forwarded 30);
  check "so does the second" true
    (Net.Registry.resolve r ~now:1.0 20 = Net.Registry.Forwarded 30);
  check_int "two moves recorded" 2
    (Obs.Metrics.counter_value m "registry.moves")

(* A rank serves at most one laddr: a second laddr on it would never be
   rebound when the process moves, so its senders would be relayed
   until the TTL and refused ever after. *)
let test_registry_rank_bound_once () =
  let invalid f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let r = Net.Registry.create () in
  ignore (Net.Registry.register r ~rank:10);
  check "a serving rank cannot register again" true
    (invalid (fun () -> Net.Registry.register r ~rank:10));
  Net.Registry.rebind r ~laddr:1 ~new_rank:20 ~now:0.0 ~ttl:1.0;
  check "nor can a forwarding rank" true
    (invalid (fun () -> Net.Registry.register r ~rank:10));
  let cluster = mk_cluster Net.Faults.none in
  let pid =
    Net.Cluster.spawn cluster ~rank:1 ~node_id:0
      (compile_c "int main() { return 0; }")
  in
  check_int "the service's laddr" 1 (Net.Cluster.register_service cluster ~pid);
  check "registering the same process twice is refused" true
    (invalid (fun () -> Net.Cluster.register_service cluster ~pid))

(* A seeded random walk of the registry against a naive reference that
   keeps, per laddr, its current rank and every rank it vacated with
   that forwarder's expiry.  Ranks are fresh on every register and
   move; times come from a quarter-unit grid (so a resolve often lands
   exactly on an expiry) and do not increase monotonically. *)
module Model = struct
  type laddr = { mutable cur : int; mutable vacated : (int * float) list }

  type t = {
    laddrs : (int, laddr) Hashtbl.t;
    mutable next : int;
    mutable moves : int;
    mutable forwarded : int;
    mutable expired : int;
  }

  let create () =
    { laddrs = Hashtbl.create 8; next = 1; moves = 0; forwarded = 0;
      expired = 0 }

  let register m ~rank =
    let laddr = m.next in
    m.next <- m.next + 1;
    Hashtbl.replace m.laddrs laddr { cur = rank; vacated = [] };
    laddr

  let rebind m ~laddr ~new_rank ~now ~ttl =
    let l = Hashtbl.find m.laddrs laddr in
    if l.cur <> new_rank then begin
      l.vacated <- (l.cur, now +. ttl) :: l.vacated;
      l.cur <- new_rank;
      m.moves <- m.moves + 1
    end

  let resolve m ~now rank =
    let hit =
      Hashtbl.fold
        (fun _ l acc ->
          match List.assoc_opt rank l.vacated with
          | Some expires -> Some (l.cur, expires)
          | None -> acc)
        m.laddrs None
    in
    match hit with
    | None -> `Direct rank
    | Some (_, expires) when now > expires ->
      m.expired <- m.expired + 1;
      `Expired rank
    | Some (final, _) ->
      m.forwarded <- m.forwarded + 1;
      `Forwarded final

  let expire m ~now =
    Hashtbl.fold
      (fun _ l n ->
        let live, dead = List.partition (fun (_, e) -> now <= e) l.vacated in
        l.vacated <- live;
        n + List.length dead)
      m.laddrs 0
end

let resolution = function
  | Net.Registry.Direct r -> `Direct r
  | Net.Registry.Forwarded final -> `Forwarded final
  | Net.Registry.Expired r -> `Expired r

let test_registry_random_walk () =
  let rng = Random.State.make [| env_seed |] in
  let metrics = Obs.Metrics.create () in
  let reg = Net.Registry.create ~metrics () in
  let model = Model.create () in
  let next_rank = ref 100 in
  let fresh () =
    incr next_rank;
    !next_rank
  in
  let time () = 0.25 *. float_of_int (Random.State.int rng 40) in
  let pick_laddr () = 1 + Random.State.int rng (model.Model.next - 1) in
  let agree step =
    let say what = Printf.sprintf "step %d: %s" step what in
    check_int (say "registry.moves") model.Model.moves
      (Obs.Metrics.counter_value metrics "registry.moves");
    check_int (say "forwarded") model.Model.forwarded
      (Net.Registry.forwarded reg);
    check_int (say "expired_count") model.Model.expired
      (Net.Registry.expired_count reg);
    Hashtbl.iter
      (fun laddr (l : Model.laddr) ->
        check (say "lookup") true
          (Net.Registry.lookup reg laddr = Some l.Model.cur);
        check (say "laddr_of_rank") true
          (Net.Registry.laddr_of_rank reg l.Model.cur = Some laddr))
      model.Model.laddrs
  in
  for step = 1 to 3000 do
    (match Random.State.int rng 10 with
    | 0 when model.Model.next <= 8 ->
      let rank = fresh () in
      check_int
        (Printf.sprintf "step %d: register" step)
        (Model.register model ~rank)
        (Net.Registry.register reg ~rank)
    | (0 | 1 | 2) when model.Model.next > 1 ->
      let laddr = pick_laddr () in
      let new_rank =
        if Random.State.int rng 4 = 0 then
          (Hashtbl.find model.Model.laddrs laddr).Model.cur
        else fresh ()
      in
      let now = time ()
      and ttl = 0.25 *. float_of_int (Random.State.int rng 12) in
      Model.rebind model ~laddr ~new_rank ~now ~ttl;
      Net.Registry.rebind reg ~laddr ~new_rank ~now ~ttl
    | 3 ->
      let now = time () in
      check_int
        (Printf.sprintf "step %d: expire" step)
        (Model.expire model ~now)
        (Net.Registry.expire reg ~now)
    | _ ->
      (* any rank ever handed out, plus one never bound *)
      let rank = 100 + Random.State.int rng (!next_rank - 99 + 1) in
      let now = time () in
      check
        (Printf.sprintf "step %d: resolve %d at %g" step rank now)
        true
        (Model.resolve model ~now rank
        = resolution (Net.Registry.resolve reg ~now rank)));
    agree step
  done

(* ------------------------------------------------------------------ *)
(* The serving workload: live-traffic migration end to end             *)
(* ------------------------------------------------------------------ *)

let mk_cluster ?(nodes = 3) ?(seed = 1) ?(ttl = 0.25) plan =
  Net.Cluster.create_cfg
    { Net.Cluster.Config.default with
      node_count = nodes;
      seed;
      net = Some (Net.Simnet.create ~latency_us:5.0 ());
      faults = plan;
      forward_ttl_s = ttl }

let serve_cfg =
  { Mcc.Gridapp.Serve.clients = 4; services = 2; requests_per_client = 40;
    work_us = 20; skew = false; speculative = false }

let lossy_plan seed =
  { Net.Faults.none with
    f_seed = seed;
    f_loss = 0.10;
    f_dup = 0.05;
    f_jitter_s = 0.00002;
    f_retransmit_s = 0.0001 }

let check_exactly_once name d (r : Mcc.Gridapp.Serve.report) =
  if not (Mcc.Gridapp.Serve.exactly_once d r) then
    Alcotest.failf
      "%s: exactly-once violated (wedged=%b violations=%d requests=%d \
       served=[%s])"
      name r.Mcc.Gridapp.Serve.rp_wedged r.Mcc.Gridapp.Serve.rp_violations
      r.Mcc.Gridapp.Serve.rp_requests
      (String.concat ";"
         (Array.to_list
            (Array.map string_of_int r.Mcc.Gridapp.Serve.rp_served)))

let test_serve_static () =
  let cluster = mk_cluster Net.Faults.none in
  let d = Mcc.Gridapp.Serve.deploy cluster serve_cfg in
  check "laddrs 1..K in spawn order" true
    (d.Mcc.Gridapp.Serve.sv_laddrs = [| 1; 2 |]);
  let r = Mcc.Gridapp.Serve.run d in
  check_exactly_once "static" d r;
  check_int "no moves, nothing forwarded" 0
    r.Mcc.Gridapp.Serve.rp_forwarded;
  check "latency measured" true (r.Mcc.Gridapp.Serve.rp_p50_ms > 0.0)

let test_serve_migrations_faultfree () =
  let cluster = mk_cluster Net.Faults.none in
  let d = Mcc.Gridapp.Serve.deploy cluster serve_cfg in
  let r =
    Mcc.Gridapp.Serve.run d ~migrate_every_s:0.0004 ~migrations:3
  in
  check_exactly_once "migrating" d r;
  check "services actually moved" true (landed_moves cluster >= 1);
  check "stale bindings were forwarded" true
    (r.Mcc.Gridapp.Serve.rp_forwarded > 0);
  check "senders rebound on Recipient_moved" true
    (r.Mcc.Gridapp.Serve.rp_rebinds > 0);
  (* forwarding quiesces: each client relays only until its notice
     lands, so the relay total stays far below the request count *)
  check "forwarding is transient, not the steady state" true
    (r.Mcc.Gridapp.Serve.rp_forwarded
    <= 6 * landed_moves cluster * serve_cfg.Mcc.Gridapp.Serve.clients);
  (* the authoritative map agrees with where the services ended up *)
  Array.iteri
    (fun k laddr ->
      let pid = d.Mcc.Gridapp.Serve.sv_service_pids.(k) in
      match Net.Cluster.entry_of_pid cluster pid with
      | Some e ->
        check "registry tracks the successor rank" true
          (Net.Cluster.service_rank cluster ~laddr = e.Net.Cluster.rank)
      | None -> Alcotest.fail "service entry lost")
    d.Mcc.Gridapp.Serve.sv_laddrs

(* The trace shows the service re-bound A -> B, then B -> C.  A
   resolves to C, and every relay the trace recorded went from a
   vacated rank to a rank the service held after it (A -> C
   included). *)
let check_relays_one_hop cluster =
  let events = Obs.Trace.events (Net.Cluster.trace cluster) in
  match
    List.filter_map
      (fun e ->
        match e.Obs.Trace.kind with
        | Obs.Trace.Service_bind { new_rank; old_rank; _ } when old_rank >= 0
          ->
          Some (e.Obs.Trace.time, old_rank, new_rank)
        | _ -> None)
      events
  with
  | [ (_, a, b); (t_bc, b', c) ] ->
    check "the second move left from the first's successor" true (b = b');
    check "A relays to C" true
      (Net.Registry.resolve (Net.Cluster.registry cluster) ~now:t_bc a
      = Net.Registry.Forwarded c);
    List.iter
      (fun e ->
        match e.Obs.Trace.kind with
        | Obs.Trace.Msg_forward { from_rank; to_rank; _ } ->
          check "every relay goes to a later home" true
            (List.mem (from_rank, to_rank) [ (a, b); (a, c); (b, c) ])
        | _ -> ())
      events
  | binds ->
    Alcotest.failf "expected two re-binds, traced %d" (List.length binds)

let hits cluster =
  Obs.Metrics.counter_value (Net.Cluster.metrics cluster)
    "cluster.migration_cache_hits"

(* A -> B -> C double migration of a SINGLE service with traffic in
   flight, under a loss/dup/jitter plan, across two seeds: both vacated
   ranks relay one hop, duplicates are deduplicated exactly once, every
   request is answered.  Neither destination holds the service's code,
   so each move ships the FIR and compiles ahead under the plan; each
   request charges 4 ms, so the service outlasts both compiles, and the
   second move is requested after the first cut over. *)
let test_serve_double_migration_chain () =
  List.iter
    (fun seed ->
      let cluster = mk_cluster ~nodes:4 (lossy_plan seed) in
      let cfg =
        { Mcc.Gridapp.Serve.clients = 3; services = 1;
          requests_per_client = 50; work_us = 4000; skew = false;
          speculative = false }
      in
      let d = Mcc.Gridapp.Serve.deploy cluster cfg in
      let r =
        Mcc.Gridapp.Serve.run d ~migrate_every_s:0.15 ~migrations:2
      in
      check_exactly_once (Printf.sprintf "chain seed %d" seed) d r;
      check "double migration landed" true (landed_moves cluster = 2);
      check "both destinations compiled the code ahead" true
        (hits cluster = 0);
      check "relays happened while bindings were stale" true
        (r.Mcc.Gridapp.Serve.rp_forwarded > 0);
      check "rebinds observed" true (r.Mcc.Gridapp.Serve.rp_rebinds > 0);
      check_relays_one_hop cluster;
      check "duplicates injected by the plan" true
        (Obs.Metrics.counter_value (Net.Cluster.metrics cluster)
           "faults.msg_dup"
        > 0))
    [ env_seed; env_seed + 17 ]

(* A sender with NO traffic in flight across a migration gets no
   Recipient_moved notice (nothing of its was relayed), so its cached
   binding silently went stale.  With a vanishingly small TTL its next
   send hits an EXPIRED forwarder: it must see the typed MSG_MOVED
   error — never a silent drop — re-resolve authoritatively, and
   succeed on the retry. *)
let test_serve_ttl_expiry_typed_error () =
  let cluster = mk_cluster ~ttl:1e-9 Net.Faults.none in
  let compile src =
    match Minic.Driver.compile src with
    | Ok fir -> fir
    | Error e -> Alcotest.failf "compile: %s" (Minic.Driver.error_to_string e)
  in
  (* request 1 warms the cache; the client then PARKS waiting for a
     coordinator's "go" (due long after the migration and the tiny
     TTL), so nothing of its is in flight when the service moves and no
     Recipient_moved notice is owed to it; request 2 goes through the
     stale binding.  Exit code = number of MSG_MOVED errors seen
     (expected: exactly 1). *)
  let client_src =
    {|
int main() {
  float *b = alloc_float(4);
  int *flag = alloc_int(1);
  int rc; int got; int tries;
  b[0] = 0.0;
  b[1] = 0.0;
  b[2] = 0.0;
  rc = svc_send(1, 7, b, 3);
  while (rc == 0 - 3) { rc = svc_send(1, 7, b, 3); }
  got = msg_try_recv_any(1000, b, 4);
  while (got < 0) { got = msg_try_recv_any(1000, b, 4); }
  flag[0] = 1;
  obj_write(1, flag, 1);
  got = msg_try_recv(3, 500, b, 4);
  while (got < 0) { got = msg_try_recv(3, 500, b, 4); }
  tries = 0;
  b[0] = 0.0;
  b[1] = 1.0;
  b[2] = 0.0;
  rc = svc_send(1, 7, b, 3);
  while (rc == 0 - 3) { tries = tries + 1; rc = svc_send(1, 7, b, 3); }
  got = msg_try_recv_any(1000, b, 4);
  while (got < 0) { got = msg_try_recv_any(1000, b, 4); }
  return tries;
}
|}
  in
  (* the "go" fires one simulated second in — far past any plausible
     migration completion time plus the nanosecond TTL *)
  let coordinator_src =
    {|
int main() {
  float *b = alloc_float(1);
  work_us(1000000);
  msg_send(0, 500, b, 1);
  return 0;
}
|}
  in
  let svc_cfg =
    { Mcc.Gridapp.Serve.clients = 1; services = 1; requests_per_client = 2;
      work_us = 10; skew = false; speculative = false }
  in
  let client_pid =
    Net.Cluster.spawn cluster ~rank:0 ~node_id:0 (compile client_src)
  in
  let service_pid =
    Net.Cluster.spawn cluster ~rank:1 ~node_id:1
      (compile (Mcc.Gridapp.Serve.service_source svc_cfg 0))
  in
  let _coordinator_pid =
    Net.Cluster.spawn cluster ~rank:3 ~node_id:0 (compile coordinator_src)
  in
  check_int "service laddr" 1
    (Net.Cluster.register_service cluster ~pid:service_pid);
  let exit_of pid =
    match Net.Cluster.entry_of_pid cluster pid with
    | Some e -> (
      match e.Net.Cluster.proc.Vm.Process.status with
      | Vm.Process.Exited n -> Some n
      | _ -> None)
    | None -> None
  in
  (* run until the client has consumed reply 1 (it signals through the
     object store) and is in its long local-work window, then move the
     service while nothing of the client's is in flight *)
  let _ =
    Net.Cluster.run cluster ~max_rounds:2_000_000 ~stop:(fun () ->
        Net.Cluster.get_object cluster 1 <> None)
  in
  check "client reached the work window" true
    (Net.Cluster.get_object cluster 1 <> None);
  (match move_running cluster ~pid:service_pid ~node_id:2 with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "service migration failed: %s"
      (Net.Cluster.migration_error_to_string e));
  let _ = Net.Cluster.run cluster ~max_rounds:4_000_000 in
  (match exit_of client_pid with
  | Some 1 -> ()
  | Some n ->
    let reg = Net.Cluster.registry cluster in
    Alcotest.failf
      "client exited %d, expected 1 typed error (moves=%d forwarded=%d \
       expired=%d now=%g)"
      n
      (Obs.Metrics.counter_value (Net.Cluster.metrics cluster)
         "registry.moves")
      (Net.Registry.forwarded reg)
      (Net.Registry.expired_count reg)
      (Net.Cluster.now cluster)
  | None ->
    Alcotest.failf "client did not finish (now=%g, status=%s)"
      (Net.Cluster.now cluster)
      (match Net.Cluster.entry_of_pid cluster client_pid with
      | Some e -> (
        match e.Net.Cluster.proc.Vm.Process.status with
        | Vm.Process.Running -> "Running"
        | Vm.Process.Trapped m -> "Trapped " ^ m
        | Vm.Process.Migrating _ -> "Migrating"
        | Vm.Process.Exited _ -> assert false)
      | None -> "lost"));
  (match
     ( exit_of service_pid,
       exit_of
         (match Net.Cluster.service_rank cluster ~laddr:1 with
         | Some r -> (
           match Net.Cluster.entry_of_rank cluster r with
           | Some e -> e.Net.Cluster.proc.Vm.Process.pid
           | None -> -1)
         | None -> -1) )
   with
  | _, Some n -> check_int "successor served both unique requests" 2 n
  | Some n, _ -> check_int "service served both unique requests" 2 n
  | None, None -> Alcotest.fail "service did not finish");
  check "expiry recorded as a typed event, not a drop" true
    (Net.Registry.expired_count (Net.Cluster.registry cluster) >= 1
    && Obs.Metrics.counter_value (Net.Cluster.metrics cluster)
         "registry.expired"
       >= 1)

(* The full acceptance shape at test scale: several services migrating
   mid-traffic under the fault plan, two seeds, exactly-once plus live
   latency percentiles from the Obs histogram.  Each request charges
   4 ms, so the services outlast the compiles their moves start. *)
let test_serve_faulty_migrations () =
  List.iter
    (fun seed ->
      let cluster = mk_cluster ~nodes:4 (lossy_plan seed) in
      let d =
        Mcc.Gridapp.Serve.deploy cluster
          { serve_cfg with Mcc.Gridapp.Serve.work_us = 4000 }
      in
      let r =
        Mcc.Gridapp.Serve.run d ~migrate_every_s:0.05 ~migrations:4
      in
      check_exactly_once (Printf.sprintf "faulty seed %d" seed) d r;
      check "moves landed" true (landed_moves cluster >= 2);
      check "a destination compiled the code ahead" true
        (hits cluster < landed_moves cluster);
      check "p99 >= p50 > 0" true
        (r.Mcc.Gridapp.Serve.rp_p50_ms > 0.0
        && r.Mcc.Gridapp.Serve.rp_p99_ms >= r.Mcc.Gridapp.Serve.rp_p50_ms))
    [ env_seed; env_seed + 1 ]

(* svc_self reads the caller's laddr through its CURRENT rank: the
   answer is the same before and after a re-home gives the process a
   fresh rank, and a ranked process that serves no laddr traps.  Two
   services are registered so the laddr read (2) is not the first.  The
   loop's charged work outlasts node 2's compile, so the cut-over lands
   inside it. *)
let test_svc_self_survives_rehome () =
  let cluster = mk_cluster Net.Faults.none in
  let src =
    {|
int main() {
  int before; int after; int r0; int i; int x;
  before = svc_self();
  r0 = rank();
  x = 0;
  for (i = 0; i < 20000; i = i + 1) { x = x + 1; work_us(10); }
  after = svc_self();
  if (rank() == r0) { return 0 - 1; }
  return before * 100 + after;
}
|}
  in
  let first = Net.Cluster.spawn cluster ~rank:4 ~node_id:0 (compile_c src) in
  let svc = Net.Cluster.spawn cluster ~rank:5 ~node_id:1 (compile_c src) in
  let stranger =
    Net.Cluster.spawn cluster ~rank:6 ~node_id:2 (compile_c src)
  in
  check_int "first laddr" 1 (Net.Cluster.register_service cluster ~pid:first);
  check_int "second laddr" 2 (Net.Cluster.register_service cluster ~pid:svc);
  ignore (Net.Cluster.run cluster ~max_rounds:5);
  check "still in its loop" true (status_of cluster svc = Vm.Process.Running);
  let successor =
    match move_running cluster ~pid:svc ~node_id:2 with
    | Ok rep -> rep.Net.Cluster.rep_pid
    | Error e ->
      Alcotest.failf "re-home failed: %s"
        (Net.Cluster.migration_error_to_string e)
  in
  ignore (Net.Cluster.run cluster);
  check "re-homed service reads laddr 2 before and after the move" true
    (status_of cluster successor = Vm.Process.Exited 202);
  check "an unregistered process traps" true
    (status_of cluster stranger
    = Vm.Process.Trapped "extern: svc_self: not a registered service")

let suites =
  [
    ( "registry-mailbox",
      [
        Alcotest.test_case "interleaved FIFO" `Quick test_interleaved_fifo;
        Alcotest.test_case "delayed head" `Quick test_fifo_with_delayed_head;
        Alcotest.test_case "wildcard enqueue order" `Quick
          test_recv_any_enqueue_order;
        Alcotest.test_case "wildcard roll priority" `Quick
          test_recv_any_roll_priority;
        Alcotest.test_case "take_all" `Quick test_take_all;
      ] );
    ( "registry-rekey",
      [
        Alcotest.test_case "deterministic merge" `Quick
          test_rekey_merge_deterministic;
      ] );
    ( "registry-core",
      [
        Alcotest.test_case "bind/rebind/expire" `Quick test_registry_basic;
        Alcotest.test_case "double move, one hop" `Quick
          test_registry_double_move;
        Alcotest.test_case "a rank is bound once" `Quick
          test_registry_rank_bound_once;
        Alcotest.test_case "random walk against a reference" `Quick
          test_registry_random_walk;
      ] );
    ( "registry-serving",
      [
        Alcotest.test_case "static exactly-once" `Quick test_serve_static;
        Alcotest.test_case "migrations, fault-free" `Quick
          test_serve_migrations_faultfree;
        Alcotest.test_case "A->B->C chain under faults" `Quick
          test_serve_double_migration_chain;
        Alcotest.test_case "TTL expiry is a typed error" `Quick
          test_serve_ttl_expiry_typed_error;
        Alcotest.test_case "migrations under faults, two seeds" `Quick
          test_serve_faulty_migrations;
        Alcotest.test_case "svc_self survives a re-home" `Quick
          test_svc_self_survives_rehome;
      ] );
  ]
