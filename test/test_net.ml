(* Tests for the simulated cluster substrate: network cost model, shared
   storage, mailboxes, scheduling, message passing, cluster-level
   migration protocols, failure injection, resurrection, and the
   distributed speculation-join cascade. *)

open Fir
open Runtime

open Kit

(* ------------------------------------------------------------------ *)
(* Simnet                                                              *)
(* ------------------------------------------------------------------ *)

let test_simnet_costs () =
  let net = Net.Simnet.create () in
  (* 1 MB at 100 Mbps = ~80 ms of wire time plus setup *)
  let t = Net.Simnet.transfer_seconds net 1_000_000 in
  check "1MB transfer around 81ms" true (t > 0.080 && t < 0.085);
  let small = Net.Simnet.message_seconds net 100 in
  check "message cheaper than transfer" true
    (small < Net.Simnet.transfer_seconds net 100);
  (* bandwidth term dominates large transfers *)
  check "transfer scales with size" true
    (Net.Simnet.transfer_seconds net 10_000_000
     > 9.0 *. Net.Simnet.transfer_seconds net 1_000_000 /. 1.2)

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)
(* ------------------------------------------------------------------ *)

let test_storage () =
  let net = Net.Simnet.create () in
  let st = Net.Storage.create net in
  let dt = Net.Storage.write st "ckpt1" "hello" in
  check "write takes time" true (dt > 0.0);
  (match Net.Storage.read st "ckpt1" with
  | Some (data, _) -> Alcotest.(check string) "read back" "hello" data
  | None -> Alcotest.fail "read failed");
  check "missing file" true (Net.Storage.read st "nope" = None);
  let _ = Net.Storage.write st "ckpt1" "world" in
  (match Net.Storage.read st "ckpt1" with
  | Some (data, _) -> Alcotest.(check string) "overwrite" "world" data
  | None -> Alcotest.fail "read failed");
  check "exists" true (Net.Storage.exists st "ckpt1");
  check_int "size" 5 (Option.get (Net.Storage.size st "ckpt1"));
  check_int "list" 1 (List.length (Net.Storage.list st));
  (* listing order is part of the API: sorted, independent of insertion
     order and of Hashtbl internals (which differ across OCaml
     versions) — consumers diff listings across runs *)
  List.iter
    (fun p -> ignore (Net.Storage.write st p p))
    [ "zz"; "a9"; "m/3"; "a1"; "ckpt0" ];
  Alcotest.(check (list string))
    "listing is sorted and deterministic"
    [ "a1"; "a9"; "ckpt0"; "ckpt1"; "m/3"; "zz" ]
    (Net.Storage.list st)

(* ------------------------------------------------------------------ *)
(* Mailboxes                                                           *)
(* ------------------------------------------------------------------ *)

let msg ?(spec = None) ~src ~tag ~at payload =
  {
    Net.Mpi.msg_src_rank = src;
    msg_src_pid = 100 + src;
    msg_tag = tag;
    msg_payload = Array.map (fun n -> Value.Vint n) payload;
    msg_deliver_at = at;
    msg_spec = spec;
    msg_src_epoch = 0;
  }

let test_mailbox_matching () =
  let mbox = Net.Mpi.create_mailbox () in
  Net.Mpi.enqueue mbox (msg ~src:1 ~tag:5 ~at:0.0 [| 1 |]);
  Net.Mpi.enqueue mbox (msg ~src:2 ~tag:5 ~at:0.0 [| 2 |]);
  Net.Mpi.enqueue mbox (msg ~src:1 ~tag:6 ~at:0.0 [| 3 |]);
  (* wrong src/tag combinations do not match *)
  check "no match for src 3" true
    (Net.Mpi.try_recv mbox ~now:1.0 ~src:(Net.Mpi.Rank 3) ~tag:5
    = Net.Mpi.None_yet);
  (match Net.Mpi.try_recv mbox ~now:1.0 ~src:(Net.Mpi.Rank 1) ~tag:6 with
  | Net.Mpi.Received m ->
    check "tag 6 from src 1" true (m.Net.Mpi.msg_payload = [| Value.Vint 3 |])
  | _ -> Alcotest.fail "expected message");
  check_int "two messages left" 2 (Net.Mpi.pending mbox);
  (* FIFO among matches *)
  match Net.Mpi.try_recv mbox ~now:1.0 ~src:(Net.Mpi.Rank 1) ~tag:5 with
  | Net.Mpi.Received m ->
    check "first matching" true (m.Net.Mpi.msg_payload = [| Value.Vint 1 |])
  | _ -> Alcotest.fail "expected message"

let test_mailbox_delivery_time () =
  let mbox = Net.Mpi.create_mailbox () in
  Net.Mpi.enqueue mbox (msg ~src:1 ~tag:0 ~at:5.0 [| 9 |]);
  check "not yet delivered" true
    (Net.Mpi.try_recv mbox ~now:1.0 ~src:(Net.Mpi.Rank 1) ~tag:0
    = Net.Mpi.None_yet);
  check "next delivery known" true
    (Net.Mpi.next_matching_delivery mbox ~src:(Net.Mpi.Rank 1) ~tag:0
    = Some 5.0);
  match Net.Mpi.try_recv mbox ~now:5.0 ~src:(Net.Mpi.Rank 1) ~tag:0 with
  | Net.Mpi.Received _ -> ()
  | _ -> Alcotest.fail "expected delivery at t=5"

let test_mailbox_roll_notice () =
  let mbox = Net.Mpi.create_mailbox () in
  Net.Mpi.enqueue mbox (msg ~src:1 ~tag:0 ~at:0.0 [| 1 |]);
  Net.Mpi.post_roll_notice mbox ~src_rank:1;
  (* the notice preempts the queued message and is consumed exactly once *)
  check "roll first" true
    (Net.Mpi.try_recv mbox ~now:1.0 ~src:(Net.Mpi.Rank 1) ~tag:0
    = Net.Mpi.Roll);
  (match Net.Mpi.try_recv mbox ~now:1.0 ~src:(Net.Mpi.Rank 1) ~tag:0 with
  | Net.Mpi.Received _ -> ()
  | _ -> Alcotest.fail "message should follow the notice");
  (* notices are per source rank *)
  Net.Mpi.post_roll_notice mbox ~src_rank:7;
  check "other ranks unaffected" true
    (Net.Mpi.try_recv mbox ~now:1.0 ~src:(Net.Mpi.Rank 1) ~tag:0
    = Net.Mpi.None_yet)

let test_mailbox_discard_speculative () =
  let mbox = Net.Mpi.create_mailbox () in
  Net.Mpi.enqueue mbox (msg ~spec:(Some (42, 7)) ~src:1 ~tag:0 ~at:0.0 [| 1 |]);
  Net.Mpi.enqueue mbox (msg ~spec:(Some (42, 8)) ~src:1 ~tag:0 ~at:0.0 [| 2 |]);
  Net.Mpi.enqueue mbox (msg ~src:1 ~tag:0 ~at:0.0 [| 3 |]);
  let dropped =
    Net.Mpi.discard_speculative mbox ~uids:[ 7 ] ~sender_pid:42
  in
  check_int "one dropped" 1 dropped;
  check_int "two remain" 2 (Net.Mpi.pending mbox)

(* A mailbox holding traffic on both sides of the two-list FIFO: it
   has been received from (its [front] is filled) and enqueued to since
   (those sit in [back]).  It holds two duplicated copies (the network's
   dup fault enqueues a message twice), speculative traffic from levels
   7 and 8 of pid 42 and level 7 of pid 43, and two stale-epoch copies.
   Jitter makes some newer messages deliverable before older ones, and
   6 and 8 share a source, a tag and a delivery time, so only enqueue
   order tells them apart.  Payloads name the messages; 0 has already
   been received. *)
let mixed_mailbox () =
  let mbox = Net.Mpi.create_mailbox () in
  let e ?(epoch = 1) ?spec ~src ~tag ~at n =
    Net.Mpi.enqueue mbox
      { (msg ~spec ~src ~tag ~at [| n |]) with Net.Mpi.msg_src_epoch = epoch }
  in
  e ~src:1 ~tag:0 ~at:0.0 0;
  e ~spec:(42, 7) ~src:1 ~tag:0 ~at:3.0 1;
  e ~src:2 ~tag:0 ~at:0.5 2;
  (match Net.Mpi.try_recv mbox ~now:0.0 ~src:(Net.Mpi.Rank 1) ~tag:0 with
  | Net.Mpi.Received _ -> ()
  | _ -> Alcotest.fail "expected message 0");
  e ~spec:(42, 7) ~src:1 ~tag:0 ~at:1.0 3;
  e ~spec:(42, 7) ~src:1 ~tag:0 ~at:1.0 3;
  e ~src:1 ~tag:0 ~at:0.2 4;
  e ~spec:(42, 8) ~src:2 ~tag:0 ~at:0.1 5;
  e ~spec:(43, 7) ~src:1 ~tag:1 ~at:0.1 6;
  e ~epoch:0 ~src:2 ~tag:0 ~at:0.1 7;
  e ~epoch:0 ~src:2 ~tag:0 ~at:0.1 7;
  e ~src:1 ~tag:1 ~at:0.1 8;
  mbox

let payloads mbox =
  List.map
    (fun m ->
      match m.Net.Mpi.msg_payload with
      | [| Value.Vint n |] -> n
      | _ -> Alcotest.fail "unexpected payload")
    (Net.Mpi.messages mbox)

(* Everything a reader can observe of a mailbox, consumed as it is
   drained: the order in which wildcard and directed [try_recv] calls
   hand messages out, as simulated time advances past the jittered
   delivery times. *)
let drain_log mbox =
  let log = ref [] in
  List.iter
    (fun now ->
      log := `Any (Net.Mpi.try_recv mbox ~now ~src:Net.Mpi.Any ~tag:0) :: !log;
      List.iter
        (fun (src_rank, tag) ->
          let rec take () =
            match
              Net.Mpi.try_recv mbox ~now ~src:(Net.Mpi.Rank src_rank) ~tag
            with
            | Net.Mpi.Received m ->
              log := `Recv m :: !log;
              take ()
            | r -> log := `Last r :: !log
          in
          take ())
        [ (1, 0); (1, 1); (2, 0) ])
    [ 0.0; 0.15; 0.3; 0.6; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 ];
  List.rev !log

(* A purge that matches nothing changes nothing observable, and a
   matching one still takes every duplicate copy. *)
let test_mailbox_purges () =
  let untouched = mixed_mailbox () in
  let before = Net.Mpi.messages untouched in
  let no_ops =
    [ ( "discard_speculative",
        fun mbox ->
          Net.Mpi.discard_speculative mbox ~uids:[ 9 ] ~sender_pid:42 );
      ( "settle_speculative",
        fun mbox ->
          Net.Mpi.settle_speculative mbox ~uids:[ 7 ] ~sender_pid:99 );
      ( "discard_stale",
        fun mbox ->
          Net.Mpi.discard_stale mbox ~stale:(fun m ->
              m.Net.Mpi.msg_src_epoch < 0) ) ]
  in
  let expected_log = drain_log (mixed_mailbox ()) in
  List.iter
    (fun (name, purge) ->
      let mbox = mixed_mailbox () in
      check_int (name ^ ": matches nothing") 0 (purge mbox);
      check (name ^ ": messages unchanged") true
        (Net.Mpi.messages mbox = before);
      check_int (name ^ ": pending unchanged") (List.length before)
        (Net.Mpi.pending mbox);
      check (name ^ ": same drain") true (drain_log mbox = expected_log))
    no_ops;
  let mbox = mixed_mailbox () in
  check_int "discard drops every copy" 3
    (Net.Mpi.discard_speculative mbox ~uids:[ 7 ] ~sender_pid:42);
  Alcotest.(check (list int)) "discard keeps the rest in order"
    [ 2; 4; 5; 6; 7; 7; 8 ] (payloads mbox);
  let mbox = mixed_mailbox () in
  check_int "settle settles every copy" 3
    (Net.Mpi.settle_speculative mbox ~uids:[ 7 ] ~sender_pid:42);
  Alcotest.(check (list int)) "settle keeps every message in order"
    [ 1; 2; 3; 3; 4; 5; 6; 7; 7; 8 ] (payloads mbox);
  let stamped spec =
    List.exists
      (fun m -> m.Net.Mpi.msg_spec = Some spec)
      (Net.Mpi.messages mbox)
  in
  check "no settled stamp left" false (stamped (42, 7));
  check "other levels keep their stamps" true
    (stamped (42, 8) && stamped (43, 7));
  let mbox = mixed_mailbox () in
  check_int "stale drops every copy" 2
    (Net.Mpi.discard_stale mbox ~stale:(fun m -> m.Net.Mpi.msg_src_epoch < 1));
  Alcotest.(check (list int)) "stale keeps the rest in order"
    [ 1; 2; 3; 3; 4; 5; 6; 8 ] (payloads mbox)

(* With the two-list FIFO, a 10k-message burst is linear work and
   delivery order stays oldest-first (the old [queue @ [msg]] enqueue
   made a burst O(N^2)). *)
let test_mailbox_fifo_burst () =
  let mbox = Net.Mpi.create_mailbox () in
  let n = 10_000 in
  for i = 1 to n do
    Net.Mpi.enqueue mbox (msg ~src:1 ~tag:0 ~at:0.0 [| i |])
  done;
  check_int "all pending" n (Net.Mpi.pending mbox);
  (match Net.Mpi.messages mbox with
  | first :: _ ->
    check "messages lists oldest first" true
      (first.Net.Mpi.msg_payload = [| Value.Vint 1 |])
  | [] -> Alcotest.fail "burst lost");
  let in_order = ref true in
  for i = 1 to n do
    match Net.Mpi.try_recv mbox ~now:1.0 ~src:(Net.Mpi.Rank 1) ~tag:0 with
    | Net.Mpi.Received m ->
      if m.Net.Mpi.msg_payload <> [| Value.Vint i |] then in_order := false
    | _ -> in_order := false
  done;
  check "delivered oldest-first" true !in_order;
  check_int "drained" 0 (Net.Mpi.pending mbox)

(* A mailbox keeps nothing of traffic it no longer holds: grid and S1
   tags grow with the step or round, so a mailbox sees ever new (src,
   tag) pairs.  Indexing by (src, tag) kept one entry per pair ever
   seen, over a million words after this loop. *)
let test_mailbox_no_leak () =
  let mbox = Net.Mpi.create_mailbox () in
  for tag = 1 to 100_000 do
    Net.Mpi.enqueue mbox (msg ~src:1 ~tag ~at:0.0 [| tag |]);
    match Net.Mpi.try_recv mbox ~now:1.0 ~src:(Net.Mpi.Rank 1) ~tag with
    | Net.Mpi.Received _ -> ()
    | _ -> Alcotest.failf "tag %d not received" tag
  done;
  check_int "drained" 0 (Net.Mpi.pending mbox);
  let words = Obj.reachable_words (Obj.repr mbox) in
  if words >= 1_000 then
    Alcotest.failf "an empty mailbox reaches %d words (bound 1000)" words

(* A seeded random walk over every mailbox operation, checked after
   each step against a naive model: a list of the queued messages,
   oldest first, and the set of pending roll notices.  Three sources and
   three tags; delivery times are jittered around the walk's clock, so a
   newer message is often due before an older one.  Some enqueues are
   duplicated (the network's dup fault).  A message's payload is its
   serial number, so copies of one send are equal.  Half the receives
   aim at a queued message's source and tag, so many of them find
   one.  Checks fail quietly until one is wrong: the walk makes
   thousands of them. *)
let test_mailbox_random_walk () =
  let rng = Random.State.make [| 0x6d70; env_seed |] in
  let mbox = Net.Mpi.create_mailbox () in
  let model = ref [] and notices = ref [] in
  let now = ref 0.0 and serial = ref 0 in
  let step = ref 0 in
  let expect what ok =
    if not ok then Alcotest.failf "step %d (seed %d): %s" !step env_seed what
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let poll () =
    let src, tag =
      match !model with
      | _ :: _ when Random.State.bool rng ->
        let m = pick !model in
        (Net.Mpi.Rank m.Net.Mpi.msg_src_rank, m.msg_tag)
      | _ -> (Net.Mpi.Rank (Random.State.int rng 3), Random.State.int rng 3)
    in
    ((if Random.State.int rng 3 = 0 then Net.Mpi.Any else src), tag)
  in
  let matches src tag (m : Net.Mpi.message) =
    m.Net.Mpi.msg_tag = tag
    && match src with Net.Mpi.Rank r -> m.msg_src_rank = r | Any -> true
  in
  let rec remove_first p = function
    | [] -> None
    | m :: rest when p m -> Some (m, rest)
    | m :: rest ->
      Option.map (fun (x, rest') -> (x, m :: rest')) (remove_first p rest)
  in
  let levels = [ (42, [ 7 ]); (42, [ 8 ]); (42, [ 7; 8 ]); (43, [ 7 ]) ] in
  let from ~uids ~sender_pid (m : Net.Mpi.message) =
    match m.Net.Mpi.msg_spec with
    | Some (pid, uid) -> pid = sender_pid && List.mem uid uids
    | None -> false
  in
  let recv_equal a b =
    match (a, b) with
    | Net.Mpi.Received x, Net.Mpi.Received y -> x = y
    | Net.Mpi.Roll, Net.Mpi.Roll | Net.Mpi.None_yet, Net.Mpi.None_yet -> true
    | _ -> false
  in
  for i = 1 to 400 do
    step := i;
    (match Random.State.int rng 44 with
    | n when n < 12 ->
      incr serial;
      let m =
        {
          (msg
             ~spec:(pick [ None; Some (42, 7); Some (42, 8); Some (43, 7) ])
             ~src:(Random.State.int rng 3) ~tag:(Random.State.int rng 3)
             ~at:(!now +. Random.State.float rng 1.5)
             [| !serial |])
          with
          Net.Mpi.msg_src_epoch = Random.State.int rng 2;
        }
      in
      let copies = if Random.State.int rng 5 = 0 then 2 else 1 in
      for _ = 1 to copies do
        Net.Mpi.enqueue mbox m;
        model := !model @ [ m ]
      done
    | n when n < 24 ->
      now := !now +. Random.State.float rng 0.5;
      let src, tag = poll () in
      let expected =
        let notice =
          match src with
          | Net.Mpi.Rank r -> if List.mem r !notices then Some r else None
          | Any -> (
            match List.sort compare !notices with r :: _ -> Some r | [] -> None)
        in
        match notice with
        | Some r ->
          notices := List.filter (( <> ) r) !notices;
          Net.Mpi.Roll
        | None -> (
          match
            remove_first
              (fun m -> matches src tag m && m.Net.Mpi.msg_deliver_at <= !now)
              !model
          with
          | Some (m, rest) ->
            model := rest;
            Net.Mpi.Received m
          | None -> Net.Mpi.None_yet)
      in
      expect "try_recv"
        (recv_equal expected (Net.Mpi.try_recv mbox ~now:!now ~src ~tag))
    | n when n < 28 ->
      let src, tag = poll () in
      let expected =
        List.fold_left
          (fun acc (m : Net.Mpi.message) ->
            if not (matches src tag m) then acc
            else
              match acc with
              | None -> Some m.msg_deliver_at
              | Some t -> Some (min t m.msg_deliver_at))
          None !model
      in
      expect "next_matching_delivery"
        (Net.Mpi.next_matching_delivery mbox ~src ~tag = expected)
    | 28 | 29 | 30 ->
      let r = Random.State.int rng 3 in
      Net.Mpi.post_roll_notice mbox ~src_rank:r;
      if not (List.mem r !notices) then notices := r :: !notices
    | 31 | 32 ->
      let sender_pid, uids = pick levels in
      let kept = List.filter (fun m -> not (from ~uids ~sender_pid m)) !model in
      expect "discard_speculative"
        (Net.Mpi.discard_speculative mbox ~uids ~sender_pid
        = List.length !model - List.length kept);
      model := kept
    | 33 | 34 ->
      let sender_pid, uids = pick levels in
      let settled = List.length (List.filter (from ~uids ~sender_pid) !model) in
      expect "settle_speculative"
        (Net.Mpi.settle_speculative mbox ~uids ~sender_pid = settled);
      model :=
        List.map
          (fun m ->
            if from ~uids ~sender_pid m then { m with Net.Mpi.msg_spec = None }
            else m)
          !model
    | 35 | 36 | 37 ->
      (* The predicate logs every call.  It must see every queued
         message, and when it matches, its last calls walk the mailbox
         in enqueue order. *)
      let r = Random.State.int rng 3 in
      let stale (m : Net.Mpi.message) =
        m.Net.Mpi.msg_src_rank = r && m.msg_src_epoch = 0
      in
      let calls = ref [] in
      let dropped =
        Net.Mpi.discard_stale mbox ~stale:(fun m ->
            calls := m :: !calls;
            stale m)
      in
      let kept = List.filter (fun m -> not (stale m)) !model in
      expect "discard_stale" (dropped = List.length !model - List.length kept);
      let calls = List.rev !calls in
      expect "the predicate saw every message"
        (List.for_all (fun m -> List.mem m calls) !model);
      if dropped > 0 then begin
        let skip = List.length calls - List.length !model in
        expect "the predicate ends in enqueue order"
          (List.filteri (fun i _ -> i >= skip) calls = !model)
      end;
      model := kept
    | 38 ->
      expect "take_all" (Net.Mpi.take_all mbox = !model);
      model := []
    | _ -> ());
    expect "pending" (Net.Mpi.pending mbox = List.length !model);
    expect "messages" (Net.Mpi.messages mbox = !model);
    List.iter
      (fun r ->
        expect "has_roll_notice"
          (Net.Mpi.has_roll_notice mbox ~src:(Net.Mpi.Rank r)
          = List.mem r !notices))
      [ 0; 1; 2 ]
  done

(* The wake check's memo against a fresh scan: random sequences of
   every queue mutation (enqueue, a receive that takes or does not,
   the purges, [take_all]) and of roll notices, each followed by a
   [next_matching_delivery] query on a random (src, tag).  Sources and
   tags are few, so a query often repeats the memoized pair right after
   a mutation that changed its answer; times are quarter steps, so a
   receive often finds a newer message due before an older one. *)
type memo_op =
  | Enqueue of int * int * float * (int * int) option * int
  | Recv of Net.Mpi.source * int * float
  | Discard_speculative of int
  | Settle_speculative of int
  | Discard_stale
  | Take_all
  | Roll_notice of int

let source_text = function
  | Net.Mpi.Rank r -> Printf.sprintf "rank %d" r
  | Net.Mpi.Any -> "any"

let memo_op_text = function
  | Enqueue (src, tag, at, spec, epoch) ->
    Printf.sprintf "enqueue src %d tag %d at %g%s epoch %d" src tag at
      (match spec with
      | Some (pid, uid) -> Printf.sprintf " spec (%d, %d)" pid uid
      | None -> "")
      epoch
  | Recv (src, tag, now) ->
    Printf.sprintf "try_recv %s tag %d now %g" (source_text src) tag now
  | Discard_speculative uid -> Printf.sprintf "discard_speculative %d" uid
  | Settle_speculative uid -> Printf.sprintf "settle_speculative %d" uid
  | Discard_stale -> "discard_stale"
  | Take_all -> "take_all"
  | Roll_notice r -> Printf.sprintf "post_roll_notice %d" r

let memo_steps =
  let open QCheck.Gen in
  let rank = int_bound 1 and tag = int_bound 1 in
  let src = oneofl [ Net.Mpi.Rank 0; Net.Mpi.Rank 1; Net.Mpi.Any ] in
  let time = map (fun k -> 0.25 *. float_of_int k) (int_bound 8) in
  let uid = oneofl [ 7; 8 ] in
  let op =
    frequency
      [ ( 6,
          map3
            (fun (src, tag) (at, spec) epoch ->
              Enqueue (src, tag, at, spec, epoch))
            (pair rank tag)
            (pair time (oneofl [ None; Some (42, 7); Some (42, 8) ]))
            (int_bound 1) );
        4, map3 (fun src tag now -> Recv (src, tag, now)) src tag time;
        1, map (fun u -> Discard_speculative u) uid;
        1, map (fun u -> Settle_speculative u) uid;
        1, return Discard_stale;
        1, return Take_all;
        1, map (fun r -> Roll_notice r) rank ]
  in
  list_size (int_range 1 40) (pair op (pair src tag))

let print_memo_steps steps =
  String.concat "; "
    (List.map
       (fun (op, (src, tag)) ->
         Printf.sprintf "%s, ask %s tag %d" (memo_op_text op) (source_text src)
           tag)
       steps)

let prop_wake_memo =
  QCheck.Test.make ~count:500
    ~name:"next_matching_delivery's memo equals a fresh scan"
    (QCheck.make memo_steps ~print:print_memo_steps)
    (fun steps ->
      let mbox = Net.Mpi.create_mailbox () in
      let fresh ~src ~tag =
        List.fold_left
          (fun acc (m : Net.Mpi.message) ->
            let hit =
              m.Net.Mpi.msg_tag = tag
              && match src with
                 | Net.Mpi.Rank r -> m.msg_src_rank = r
                 | Any -> true
            in
            match acc with
            | Some t when hit -> Some (Float.min t m.msg_deliver_at)
            | None when hit -> Some m.msg_deliver_at
            | _ -> acc)
          None (Net.Mpi.messages mbox)
      in
      List.for_all
        (fun (op, (src, tag)) ->
          (match op with
          | Enqueue (r, t, at, spec, epoch) ->
            Net.Mpi.enqueue mbox
              { (msg ~spec ~src:r ~tag:t ~at [| 0 |]) with
                Net.Mpi.msg_src_epoch = epoch }
          | Recv (src, tag, now) -> ignore (Net.Mpi.try_recv mbox ~now ~src ~tag)
          | Discard_speculative uid ->
            ignore
              (Net.Mpi.discard_speculative mbox ~uids:[ uid ] ~sender_pid:42)
          | Settle_speculative uid ->
            ignore
              (Net.Mpi.settle_speculative mbox ~uids:[ uid ] ~sender_pid:42)
          | Discard_stale ->
            ignore
              (Net.Mpi.discard_stale mbox ~stale:(fun m ->
                   m.Net.Mpi.msg_src_epoch < 1))
          | Take_all -> ignore (Net.Mpi.take_all mbox)
          | Roll_notice r -> Net.Mpi.post_roll_notice mbox ~src_rank:r);
          Net.Mpi.next_matching_delivery mbox ~src ~tag = fresh ~src ~tag)
        steps)

(* ------------------------------------------------------------------ *)
(* Cluster: basic scheduling and messaging                             *)
(* ------------------------------------------------------------------ *)

let exit_program n =
  Builder.(prog [ func "main" [] (fun _ -> exit_ (int n)) ])

let test_cluster_runs_to_exit () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let pid1 = Net.Cluster.spawn cluster ~node_id:0 (exit_program 7) in
  let pid2 =
    Net.Cluster.spawn cluster ~node_id:1 (exit_program 8)
  in
  let _ = Net.Cluster.run cluster in
  check "interp process exited" true
    (status_of cluster pid1 = Vm.Process.Exited 7);
  check "emulated process exited" true
    (status_of cluster pid2 = Vm.Process.Exited 8);
  check "time advanced" true (Net.Cluster.now cluster > 0.0)

(* rank 0 sends [10;20;30] to rank 1; rank 1 polls, sums, exits 60 *)
let sender_program =
  Builder.(
    prog
      [
        func "main" [] (fun _ ->
            array Types.Tint ~size:(int 3) ~init:(int 0) (fun buf ->
                store buf (int 0) (int 10)
                  (store buf (int 1) (int 20)
                     (store buf (int 2) (int 30)
                        (ext Types.Tint "msg_send_int"
                           [ int 1; int 0; buf; int 3 ] (fun r ->
                             exit_ r))))));
      ])

let receiver_program =
  Builder.(
    prog
      [
        func "poll" [ "buf", Types.Tptr Types.Tint ] (fun args ->
            match args with
            | [ buf ] ->
              ext Types.Tint "msg_try_recv_int" [ int 0; int 0; buf; int 3 ]
                (fun r ->
                  eq r (int (-1)) (fun empty ->
                      if_ empty (callf "poll" [ buf ])
                        (load Types.Tint buf (int 0) (fun a ->
                             load Types.Tint buf (int 1) (fun b ->
                                 load Types.Tint buf (int 2) (fun c ->
                                     add a b (fun ab ->
                                         add ab c (fun s -> exit_ s))))))))
            | _ -> assert false);
        func "main" [] (fun _ ->
            array Types.Tint ~size:(int 3) ~init:(int 0) (fun buf ->
                callf "poll" [ buf ]));
      ])

let test_cluster_message_passing () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let recv_pid =
    Net.Cluster.spawn cluster ~rank:1 ~node_id:1 receiver_program
  in
  let send_pid = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 sender_program in
  let _ = Net.Cluster.run cluster in
  check "sender ok" true (status_of cluster send_pid = Vm.Process.Exited 0);
  check "receiver summed the payload" true
    (status_of cluster recv_pid = Vm.Process.Exited 60)

let test_cluster_send_to_nowhere () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 1 } in
  (* rank 1 never registered: send returns -1 *)
  let pid = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 sender_program in
  let _ = Net.Cluster.run cluster in
  check "send to unknown rank fails" true
    (status_of cluster pid = Vm.Process.Exited (-1))

(* A negative length or buffer size from the program, or a length past
   the end of its buffer, traps the process with a typed extern failure,
   each with its own cause (not "unknown extern").  It must not crash
   the host run (an oversized length must not reach a host allocation),
   and a call must not consume or add to the queued message (deliverable
   by then). *)
let test_extern_bad_lengths () =
  List.iter
    (fun (call, cause) ->
      let cluster = mk_cluster ~nodes:1 Net.Faults.none in
      let pid =
        Net.Cluster.spawn cluster ~rank:0 ~node_id:0
          (compile_c
             (Printf.sprintf
                {|
int main() {
  int *b = alloc_int(4);
  float *f = alloc_float(4);
  int until;
  b[0] = 65;
  fs_write("f", b, 1);
  obj_write(1, b, 1);
  msg_send(0, 5, f, 1);
  until = sim_now_us() + 100;
  while (sim_now_us() < until) { b[1] = 0; }
  return %s;
}
|}
                call))
      in
      ignore (Net.Cluster.run cluster);
      check (call ^ " traps with its own cause") true
        (status_of cluster pid = Vm.Process.Trapped ("extern: " ^ cause));
      match Net.Cluster.entry_of_pid cluster pid with
      | Some e ->
        check_int (call ^ " leaves the message queued") 1
          (Net.Mpi.pending e.Net.Cluster.mailbox)
      | None -> Alcotest.fail "process lost")
    [
      "obj_write(1, b, 0 - 1)", "obj_write: negative length";
      "fs_write(\"f\", b, 0 - 1)", "fs_write: negative length";
      "fs_read(\"f\", b, 0 - 1)", "fs_read: negative length";
      "obj_read(1, b, 0 - 1)", "obj_read: negative length";
      "msg_try_recv(0, 5, f, 0 - 1)", "msg_try_recv: negative length";
      "msg_try_recv(0, 5, f, 0 - 3)", "msg_try_recv: negative length";
      "msg_try_recv_any(5, f, 0 - 1)", "msg_try_recv_any: negative length";
      "msg_send(0, 5, f, 1000000000000000)",
      "msg_send: length exceeds the buffer";
      "obj_write(1, b, 1000000000000000)",
      "obj_write: length exceeds the buffer";
      "fs_write(\"x\", b, 1000000000000000)",
      "fs_write: length exceeds the buffer";
    ]

(* One extern program for the tests below: call [name] on the atoms
   [args] binds, then exit 0.  [Builder.ext] bypasses the front end's
   typecheck, and [spawn] does not strict-typecheck, so the arguments
   reach the handler as given. *)
let extern_call_program name result args =
  Builder.(
    prog
      [ func "main" [] (fun _ ->
            args (fun atoms -> ext result name atoms (fun _ -> exit_ (int 0))))
      ])

(* The emulator tiers a cluster process can run on.  "Compiled,
   switched" is a compiled image that already ran once under another
   host's handler, one whose table accepts [name] with any arguments:
   its extern sites are bound there, and the cluster's run must bind
   them again. *)
let extern_tiers name =
  let emu mode program (proc : Vm.Process.t) =
    Vm.Emulator.create ~mode
      (Vm.Codegen.compile ~arch:proc.Vm.Process.arch program)
      proc
  in
  let switched program (proc : Vm.Process.t) =
    let e = emu Vm.Emulator.Compiled program proc in
    let other =
      Vm.Extern.(
        handler (table [ ext name [] Types.Tint (fun () _ _ -> Value.Vint 0) ]))
        ()
    in
    if Vm.Emulator.run ~extern:other e <> Vm.Process.Exited 0 then
      Alcotest.fail "the other host's run did not exit";
    proc.Vm.Process.status <- Vm.Process.Running;
    proc.Vm.Process.cont <- program.Fir.Ast.p_main, [];
    e
  in
  [ "Baseline", emu Vm.Emulator.Baseline;
    "Compiled", emu Vm.Emulator.Compiled;
    "Compiled, switched", switched ]

let set_tier cluster pid tier program =
  match Net.Cluster.entry_of_pid cluster pid with
  | Some e -> e.Net.Cluster.emu <- tier program e.Net.Cluster.proc
  | None -> Alcotest.fail "process lost"

(* Arguments that do not fit an entry trap with one message naming the
   extern and the arguments, whichever table defines the name (the base
   runtime's print_int, the cluster's msg_send) and whichever tier runs
   the call. *)
let test_extern_bad_arguments () =
  List.iter
    (fun (name, args, cause) ->
      let program =
        extern_call_program name Types.Tint (fun k -> k args)
      in
      List.iter
        (fun (tier_name, tier) ->
          let cluster = mk_cluster ~nodes:1 Net.Faults.none in
          let pid = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 program in
          set_tier cluster pid tier program;
          ignore (Net.Cluster.run cluster);
          check_str
            (Printf.sprintf "%s under %s" name tier_name)
            ("extern: " ^ cause)
            (match status_of cluster pid with
            | Vm.Process.Trapped m -> m
            | _ -> "no trap"))
        (extern_tiers name))
    [
      ( "print_int",
        [ Builder.float 1.5 ],
        "extern print_int: bad arguments (1.5)" );
      ( "msg_send",
        Builder.[ int 0; int 5; int 7; int 1 ],
        "extern msg_send: bad arguments (0, 5, 7, 1)" );
    ]

(* Every entry of the cluster table (the base runtime's included) accepts
   arguments built from its own signature: a call may fail with the
   extern's own cause (dspec_open outside a speculation), never as
   "bad arguments" or "unknown extern". *)
let test_extern_signatures_fit_implementations () =
  let contains s sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun name ->
      let args, result =
        match Net.Cluster.extern_signatures name with
        | Some s -> s
        | None -> Alcotest.failf "%s: no signature" name
      in
      let rec bind tys k =
        match tys with
        | [] -> k []
        | ty :: rest ->
          let next a = bind rest (fun atoms -> k (a :: atoms)) in
          Builder.(
            match ty with
            | Types.Tint -> next (int 1)
            | Types.Tfloat -> next (float 1.0)
            | Types.Tptr Types.Tfloat ->
              array Types.Tfloat ~size:(int 4) ~init:(float 0.0) next
            | Types.Tptr t -> array t ~size:(int 4) ~init:(int 0) next
            | Types.Traw -> string "x" next
            | _ -> Alcotest.failf "%s: no test argument for its signature" name)
      in
      let cluster = mk_cluster ~nodes:1 Net.Faults.none in
      let pid =
        Net.Cluster.spawn cluster ~rank:0 ~node_id:0
          (extern_call_program name result (bind args))
      in
      ignore (Net.Cluster.run cluster);
      match status_of cluster pid with
      | Vm.Process.Trapped m
        when contains m "bad arguments" || contains m "unknown extern" ->
        Alcotest.failf "%s: %s" name m
      | _ -> ())
    Net.Cluster.extern_names

(* A name neither the cluster's externs nor the base runtime define
   falls through the whole chain and traps naming itself, on every
   tier. *)
let test_unknown_extern_traps () =
  let program =
    extern_call_program "no_such_extern" Types.Tint (fun k -> k [])
  in
  List.iter
    (fun (tier_name, tier) ->
      let cluster = mk_cluster ~nodes:1 Net.Faults.none in
      let pid = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 program in
      set_tier cluster pid tier program;
      ignore (Net.Cluster.run cluster);
      check_str
        ("traps as unknown extern under " ^ tier_name)
        "extern: unknown extern no_such_extern"
        (match status_of cluster pid with
        | Vm.Process.Trapped m -> m
        | _ -> "no trap"))
    (extern_tiers "no_such_extern")

let test_cluster_typechecks_against_externs () =
  check "cluster programs typecheck against the extern registry" true
    (Typecheck.well_typed ~strict:true
       ~externs:Net.Cluster.extern_signatures receiver_program)

(* ------------------------------------------------------------------ *)
(* Cluster migration                                                   *)
(* ------------------------------------------------------------------ *)

let migrate_then_finish ~target =
  Builder.(
    prog
      [
        func "after" [ "x", Types.Tint ] (fun args ->
            match args with
            | [ x ] -> add x (int 5) (fun r -> exit_ r)
            | _ -> assert false);
        func "main" [] (fun _ ->
            string target (fun dst ->
                migrate ~label:1 dst (fn "after") [ int 100 ]));
      ])

(* [statuses] order is part of the API contract: one row per process
   ever placed, in spawn order — i.e. ascending pid — stable across
   runs, scheduling and mid-run migrations (a migration's successor is
   a NEW entry appended at its own spawn position). *)
let test_statuses_spawn_order () =
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with node_count = 3 }
  in
  let pids =
    List.init 6 (fun i ->
        Net.Cluster.spawn cluster ~node_id:(i mod 3) (exit_program i))
  in
  let order () = List.map (fun (pid, _, _, _) -> pid) (Net.Cluster.statuses cluster) in
  check "before running: spawn order" true (order () = pids);
  let migrator_pid =
    Net.Cluster.spawn cluster ~node_id:0
      (migrate_then_finish ~target:"mcc://node1")
  in
  let _ = Net.Cluster.run cluster in
  let final = order () in
  check "after running: same prefix, successor appended" true
    (final = pids @ [ migrator_pid; migrator_pid + 1 ]);
  check "ascending pids" true (List.sort compare final = final)

let test_cluster_migrate () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let pid =
    Net.Cluster.spawn cluster ~rank:3 ~node_id:0
      (migrate_then_finish ~target:"mcc://node1")
  in
  let _ = Net.Cluster.run cluster in
  (* the source process terminated by migration *)
  check "source exited" true
    (status_of cluster pid = Vm.Process.Exited 0);
  (* its successor finished the computation on node1 under the same rank *)
  (match Net.Cluster.entry_of_rank cluster 3 with
  | Some e ->
    check "migrated process finished" true
      (e.Net.Cluster.proc.Vm.Process.status = Vm.Process.Exited 105);
    check_int "runs on node1" 1 e.Net.Cluster.node_id
  | None -> Alcotest.fail "rank lost across migration");
  check_int "counted as a migration" 1
    (counter cluster "cluster.migrations_ok");
  match migrate_dones cluster with
  | [ (ok, bytes, compile_s) ] ->
    check "migration recorded ok" true ok;
    check "bytes counted" true (bytes > 0);
    check "compile time charged (untrusted target)" true (compile_s > 0.0)
  | l -> Alcotest.failf "expected 1 migrate_done event, got %d" (List.length l)

let test_cluster_migrate_to_dead_node () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  Net.Cluster.fail_node cluster 1;
  let pid =
    Net.Cluster.spawn cluster ~node_id:0
      (migrate_then_finish ~target:"mcc://node1")
  in
  let _ = Net.Cluster.run cluster in
  (* failed migration is invisible: the process continued locally *)
  check "continued locally" true
    (status_of cluster pid = Vm.Process.Exited 105)

let test_cluster_checkpoint_and_resurrect () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 3 } in
  let p =
    Builder.(
      prog
        [
          func "after" [ "x", Types.Tint ] (fun args ->
              match args with
              | [ x ] ->
                (* spin so the process is still alive when we kill it *)
                callf "spin" [ int 200000; x ]
              | _ -> assert false);
          func "spin" [ "i", Types.Tint; "x", Types.Tint ] (fun args ->
              match args with
              | [ i; x ] ->
                gt i (int 0) (fun more ->
                    if_ more
                      (sub i (int 1) (fun i' -> callf "spin" [ i'; x ]))
                      (exit_ x))
              | _ -> assert false);
          func "main" [] (fun _ ->
              string "checkpoint://ck" (fun dst ->
                  migrate ~label:9 dst (fn "after") [ int 41 ]));
        ])
  in
  let pid = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 p in
  (* run a little: enough for the checkpoint, not for the spin *)
  let _ = Net.Cluster.run cluster ~max_rounds:5 in
  check "checkpoint file exists" true
    (Net.Storage.exists (Net.Cluster.storage cluster) "ck");
  check "process kept running after checkpoint" true
    (match status_of cluster pid with
    | Vm.Process.Running -> true
    | Vm.Process.Exited 41 -> true (* if it got far *)
    | _ -> false);
  (* kill the node, resurrect from the checkpoint elsewhere *)
  Net.Cluster.fail_node cluster 0;
  check "victim trapped" true
    (match status_of cluster pid with
    | Vm.Process.Trapped _ -> true
    | _ -> false);
  (match Net.Cluster.resurrect cluster ~rank:0 ~node_id:2 ~path:"ck" with
  | Error msg -> Alcotest.failf "resurrection failed: %s" msg
  | Ok new_pid ->
    let _ = Net.Cluster.run cluster in
    check "resurrected process completed" true
      (status_of cluster new_pid = Vm.Process.Exited 41));
  (* resurrection on a dead node is refused *)
  match Net.Cluster.resurrect cluster ~node_id:0 ~path:"ck" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resurrected on a dead node"

let test_cluster_suspend () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 1 } in
  let pid =
    Net.Cluster.spawn cluster ~node_id:0
      (migrate_then_finish ~target:"suspend://s1")
  in
  let _ = Net.Cluster.run cluster in
  check "suspend terminates the process" true
    (status_of cluster pid = Vm.Process.Exited 0);
  check "suspend image written" true
    (Net.Storage.exists (Net.Cluster.storage cluster) "s1");
  (* the suspended image is resumable *)
  match Net.Cluster.resurrect cluster ~node_id:0 ~path:"s1" with
  | Error msg -> Alcotest.failf "resume failed: %s" msg
  | Ok new_pid ->
    let _ = Net.Cluster.run cluster in
    check "suspended process resumed and finished" true
      (status_of cluster new_pid = Vm.Process.Exited 105)

(* ------------------------------------------------------------------ *)
(* Failure + MSG_ROLL                                                  *)
(* ------------------------------------------------------------------ *)

(* rank 1 polls rank 0 forever; exits 222 when it sees MSG_ROLL *)
let roll_watcher =
  Builder.(
    prog
      [
        func "poll" [ "buf", Types.Tptr Types.Tint ] (fun args ->
            match args with
            | [ buf ] ->
              ext Types.Tint "msg_try_recv_int" [ int 0; int 0; buf; int 1 ]
                (fun r ->
                  eq r (int (-2)) (fun rolled ->
                      if_ rolled (exit_ (int 222)) (callf "poll" [ buf ])))
            | _ -> assert false);
        func "main" [] (fun _ ->
            array Types.Tint ~size:(int 1) ~init:(int 0) (fun buf ->
                callf "poll" [ buf ]));
      ])

let spin_forever =
  Builder.(
    prog
      [
        func "spin" [] (fun _ -> callf "spin" []);
        func "main" [] (fun _ -> callf "spin" []);
      ])

(* rank [me] polls rank [src] forever; exits 222 on MSG_ROLL *)
let watcher_of src =
  Builder.(
    prog
      [
        func "poll" [ "buf", Types.Tptr Types.Tint ] (fun args ->
            match args with
            | [ buf ] ->
              ext Types.Tint "msg_try_recv_int"
                [ int src; int 0; buf; int 1 ]
                (fun r ->
                  eq r (int (-2)) (fun rolled ->
                      if_ rolled (exit_ (int 222)) (callf "poll" [ buf ])))
            | _ -> assert false);
        func "main" [] (fun _ ->
            array Types.Tint ~size:(int 1) ~init:(int 0) (fun buf ->
                callf "poll" [ buf ]));
      ])

(* Regression: fail_node must only wake survivors parked on the DEAD
   rank.  A process parked on an unrelated rank stays parked — waking it
   would violate the parked_on contract and spin it on a poll that still
   returns nothing. *)
let test_fail_node_wakes_only_related_parked () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 4 } in
  let victim = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 spin_forever in
  (* parked on rank 0: must wake and observe MSG_ROLL *)
  let related =
    Net.Cluster.spawn cluster ~rank:1 ~node_id:1 (watcher_of 0)
  in
  (* parked on rank 2 (a live spinner): must stay parked *)
  let unrelated =
    Net.Cluster.spawn cluster ~rank:3 ~node_id:3 (watcher_of 2)
  in
  let _ = Net.Cluster.spawn cluster ~rank:2 ~node_id:2 spin_forever in
  (* enough rounds for both watchers to poll once and park *)
  let _ = Net.Cluster.run cluster ~max_rounds:10 in
  let entry pid =
    match Net.Cluster.entry_of_pid cluster pid with
    | Some e -> e
    | None -> Alcotest.failf "no pid %d" pid
  in
  check "unrelated watcher parked before the failure" true
    ((entry unrelated).Net.Cluster.parked_on <> None);
  Net.Cluster.fail_node cluster 0;
  check "victim trapped" true
    (match status_of cluster victim with
    | Vm.Process.Trapped _ -> true
    | _ -> false);
  (* the related watcher was woken by the roll notice ... *)
  check "related watcher woken" true
    ((entry related).Net.Cluster.parked_on = None);
  (* ... the unrelated one was not *)
  check "unrelated watcher still parked on rank 2" true
    ((entry unrelated).Net.Cluster.parked_on = Some (Net.Mpi.Rank 2, 0));
  let _ = Net.Cluster.run cluster ~max_rounds:50 in
  check "related watcher observed MSG_ROLL" true
    (status_of cluster related = Vm.Process.Exited 222);
  (* the unrelated watcher's source is alive: still polling, no roll *)
  check "unrelated watcher never saw a roll" true
    (match status_of cluster unrelated with
    | Vm.Process.Running -> true
    | _ -> false)

(* Regression: a migration towards an already-dead node must fail
   cleanly — the source continues locally (migration_failed semantics)
   and exactly one copy of the process ever exists. *)
let test_migration_to_dead_target_single_copy () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  Net.Cluster.fail_node cluster 1;
  let pid =
    Net.Cluster.spawn cluster ~node_id:0
      (migrate_then_finish ~target:"mcc://node1")
  in
  let _ = Net.Cluster.run cluster in
  check "source observed migration_failed and continued locally" true
    (status_of cluster pid = Vm.Process.Exited 105);
  (* no successor entry was ever created: one process, not two *)
  check_int "exactly one process entry" 1
    (List.length (Net.Cluster.statuses cluster));
  (* the trace shows the attempt and its failure *)
  let events = Obs.Trace.events (Net.Cluster.trace cluster) in
  check "trace has the failed migrate_done" true
    (List.exists
       (fun (e : Obs.Trace.event) ->
         match e.Obs.Trace.kind with
         | Obs.Trace.Migrate_done { ok = false; _ } -> true
         | _ -> false)
       events)

(* After a SUCCESSFUL migration the source entry is terminated: the
   packed process must never run in two places. *)
let test_migration_leaves_single_live_copy () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let pid =
    Net.Cluster.spawn cluster ~rank:5 ~node_id:0
      (migrate_then_finish ~target:"mcc://node1")
  in
  let _ = Net.Cluster.run cluster in
  check "source terminated" true
    (status_of cluster pid = Vm.Process.Exited 0);
  let live =
    List.filter
      (fun (_, _, _, status) ->
        match status with
        | Vm.Process.Running | Vm.Process.Migrating _ -> true
        | Vm.Process.Exited _ | Vm.Process.Trapped _ -> false)
      (Net.Cluster.statuses cluster)
  in
  check_int "no live copies left" 0 (List.length live);
  check_int "two entries total (source + successor)" 2
    (List.length (Net.Cluster.statuses cluster))

let test_msg_roll_on_failure () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2 } in
  let victim = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 spin_forever in
  let watcher = Net.Cluster.spawn cluster ~rank:1 ~node_id:1 roll_watcher in
  let _ = Net.Cluster.run cluster ~max_rounds:10 in
  Net.Cluster.fail_node cluster 0;
  let _ = Net.Cluster.run cluster ~max_rounds:50 in
  check "victim trapped" true
    (match status_of cluster victim with
    | Vm.Process.Trapped _ -> true
    | _ -> false);
  check "watcher observed MSG_ROLL" true
    (status_of cluster watcher = Vm.Process.Exited 222)

(* ------------------------------------------------------------------ *)
(* Distributed speculation join                                        *)
(* ------------------------------------------------------------------ *)

(* Sender (rank 0): enters a speculation, writes its cell to 1, SENDS a
   message carrying the speculation, spins a while, then rolls back; on
   retry (c<>0) it exits its cell value (must be 0 again).
   Receiver (rank 1): enters a speculation, receives the message (joining
   the sender's speculation), writes its own cell to the received value,
   then polls a second message that never comes.  The sender's rollback
   must force the receiver back to ITS speculation entry — on re-entry
   with c<>0 the receiver exits 300 + cell (cell must be restored to 0).
*)
let spec_sender =
  Builder.(
    prog
      [
        func "wait_then_roll" [ "i", Types.Tint ] (fun args ->
            match args with
            | [ i ] ->
              gt i (int 0) (fun more ->
                  if_ more
                    (sub i (int 1) (fun i' -> callf "wait_then_roll" [ i' ]))
                    (rollback (int 1) (int 1)))
            | _ -> assert false);
        func "body"
          [ "c", Types.Tint; "cell", Types.Tptr Types.Tint;
            "buf", Types.Tptr Types.Tint ]
          (fun args ->
            match args with
            | [ c; cell; buf ] ->
              eq c (int 0) (fun fresh ->
                  if_ fresh
                    (store cell (int 0) (int 1)
                       (store buf (int 0) (int 55)
                          (ext Types.Tint "msg_send_int"
                             [ int 1; int 0; buf; int 1 ] (fun _ ->
                               callf "wait_then_roll" [ int 3000 ]))))
                    (load Types.Tint cell (int 0) (fun v ->
                         add (int 100) v (fun r -> exit_ r))))
            | _ -> assert false);
        func "main" [] (fun _ ->
            array Types.Tint ~size:(int 1) ~init:(int 0) (fun cell ->
                array Types.Tint ~size:(int 1) ~init:(int 0) (fun buf ->
                    speculate (fn "body") [ cell; buf ])));
      ])

let spec_receiver =
  Builder.(
    prog
      [
        func "poll1"
          [ "cell", Types.Tptr Types.Tint; "buf", Types.Tptr Types.Tint ]
          (fun args ->
            match args with
            | [ cell; buf ] ->
              ext Types.Tint "msg_try_recv_int" [ int 0; int 0; buf; int 1 ]
                (fun r ->
                  ge r (int 0) (fun got ->
                      if_ got
                        (load Types.Tint buf (int 0) (fun v ->
                             store cell (int 0) v
                               (callf "poll2" [ cell; buf ])))
                        (callf "poll1" [ cell; buf ])))
            | _ -> assert false);
        func "poll2"
          [ "cell", Types.Tptr Types.Tint; "buf", Types.Tptr Types.Tint ]
          (fun args ->
            match args with
            | [ cell; buf ] ->
              (* waits for a second message that never arrives *)
              ext Types.Tint "msg_try_recv_int" [ int 0; int 1; buf; int 1 ]
                (fun _ -> callf "poll2" [ cell; buf ])
            | _ -> assert false);
        func "body"
          [ "c", Types.Tint; "cell", Types.Tptr Types.Tint;
            "buf", Types.Tptr Types.Tint ]
          (fun args ->
            match args with
            | [ c; cell; buf ] ->
              eq c (int 0) (fun fresh ->
                  if_ fresh
                    (callf "poll1" [ cell; buf ])
                    (load Types.Tint cell (int 0) (fun v ->
                         add (int 300) v (fun r -> exit_ r))))
            | _ -> assert false);
        func "main" [] (fun _ ->
            array Types.Tint ~size:(int 1) ~init:(int 0) (fun cell ->
                array Types.Tint ~size:(int 1) ~init:(int 0) (fun buf ->
                    speculate (fn "body") [ cell; buf ])));
      ])

let test_speculation_join_cascade () =
  (* near-zero latency so the receiver consumes the speculative message
     well before the sender's rollback *)
  let net = Net.Simnet.create ~latency_us:0.01 ~connect_ms:0.001 () in
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 2; net = Some net } in
  let sender = Net.Cluster.spawn cluster ~rank:0 ~node_id:0 spec_sender in
  let receiver = Net.Cluster.spawn cluster ~rank:1 ~node_id:1 spec_receiver in
  let _ = Net.Cluster.run cluster ~max_rounds:5000 in
  (* sender retried and saw its own write undone *)
  check "sender rolled back and retried" true
    (status_of cluster sender = Vm.Process.Exited 100);
  (* receiver was cascaded: its own speculative write was undone and it
     re-entered its speculation with a rollback code *)
  check "receiver rolled back with the sender" true
    (status_of cluster receiver = Vm.Process.Exited 300)

(* ------------------------------------------------------------------ *)
(* Observability: the cluster trace                                    *)
(* ------------------------------------------------------------------ *)

(* Drive migration, failure, cascade and resurrection, then check the
   exported timeline is monotone and the JSONL parses line by line. *)
let test_cluster_trace () =
  let cluster = Net.Cluster.create_cfg { Net.Cluster.Config.default with node_count = 3 } in
  let _ =
    Net.Cluster.spawn cluster ~rank:3 ~node_id:0
      (migrate_then_finish ~target:"mcc://node1")
  in
  let victim = Net.Cluster.spawn cluster ~rank:0 ~node_id:2 spin_forever in
  let watcher = Net.Cluster.spawn cluster ~rank:1 ~node_id:1 (watcher_of 0) in
  let _ = Net.Cluster.run cluster ~max_rounds:10 in
  Net.Cluster.fail_node cluster 2;
  let _ = Net.Cluster.run cluster ~max_rounds:100 in
  ignore victim;
  check "watcher rolled" true
    (status_of cluster watcher = Vm.Process.Exited 222);
  let tr = Net.Cluster.trace cluster in
  let timeline = Obs.Trace.timeline tr in
  check "trace non-empty" true (timeline <> []);
  (* timestamps are simulated time, cluster-wide monotone after sorting *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Obs.Trace.time <= b.Obs.Trace.time && monotone rest
    | _ -> true
  in
  check "timeline monotone" true (monotone timeline);
  check "no event before time zero" true
    (List.for_all (fun e -> e.Obs.Trace.time >= 0.0) timeline);
  let has pred = List.exists (fun e -> pred e.Obs.Trace.kind) timeline in
  check "migration start traced" true
    (has (function Obs.Trace.Migrate_start _ -> true | _ -> false));
  check "migration done traced" true
    (has (function Obs.Trace.Migrate_done { ok = true; _ } -> true
         | _ -> false));
  check "node failure traced" true
    (has (function Obs.Trace.Node_fail -> true | _ -> false));
  check "roll delivery traced" true
    (has (function Obs.Trace.Msg_roll _ -> true | _ -> false));
  (* every JSONL line is one object with a time and an event label *)
  let jsonl = Obs.Trace.to_jsonl tr in
  let lines = String.split_on_char '\n' jsonl in
  let lines = List.filter (fun l -> l <> "") lines in
  check_int "one line per event" (List.length timeline) (List.length lines);
  List.iter
    (fun line ->
      check "line is an object" true
        (String.length line > 2
        && line.[0] = '{'
        && line.[String.length line - 1] = '}');
      let contains sub =
        let n = String.length sub in
        let rec scan i =
          i + n <= String.length line
          && (String.sub line i n = sub || scan (i + 1))
        in
        scan 0
      in
      check "line carries a timestamp" true (contains "\"t\":");
      check "line carries an event label" true (contains "\"ev\":"))
    lines;
  (* the metrics registry aggregates what the trace itemises *)
  let m = Net.Cluster.metrics cluster in
  check "one migration counted" true
    (Obs.Metrics.counter_value m "cluster.migrations_ok" = 1);
  check "one node failure counted" true
    (Obs.Metrics.counter_value m "cluster.node_failures" = 1);
  check "rounds counted" true (Obs.Metrics.counter_value m "sched.rounds" > 0)

let suites =
  [
    ( "net.simnet",
      [
        Alcotest.test_case "transfer cost model" `Quick test_simnet_costs;
      ] );
    ("net.storage", [ Alcotest.test_case "shared store" `Quick test_storage ]);
    ( "net.mpi",
      [
        Alcotest.test_case "matching by src/tag" `Quick test_mailbox_matching;
        Alcotest.test_case "delivery times" `Quick test_mailbox_delivery_time;
        Alcotest.test_case "roll notices" `Quick test_mailbox_roll_notice;
        Alcotest.test_case "speculative discard" `Quick
          test_mailbox_discard_speculative;
        Alcotest.test_case "purges: no match is a no-op, every copy matched"
          `Quick test_mailbox_purges;
        Alcotest.test_case "10k burst stays FIFO" `Quick
          test_mailbox_fifo_burst;
        Alcotest.test_case "mailbox matches a reference list (random walk)"
          `Quick test_mailbox_random_walk;
        Alcotest.test_case "an emptied mailbox holds no past traffic" `Quick
          test_mailbox_no_leak;
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| 0x6d656d6f; env_seed |])
          prop_wake_memo;
      ] );
    ( "net.cluster",
      [
        Alcotest.test_case "runs processes to completion" `Quick
          test_cluster_runs_to_exit;
        Alcotest.test_case "statuses is stable spawn order" `Quick
          test_statuses_spawn_order;
        Alcotest.test_case "message passing" `Quick
          test_cluster_message_passing;
        Alcotest.test_case "send to unknown rank" `Quick
          test_cluster_send_to_nowhere;
        Alcotest.test_case "bad lengths trap the process" `Quick
          test_extern_bad_lengths;
        Alcotest.test_case "bad arguments trap alike on every tier" `Quick
          test_extern_bad_arguments;
        Alcotest.test_case "every extern accepts its own signature" `Quick
          test_extern_signatures_fit_implementations;
        Alcotest.test_case "unknown extern traps with its name" `Quick
          test_unknown_extern_traps;
        Alcotest.test_case "programs typecheck against externs" `Quick
          test_cluster_typechecks_against_externs;
        Alcotest.test_case "migration between nodes" `Quick
          test_cluster_migrate;
        Alcotest.test_case "migration to dead node continues locally" `Quick
          test_cluster_migrate_to_dead_node;
        Alcotest.test_case "checkpoint and resurrection" `Quick
          test_cluster_checkpoint_and_resurrect;
        Alcotest.test_case "suspend protocol" `Quick test_cluster_suspend;
        Alcotest.test_case "MSG_ROLL on node failure" `Quick
          test_msg_roll_on_failure;
        Alcotest.test_case "failure wakes only related parked processes"
          `Quick test_fail_node_wakes_only_related_parked;
        Alcotest.test_case "migration to dead target keeps a single copy"
          `Quick test_migration_to_dead_target_single_copy;
        Alcotest.test_case "successful migration leaves one live copy"
          `Quick test_migration_leaves_single_live_copy;
        Alcotest.test_case "speculation join cascade" `Quick
          test_speculation_join_cascade;
        Alcotest.test_case "trace timeline and JSONL export" `Quick
          test_cluster_trace;
      ] );
  ]
