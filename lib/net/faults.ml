(* Deterministic fault injection (the robustness direction of the
   ROADMAP): a seeded, scriptable plan of message loss, duplication,
   delay jitter, link partitions, transient stalls and crash-at-time
   events, applied to the simulated cluster's delivery and scheduling
   paths.

   Two design rules keep faulted runs both terminating and reproducible:

   - Loss of a SMALL message is modelled as link-level retransmission:
     the message arrives late (timeout + doubling backoff per lost
     transmission), never never.  Cluster programs poll msg_try_recv in
     busy loops with per-step tags; a silently dropped border row would
     wedge the whole grid, which is a transport bug, not the failure
     mode the paper studies.  Migration hops are different: the caller
     (the migration protocol) owns the retry policy, so [on_hop] reports
     the loss and lets it decide.

   - Every probabilistic decision draws from one RNG seeded by
     (plan seed, salt).  The draw order is fixed by the deterministic
     scheduler, so the same plan + seed reproduces the same fault
     schedule — and the same trace — byte for byte. *)

type partition = { pa : int; pb : int; p_from : float; p_until : float }
type stall = { s_node : int; s_at : float; s_for : float }
type crash = { c_node : int; c_at : float }

type plan = {
  f_seed : int;
  f_loss : float;
  f_dup : float;
  f_jitter_s : float;
  f_retransmit_s : float;
  f_partitions : partition list;
  f_stalls : stall list;
  f_crashes : crash list;
  f_crash_in_commit : float;
  f_store_lost : float;
  f_store_torn : float;
  f_store_flip : float;
}

let none =
  {
    f_seed = 1;
    f_loss = 0.0;
    f_dup = 0.0;
    f_jitter_s = 0.0;
    f_retransmit_s = 0.002;
    f_partitions = [];
    f_stalls = [];
    f_crashes = [];
    f_crash_in_commit = 0.0;
    f_store_lost = 0.0;
    f_store_torn = 0.0;
    f_store_flip = 0.0;
  }

let is_none p =
  p.f_loss = 0.0 && p.f_dup = 0.0 && p.f_jitter_s = 0.0
  && p.f_partitions = [] && p.f_stalls = [] && p.f_crashes = []
  && p.f_crash_in_commit = 0.0 && p.f_store_lost = 0.0
  && p.f_store_torn = 0.0 && p.f_store_flip = 0.0

(* The range checks, shared by [validate] and [parse_plan] (which adds
   the line number).  Each is written so that it holds, rather than
   fails, for the accepted values: NaN compares false with everything,
   so it fails each of them instead of slipping past a [v < 0.0].  A
   duration must also be finite: an infinite jitter, retransmission
   timeout or stall pushes the simulated clock to infinity. *)
let prob name v =
  if v >= 0.0 && v < 1.0 then Ok v
  else Error (Printf.sprintf "%s must be in [0,1), got %g" name v)

(* storage fates fire at most once per replica write, so unlike loss
   (which feeds a retransmission loop) probability 1.0 is safe — and
   useful for deterministic tests *)
let store_prob name v =
  if v >= 0.0 && v <= 1.0 then Ok v
  else Error (Printf.sprintf "%s must be in [0,1], got %g" name v)

let nonneg name v =
  if v >= 0.0 && Float.is_finite v then Ok v
  else Error (Printf.sprintf "%s must be finite and >= 0, got %g" name v)

let positive name v =
  if v > 0.0 && Float.is_finite v then Ok v
  else Error (Printf.sprintf "%s must be finite and > 0, got %g" name v)

let time name v =
  if Float.is_nan v then Error (Printf.sprintf "%s is not a number" name)
  else Ok ()

let node n =
  if n >= 0 then Ok n else Error (Printf.sprintf "node must be >= 0, got %d" n)

let ordered w =
  if w.p_from <= w.p_until then Ok ()
  else
    Error (Printf.sprintf "partition %d-%d heals before it starts" w.pa w.pb)

let validate p =
  let ( let* ) = Result.bind in
  let* _ = prob "loss" p.f_loss in
  let* _ = prob "dup" p.f_dup in
  (* 1.0 would abort every commit round forever (the protocol retries),
     the same livelock argument that bounds loss below 1 *)
  let* _ = prob "crash_in_commit" p.f_crash_in_commit in
  let* _ = nonneg "jitter" p.f_jitter_s in
  let* _ = store_prob "store_lost" p.f_store_lost in
  let* _ = store_prob "store_torn" p.f_store_torn in
  let* _ = store_prob "store_flip" p.f_store_flip in
  let* _ = positive "retransmit" p.f_retransmit_s in
  let each xs check =
    List.fold_left
      (fun acc x -> let* () = acc in Result.map ignore (check x))
      (Ok ()) xs
  in
  let* () =
    each p.f_partitions (fun w ->
        let* _ = node w.pa in
        let* _ = node w.pb in
        let* () = time "partition start" w.p_from in
        let* () = time "partition end" w.p_until in
        ordered w)
  in
  let* () =
    each p.f_stalls (fun s ->
        let* _ = node s.s_node in
        let* () = time "stall time" s.s_at in
        nonneg "stall duration" s.s_for)
  in
  let* () =
    each p.f_crashes (fun c ->
        let* _ = node c.c_node in
        time "crash time" c.c_at)
  in
  Ok p

(* ------------------------------------------------------------------ *)
(* Plan files                                                          *)
(* ------------------------------------------------------------------ *)

let plan_to_string p =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "seed %d\n" p.f_seed;
  if p.f_loss > 0.0 then add "loss %g\n" p.f_loss;
  if p.f_dup > 0.0 then add "dup %g\n" p.f_dup;
  if p.f_jitter_s > 0.0 then add "jitter %g\n" p.f_jitter_s;
  if p.f_retransmit_s <> none.f_retransmit_s then
    add "retransmit %g\n" p.f_retransmit_s;
  if p.f_crash_in_commit > 0.0 then
    add "crash_in_commit %g\n" p.f_crash_in_commit;
  if p.f_store_lost > 0.0 then add "store_lost %g\n" p.f_store_lost;
  if p.f_store_torn > 0.0 then add "store_torn %g\n" p.f_store_torn;
  if p.f_store_flip > 0.0 then add "store_flip %g\n" p.f_store_flip;
  List.iter
    (fun w ->
      if w.p_until = infinity then
        add "partition %d %d from %g until forever\n" w.pa w.pb w.p_from
      else
        add "partition %d %d from %g until %g\n" w.pa w.pb w.p_from
          w.p_until)
    (List.rev p.f_partitions);
  List.iter
    (fun s -> add "stall %d at %g for %g\n" s.s_node s.s_at s.s_for)
    (List.rev p.f_stalls);
  List.iter
    (fun c -> add "crash %d at %g\n" c.c_node c.c_at)
    (List.rev p.f_crashes);
  Buffer.contents buf

let parse_plan ?seed text =
  let ( let* ) = Result.bind in
  let err lineno fmt =
    Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" lineno s))
      fmt
  in
  (* "nan" parses as a float but is no time, rate or duration *)
  let float_of lineno what s =
    match float_of_string_opt s with
    | Some v when Float.is_nan v -> err lineno "bad %s %S" what s
    | Some v -> Ok v
    | None ->
      if String.equal s "forever" || String.equal s "inf" then Ok infinity
      else err lineno "bad %s %S" what s
  in
  let int_of lineno what s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> err lineno "bad %s %S" what s
  in
  (* Range checks happen HERE, per directive, so a bad value is reported
     with its line number; [validate] still guards plans built in code. *)
  let at lineno r = Result.map_error (Printf.sprintf "line %d: %s" lineno) r in
  let num lineno check name s =
    let* v = float_of lineno name s in
    at lineno (check name v)
  in
  let node_of lineno s =
    let* n = int_of lineno "node" s in
    at lineno (node n)
  in
  let lines = String.split_on_char '\n' text in
  let result =
    List.fold_left
      (fun acc line ->
        let* lineno, p = acc in
        let lineno = lineno + 1 in
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let words =
          String.split_on_char ' ' (String.trim line)
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun w -> w <> "")
        in
        let* p =
          match words with
          | [] -> Ok p
          | [ "seed"; n ] ->
            let* n = int_of lineno "seed" n in
            Ok { p with f_seed = n }
          | [ "loss"; v ] ->
            let* v = num lineno prob "loss" v in
            Ok { p with f_loss = v }
          | [ "dup"; v ] ->
            let* v = num lineno prob "dup" v in
            Ok { p with f_dup = v }
          | [ "jitter"; v ] ->
            let* v = num lineno nonneg "jitter" v in
            Ok { p with f_jitter_s = v }
          | [ "retransmit"; v ] ->
            let* v = num lineno positive "retransmit" v in
            Ok { p with f_retransmit_s = v }
          | [ "crash_in_commit"; v ] ->
            let* v = num lineno prob "crash_in_commit" v in
            Ok { p with f_crash_in_commit = v }
          | [ "store_lost"; v ] ->
            let* v = num lineno store_prob "store_lost" v in
            Ok { p with f_store_lost = v }
          | [ "store_torn"; v ] ->
            let* v = num lineno store_prob "store_torn" v in
            Ok { p with f_store_torn = v }
          | [ "store_flip"; v ] ->
            let* v = num lineno store_prob "store_flip" v in
            Ok { p with f_store_flip = v }
          | [ "partition"; a; b; "from"; f; "until"; u ] ->
            let* a = node_of lineno a in
            let* b = node_of lineno b in
            let* f = float_of lineno "time" f in
            let* u = float_of lineno "time" u in
            let w = { pa = a; pb = b; p_from = f; p_until = u } in
            let* () = at lineno (ordered w) in
            Ok { p with f_partitions = w :: p.f_partitions }
          | [ "stall"; n; "at"; a; "for"; d ] ->
            let* n = node_of lineno n in
            let* a = float_of lineno "time" a in
            let* d = float_of lineno "duration" d in
            let* d = at lineno (nonneg "stall duration" d) in
            Ok
              {
                p with
                f_stalls =
                  { s_node = n; s_at = a; s_for = d } :: p.f_stalls;
              }
          | [ "crash"; n; "at"; a ] ->
            let* n = node_of lineno n in
            let* a = float_of lineno "time" a in
            Ok
              {
                p with
                f_crashes = { c_node = n; c_at = a } :: p.f_crashes;
              }
          | directive :: _ -> err lineno "unknown directive %S" directive
        in
        Ok (lineno, p))
      (Ok (0, none))
      lines
  in
  let* _, p = result in
  let p = match seed with Some s -> { p with f_seed = s } | None -> p in
  validate p

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

type t = {
  t_plan : plan;
  t_rng : Random.State.t;
  (* scheduled events not yet fired (each fires exactly once) *)
  mutable t_stalls : stall list;
  mutable t_crashes : crash list;
  c_retransmits : Obs.Metrics.counter;
  c_msg_dup : Obs.Metrics.counter;
  c_msg_dropped : Obs.Metrics.counter;
  c_hop_lost : Obs.Metrics.counter;
  c_hop_dup : Obs.Metrics.counter;
  c_stalls : Obs.Metrics.counter;
  c_crashes : Obs.Metrics.counter;
  c_crash_in_commit : Obs.Metrics.counter;
  c_hb_dropped : Obs.Metrics.counter;
  c_store_lost : Obs.Metrics.counter;
  c_store_torn : Obs.Metrics.counter;
  c_store_flip : Obs.Metrics.counter;
}

let create ?(salt = 0) ?metrics plan =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  (* register outside the record literal: field expressions evaluate in
     unspecified order, and the registry renders in registration order *)
  let c_retransmits = Obs.Metrics.counter metrics "faults.retransmits" in
  let c_msg_dup = Obs.Metrics.counter metrics "faults.msg_dup" in
  let c_msg_dropped = Obs.Metrics.counter metrics "faults.msg_dropped" in
  let c_hop_lost = Obs.Metrics.counter metrics "faults.hop_lost" in
  let c_hop_dup = Obs.Metrics.counter metrics "faults.hop_dup" in
  let c_stalls = Obs.Metrics.counter metrics "faults.stalls" in
  let c_crashes = Obs.Metrics.counter metrics "faults.crashes" in
  let c_crash_in_commit =
    Obs.Metrics.counter metrics "faults.crash_in_commit"
  in
  let c_hb_dropped = Obs.Metrics.counter metrics "faults.hb_dropped" in
  let c_store_lost = Obs.Metrics.counter metrics "faults.store_lost" in
  let c_store_torn = Obs.Metrics.counter metrics "faults.store_torn" in
  let c_store_flip = Obs.Metrics.counter metrics "faults.store_flip" in
  {
    t_plan = plan;
    t_rng = Random.State.make [| plan.f_seed; salt; 0x6d6f6a61 (* "moja" *) |];
    t_stalls = plan.f_stalls;
    t_crashes = plan.f_crashes;
    c_retransmits;
    c_msg_dup;
    c_msg_dropped;
    c_hop_lost;
    c_hop_dup;
    c_stalls;
    c_crashes;
    c_crash_in_commit;
    c_hb_dropped;
    c_store_lost;
    c_store_torn;
    c_store_flip;
  }

let plan t = t.t_plan
let rng t = t.t_rng

let covers w a b =
  (w.pa = a && w.pb = b) || (w.pa = b && w.pb = a)

let partitioned t ~now ~a ~b =
  List.exists
    (fun w -> covers w a b && w.p_from <= now && now < w.p_until)
    t.t_plan.f_partitions

let heal_time t ~now ~a ~b =
  let heal =
    List.fold_left
      (fun acc w ->
        if covers w a b && w.p_from <= now && now < w.p_until then
          max acc w.p_until
        else acc)
      neg_infinity t.t_plan.f_partitions
  in
  if heal = neg_infinity || heal = infinity then None else Some heal

type delivery = {
  d_dropped : bool;
  d_delay_s : float;
  d_duplicate : bool;
  d_retransmits : int;
}

let no_fault =
  { d_dropped = false; d_delay_s = 0.0; d_duplicate = false;
    d_retransmits = 0 }

(* Consecutive lost transmissions of one message cost timeout, 2x
   timeout, 4x, ... — a sender-side exponential backoff.  The cap is a
   safety net: at 10 % loss the chance of hitting it is 10^-32. *)
let max_retransmits = 32

let on_message t ~now ~src ~dst =
  let p = t.t_plan in
  if src = dst || src < 0 || dst < 0 || is_none p then no_fault
  else begin
    (* a partition at send time delays delivery until the link heals *)
    let part_delay, part_dropped =
      if partitioned t ~now ~a:src ~b:dst then
        match heal_time t ~now ~a:src ~b:dst with
        | Some h -> h -. now, false
        | None -> 0.0, true (* never heals: undeliverable *)
      else 0.0, false
    in
    if part_dropped then begin
      Obs.Metrics.incr t.c_msg_dropped;
      { no_fault with d_dropped = true }
    end
    else begin
      let retrans = ref 0 in
      let delay = ref part_delay in
      if p.f_loss > 0.0 then begin
        let timeout = ref p.f_retransmit_s in
        while
          !retrans < max_retransmits
          && Random.State.float t.t_rng 1.0 < p.f_loss
        do
          delay := !delay +. !timeout;
          timeout := !timeout *. 2.0;
          incr retrans
        done;
        Obs.Metrics.incr ~by:!retrans t.c_retransmits
      end;
      if p.f_jitter_s > 0.0 then
        delay := !delay +. Random.State.float t.t_rng p.f_jitter_s;
      let duplicate =
        p.f_dup > 0.0 && Random.State.float t.t_rng 1.0 < p.f_dup
      in
      if duplicate then Obs.Metrics.incr t.c_msg_dup;
      if !retrans >= max_retransmits then begin
        Obs.Metrics.incr t.c_msg_dropped;
        { no_fault with d_dropped = true }
      end
      else
        {
          d_dropped = false;
          d_delay_s = !delay;
          d_duplicate = duplicate;
          d_retransmits = !retrans;
        }
    end
  end

let on_hop t ~now ~src ~dst =
  let p = t.t_plan in
  if src = dst || is_none p then `Deliver
  else if partitioned t ~now ~a:src ~b:dst then begin
    Obs.Metrics.incr t.c_hop_lost;
    `Partitioned
  end
  else if p.f_loss > 0.0 && Random.State.float t.t_rng 1.0 < p.f_loss
  then begin
    Obs.Metrics.incr t.c_hop_lost;
    `Lost
  end
  else `Deliver

(* Heartbeats are fire-and-forget: unlike application messages they are
   NOT retransmitted on loss — a dropped beat is silence, which is
   exactly the signal the failure detector interprets.  A partition at
   emission time drops the beat outright (partitions heal for queued
   application traffic, but a heartbeat that arrives after the suspicion
   window is as good as lost). *)
let on_heartbeat t ~now ~src ~dst =
  let p = t.t_plan in
  if src = dst || is_none p then `Deliver 0.0
  else if partitioned t ~now ~a:src ~b:dst then begin
    Obs.Metrics.incr t.c_hb_dropped;
    `Drop
  end
  else if p.f_loss > 0.0 && Random.State.float t.t_rng 1.0 < p.f_loss
  then begin
    Obs.Metrics.incr t.c_hb_dropped;
    `Drop
  end
  else if p.f_jitter_s > 0.0 then
    `Deliver (Random.State.float t.t_rng p.f_jitter_s)
  else `Deliver 0.0

(* Fate of one replica write in the checkpoint store.  [`Torn frac]
   persists only a prefix of the data (a torn write: the node died or
   the disk filled mid-write); [`Flip frac] persists the data with one
   byte corrupted at the given relative position.  Both leave the stored
   digest describing the ORIGINAL bytes, so a digest-verified read
   detects the damage.  At most one draw per configured class, so plans
   without storage faults consume no randomness here. *)
let on_store_write t =
  let p = t.t_plan in
  if p.f_store_lost = 0.0 && p.f_store_torn = 0.0 && p.f_store_flip = 0.0
  then `Ok
  else begin
    let draw pr = pr > 0.0 && Random.State.float t.t_rng 1.0 < pr in
    if draw p.f_store_lost then begin
      Obs.Metrics.incr t.c_store_lost;
      `Lost
    end
    else if draw p.f_store_torn then begin
      Obs.Metrics.incr t.c_store_torn;
      `Torn (0.1 +. Random.State.float t.t_rng 0.8)
    end
    else if draw p.f_store_flip then begin
      Obs.Metrics.incr t.c_store_flip;
      `Flip (Random.State.float t.t_rng 1.0)
    end
    else `Ok
  end

let dup_hop t =
  let p = t.t_plan in
  if p.f_dup > 0.0 && Random.State.float t.t_rng 1.0 < p.f_dup then begin
    Obs.Metrics.incr t.c_hop_dup;
    true
  end
  else false

(* Should one participant of the commit round in flight crash between
   its prepare-ack and the commit receipt?  One draw per protocol round
   (after all acks are in), like [dup_hop]'s one draw per delivered
   image, so fault-free plans consume no randomness. *)
let crash_in_commit t =
  let p = t.t_plan in
  if
    p.f_crash_in_commit > 0.0
    && Random.State.float t.t_rng 1.0 < p.f_crash_in_commit
  then begin
    Obs.Metrics.incr t.c_crash_in_commit;
    true
  end
  else false

let node_faults_pending t = t.t_stalls <> [] || t.t_crashes <> []

let take_stall t ~node ~now =
  let due, rest =
    List.partition
      (fun s -> s.s_node = node && s.s_at <= now)
      t.t_stalls
  in
  match due with
  | [] -> None
  | _ ->
    t.t_stalls <- rest;
    Obs.Metrics.incr ~by:(List.length due) t.c_stalls;
    Some (List.fold_left (fun acc s -> acc +. s.s_for) 0.0 due)

let take_crash t ~node ~now =
  let due, rest =
    List.partition
      (fun c -> c.c_node = node && c.c_at <= now)
      t.t_crashes
  in
  match due with
  | [] -> false
  | _ ->
    t.t_crashes <- rest;
    Obs.Metrics.incr ~by:(List.length due) t.c_crashes;
    true
