(* Heartbeat failure detection.

   Every alive node's daemon emits a small heartbeat to every other node
   once per [hb_interval_s] of its LOCAL clock.  The cluster routes each
   beat through the fault layer (partitions and loss drop beats — they
   are never retransmitted, silence being exactly the signal) and
   charges nominal network time plus jitter before it becomes visible to
   the observer.  An observer only "sees" an arrival once its own local
   clock has passed the arrival time, so a lagging observer cannot read
   the future.

   A node is SUSPECTED when every alive observer has heard nothing from
   it for longer than [suspect_timeout_s] of the observer's local clock.
   Requiring unanimous silence means a partial partition (some observers
   still reachable) does not trigger suspicion, while a crash, a full
   partition, or a long stall does.  The detector has no access to
   ground truth: a stalled or partitioned node is indistinguishable from
   a dead one, so false suspicion is possible by design — the epoch
   fencing layer (see Cluster) makes acting on a false suspicion safe.
   Local clocks are only loosely synchronized, so heavy skew between a
   busy observer and an idle subject is a further honest source of false
   suspicion.

   Ground truth ([alive]) is used for exactly two observability
   purposes: selecting which observers still report (a dead daemon's
   reports simply stop), and classifying a fresh suspicion as true or
   false for the [detector.false_suspicions] counter.  Detection
   decisions themselves never consult it. *)

type config = {
  hb_interval_s : float;  (* beat period, per-node local clock *)
  suspect_timeout_s : float;  (* unanimous-silence threshold *)
}

let default = { hb_interval_s = 0.005; suspect_timeout_s = 0.025 }

(* on-the-wire beat size, for transfer accounting *)
let hb_bytes = 8

type t = {
  cfg : config;
  nodes : int;
  hb_next : float array; (* next emission time, per sender *)
  last_heard : float array array; (* last_heard.(observer).(subject) *)
  pending : float list ref array array;
      (* arrivals not yet promoted: pending.(observer).(subject) holds
         arrival times still in the observer's local future *)
  flagged : bool array; (* current suspicion state, per subject *)
  c_beats : Obs.Metrics.counter;
  c_suspicions : Obs.Metrics.counter;
  c_false : Obs.Metrics.counter;
}

(* A non-positive interval would make [due] loop forever (the next
   emission never passes the clock), and a NaN one or a NaN timeout
   would silently disable detection: reject them up front. *)
let create ?metrics ~nodes cfg =
  let check field v =
    if not (v > 0.0 && Float.is_finite v) then
      invalid_arg
        (Printf.sprintf
           "Detector.create: %s must be finite and positive, got %g" field v)
  in
  check "hb_interval_s" cfg.hb_interval_s;
  check "suspect_timeout_s" cfg.suspect_timeout_s;
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let c_beats = Obs.Metrics.counter metrics "detector.heartbeats" in
  let c_suspicions = Obs.Metrics.counter metrics "detector.suspicions" in
  let c_false = Obs.Metrics.counter metrics "detector.false_suspicions" in
  {
    cfg;
    nodes;
    hb_next = Array.make nodes cfg.hb_interval_s;
    last_heard = Array.make_matrix nodes nodes 0.0;
    pending = Array.init nodes (fun _ -> Array.init nodes (fun _ -> ref []));
    flagged = Array.make nodes false;
    c_beats;
    c_suspicions;
    c_false;
  }

let config t = t.cfg

(* Emission times due on [node] now that its local clock reached [now];
   each is returned exactly once. *)
let due t ~node ~now =
  let rec take acc =
    if t.hb_next.(node) <= now then begin
      let at = t.hb_next.(node) in
      t.hb_next.(node) <- at +. t.cfg.hb_interval_s;
      Obs.Metrics.incr t.c_beats;
      take (at :: acc)
    end
    else List.rev acc
  in
  take []

(* [node] was frozen (stalled) until [at]: the beats its daemon would
   have emitted during the freeze never happen — that silence is what
   observers react to.  The first post-freeze beat goes out promptly. *)
let skip_to t ~node ~at =
  if t.hb_next.(node) < at then t.hb_next.(node) <- at

let record t ~src ~dst ~at =
  if src <> dst && src >= 0 && src < t.nodes && dst >= 0 && dst < t.nodes
  then begin
    let q = t.pending.(dst).(src) in
    q := at :: !q
  end

let promote t ~observer ~clock =
  for subject = 0 to t.nodes - 1 do
    let q = t.pending.(observer).(subject) in
    if !q <> [] then begin
      let visible, future = List.partition (fun at -> at <= clock) !q in
      q := future;
      List.iter
        (fun at ->
          if at > t.last_heard.(observer).(subject) then
            t.last_heard.(observer).(subject) <- at)
        visible
    end
  done

(* Current suspect set.  [clocks] are the nodes' local clocks; [alive]
   is ground truth, consulted only to pick the reporting observer set
   and to classify fresh suspicions for the false-suspicion counter.
   [on_suspect] fires once per fresh suspicion episode (not on every
   poll), letting the caller trace it without flooding. *)
let suspects ?(on_suspect = fun ~subject:_ ~false_positive:_ -> ()) t
    ~clocks ~alive =
  for i = 0 to t.nodes - 1 do
    if alive.(i) then promote t ~observer:i ~clock:clocks.(i)
  done;
  let out = ref [] in
  for j = t.nodes - 1 downto 0 do
    let observers = ref 0 in
    let silent = ref 0 in
    for i = 0 to t.nodes - 1 do
      if i <> j && alive.(i) then begin
        incr observers;
        if clocks.(i) -. t.last_heard.(i).(j) > t.cfg.suspect_timeout_s then
          incr silent
      end
    done;
    let suspected = !observers > 0 && !silent = !observers in
    if suspected && not t.flagged.(j) then begin
      Obs.Metrics.incr t.c_suspicions;
      if alive.(j) then Obs.Metrics.incr t.c_false;
      on_suspect ~subject:j ~false_positive:alive.(j)
    end;
    t.flagged.(j) <- suspected;
    if suspected then out := j :: !out
  done;
  !out
