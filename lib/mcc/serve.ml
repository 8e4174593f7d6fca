(* A closed-loop RPC workload over the process registry: C client ranks
   each fire [requests_per_client] requests round-robin across K service
   processes addressed by LOGICAL ADDRESS (laddr 1..K, [svc_send]),
   never by rank.  Services are re-homed mid-traffic through
   {!Net.Cluster.move}: each move gives the successor a fresh rank, so
   every client binding goes stale and the forward/notify/rebind
   protocol is what keeps the requests flowing.

   Exactly-once accounting under loss/dup/jitter fault plans:
   - the link layer models loss as retransmission delay, so a request
     or reply is never silently dropped (absent a permanent partition);
   - a DUPLICATED request is deduplicated by the service (per-client
     last-seq table): the work runs once and one reply is sent;
   - a DUPLICATED reply is discarded by the client (its seq is behind
     the one outstanding request of the closed loop).

   Each client exits with its count of ordering violations (0 = clean)
   and each service with the number of UNIQUE requests it served, so the
   zero-loss / zero-dup claims are checked from exit codes alone.
   Per-request latency is recorded into the cluster metrics histogram
   ["app.latency_seconds"] via the [lat_us] probe. *)

type config = {
  clients : int;
  services : int;
  requests_per_client : int;
  work_us : int;  (* simulated service time per request *)
  skew : bool;  (* skewed, phase-shifting request stream (T2) *)
  speculative : bool;
      (* speculative exactly-once serving: the service replies from
         inside a speculation BEFORE its dedup state is durable and
         coordinates the commit with dspec_open/dspec_commit; the
         client joins the speculation through the stamped reply and
         holds its latency observation until the distributed commit
         lands (F5) *)
}

let default_config =
  {
    clients = 4;
    services = 2;
    requests_per_client = 50;
    work_us = 20;
    skew = false;
    speculative = false;
  }

let request_tag = 7
let reply_tag_base = 1000

(* Which service (0-based) request [seq] targets — the OCaml mirror of
   the generated client's laddr choice, identical for every client.
   Round-robin normally; with [skew] on, 4 of every 5 requests go to a
   "hot" service that shifts as the run progresses through phases, so
   the load concentrates and then MOVES — the stream the placement
   policy has to chase. *)
let target_service cfg ~client seq =
  if not cfg.skew then seq mod cfg.services
  else begin
    let phase_len = max 1 (cfg.requests_per_client / cfg.services) in
    let hot = seq / phase_len mod cfg.services in
    (* the background fifth is offset by the client rank — in both
       WHICH service it hits and WHERE in the sequence it falls.
       Without the offsets the clients march in lockstep: they all
       pause the hot queue at the same seq to take the background
       hop, the hot service idles in sync, and no placement — good or
       bad — could change the throughput *)
    if (seq + client) mod 5 < 4 then hot
    else (seq + client) mod cfg.services
  end

(* Unique requests service [k] (laddr k+1) owes: every client walks
   a deterministic schedule, so the split is exact. *)
let expected_served cfg k =
  let total = ref 0 in
  for client = 0 to cfg.clients - 1 do
    for seq = 0 to cfg.requests_per_client - 1 do
      if target_service cfg ~client seq = k then incr total
    done
  done;
  !total

let spec_mode cfg =
  if cfg.speculative then ", speculative exactly-once mode" else ""

(* Every client runs one program: it reads its rank at run time (a
   process that serves no laddr keeps its rank when it moves), and
   the one source compiles to one FIR digest.  [rank] stays in the
   signature for callers that build a deployment rank by rank. *)
let client_source cfg _rank =
  (* the skewed stream redirects 4 of 5 requests to the phase's hot
     service; the remainder stays round-robin so every service sees
     some traffic (and affinity) all along *)
  let laddr_choice =
    if not cfg.skew then
      Printf.sprintf "int laddr = 1 + (seq %% %d);" cfg.services
    else
      let phase_len = max 1 (cfg.requests_per_client / cfg.services) in
      Printf.sprintf
        "int laddr = 1 + ((seq + r) %% %d);\n\
        \    if ((seq + r) %% 5 < 4) { laddr = 1 + ((seq / %d) %% %d); }"
        cfg.services phase_len cfg.services
  in
  (* Speculative mode.  The request is sent BEFORE entering the
     speculation so it travels unstamped (the service must not join
     the CLIENT's region — the dependency is one-way, reply-borne).
     Consuming a stamped reply joins the service's transaction; the
     spec_pending() barrier then holds the client until the service's
     durable commit clears the dependency — or the distributed abort
     force-rolls this level, re-entering at speculate() with a
     negative id to wait for the replayed reply.  lat_us fires after
     commit(cs), so an aborted attempt never records a latency. *)
  let decls, enter, on_reply, settle =
    if cfg.speculative then
      ( " int cs;",
        {|
    cs = speculate();
    if (cs < 0) { cs = 0 - cs; }|},
        "{ fin = 1; }",
        {|
    fin = spec_pending();
    while (fin == 1) { fin = spec_pending(); }
    commit(cs);
    lat_us(sim_now_us() - t0);|} )
    else
      ( "",
        "",
        {|{
          lat_us(sim_now_us() - t0);
          fin = 1;
        }|},
        "" )
  in
  Printf.sprintf
    {|
// serving client (generated%s)
int main() {
  int r = rank();
  float *buf = alloc_float(4);
  float *rbuf = alloc_float(4);
  int seq; int rc; int got; int rs; int viol; int t0; int fin;%s
  viol = 0;
  for (seq = 0; seq < %d; seq = seq + 1) {
    %s
    t0 = sim_now_us();
    buf[0] = (float)r;
    buf[1] = (float)seq;
    buf[2] = (float)t0;
    rc = svc_send(laddr, %d, buf, 3);
    while (rc == 0 - 3) { rc = svc_send(laddr, %d, buf, 3); }
    if (rc < 0) { return 0 - 100; }%s
    fin = 0;
    while (fin == 0) {
      got = msg_try_recv_any(%d + r, rbuf, 4);
      if (got >= 0) {
        rs = (int)rbuf[1];
        if (rs == seq) %s
        if (rs > seq) { viol = viol + 1; fin = 1; }
      }
    }%s
  }
  return viol;
}
|}
    (spec_mode cfg) decls cfg.requests_per_client laddr_choice
    request_tag request_tag enter reply_tag_base on_reply settle

(* Without [skew] every service runs one program: it computes its
   quota from its own laddr (svc_self, which survives re-homes) —
   client count times the seqs [s] in [0, requests) with
   [s mod services = laddr - 1] — so all services share one FIR
   digest and a re-home hits any node that holds a service's code.
   The skewed stream's quotas have no such closed form; each skewed
   service keeps its own count in its text. *)
let service_source cfg k =
  let total = expected_served cfg k in
  let header, quota_decl, set_quota, quota =
    if cfg.skew then
      ( Printf.sprintf "serving worker %d (generated%s): %d unique requests"
          k (spec_mode cfg) total,
        "",
        "",
        string_of_int total )
    else
      ( Printf.sprintf
          "serving worker (generated%s): its laddr's share of the requests"
          (spec_mode cfg),
        " int quota;",
        Printf.sprintf "quota = %d * ((%d + %d - svc_self()) / %d);\n  "
          cfg.clients cfg.requests_per_client cfg.services cfg.services,
        "quota" )
  in
  let work =
    if cfg.work_us > 0 then
      Printf.sprintf "work_us(%d);\n        " cfg.work_us
    else ""
  in
  (* Speculative mode: the dedup write and the reply happen inside a
     speculation, so the reply leaves BEFORE the dedup state is
     durable — the fast path the distributed commit protocol has to
     make safe.  dspec_open() roots the transaction at this level; the
     stamped reply enrolls its consumer; dspec_commit() runs the
     epoch-fenced prepare round.  On success the level commits durably
     (releasing the client's spec_pending barrier) and only then does
     the served count advance.  On abort (fence, crash_in_commit, dead
     participant) the level rolls back — un-sending the reply,
     un-writing last[cl], force-rolling any consumer — and control
     re-enters at speculate() with a negative id to replay the
     request.  The recv stays OUTSIDE the speculation: replay must not
     un-consume the request itself. *)
  let decls, handle =
    if cfg.speculative then
      ( " int specid; int txn; int rc;",
        Printf.sprintf
          {|specid = speculate();
        if (specid < 0) { specid = 0 - specid; }
        %slast[cl] = s;
        txn = dspec_open();
        msg_send(cl, %d + cl, rbuf, 3);
        rc = dspec_commit(txn);
        if (rc == 0) {
          commit(specid);
          served = served + 1;
        }
        if (rc < 0) { abort(specid); }|}
          work reply_tag_base )
    else
      ( "",
        Printf.sprintf
          {|last[cl] = s;
        %smsg_send(cl, %d + cl, rbuf, 3);
        served = served + 1;|}
          work reply_tag_base )
  in
  Printf.sprintf
    {|
// %s, then exit
int main() {
  float *rbuf = alloc_float(4);
  int *last = alloc_int(%d);
  int i; int got; int cl; int s; int served;%s%s
  for (i = 0; i < %d; i = i + 1) { last[i] = 0 - 1; }
  %sserved = 0;
  while (served < %s) {
    got = msg_try_recv_any(%d, rbuf, 4);
    if (got >= 0) {
      cl = (int)rbuf[0];
      s = (int)rbuf[1];
      if (s > last[cl]) {
        %s
      }
    }
  }
  return served;
}
|}
    header cfg.clients quota_decl decls cfg.clients set_quota quota
    request_tag handle

let compile source_text =
  match Minic.Driver.compile source_text with
  | Ok fir -> fir
  | Error e ->
    invalid_arg
      ("Serve: generated source failed to compile: "
      ^ Minic.Driver.error_to_string e)

type deployment = {
  sv_config : config;
  sv_cluster : Net.Cluster.t;
  sv_client_pids : int array;  (* client rank -> pid (never moves) *)
  mutable sv_service_pids : int array;  (* service k -> CURRENT pid *)
  sv_laddrs : int array;  (* service k -> logical address *)
}

(* Clients take ranks 0..C-1, services C..C+K-1.  Clients are always
   spread round-robin; services are spread too by default, or packed
   onto the first [p] nodes with [`Pack p] — the deliberately bad
   initial placement the policy engine starts from (T2).  Every
   service is registered, so from here on migration re-homes it. *)
let deploy ?engine ?(placement = `Spread) cluster cfg =
  if cfg.clients < 1 || cfg.services < 1 then
    invalid_arg "Serve.deploy: clients and services must be >= 1";
  let nodes = Net.Cluster.node_count cluster in
  (* each distinct source compiles once: without skew, one program
     per role *)
  let programs = Hashtbl.create 4 in
  let compile src =
    match Hashtbl.find_opt programs src with
    | Some fir -> fir
    | None ->
      let fir = compile src in
      Hashtbl.add programs src fir;
      fir
  in
  let client_pids =
    Array.init cfg.clients (fun r ->
        Net.Cluster.spawn cluster ?engine ~rank:r ~node_id:(r mod nodes)
          (compile (client_source cfg r)))
  in
  let service_node k rank =
    match placement with
    | `Spread -> rank mod nodes
    | `Pack p -> k mod max 1 (min p nodes)
  in
  let service_pids =
    Array.init cfg.services (fun k ->
        let rank = cfg.clients + k in
        Net.Cluster.spawn cluster ?engine ~rank
          ~node_id:(service_node k rank)
          (compile (service_source cfg k)))
  in
  let laddrs =
    Array.map
      (fun pid -> Net.Cluster.register_service cluster ~pid)
      service_pids
  in
  { sv_config = cfg; sv_cluster = cluster; sv_client_pids = client_pids;
    sv_service_pids = service_pids; sv_laddrs = laddrs }

(* Services can be moved underneath the driver (the placement policy
   migrates them without telling anyone), which retires the pid we
   remembered.  The laddr is the stable name: re-resolve each one to
   the CURRENT holder of its rank before reading liveness or exit
   codes, so a policy move never looks like an early exit. *)
let refresh_service_pids d =
  Array.iteri
    (fun k laddr ->
      match Net.Cluster.service_rank d.sv_cluster ~laddr with
      | Some rank -> (
        match Net.Cluster.entry_of_rank d.sv_cluster rank with
        | Some e ->
          d.sv_service_pids.(k) <- e.Net.Cluster.proc.Vm.Process.pid
        | None -> ())
      | None -> ())
    d.sv_laddrs

let exited d pid = Net.Cluster.exit_code d.sv_cluster pid <> None

let all_exited d =
  refresh_service_pids d;
  Array.for_all (exited d) d.sv_client_pids
  && Array.for_all (exited d) d.sv_service_pids

type report = {
  rp_requests : int;  (* latency observations = completed requests *)
  rp_violations : int;  (* sum of client exit codes *)
  rp_migrations : int;  (* re-home requests the cluster accepted *)
  rp_served : int array;  (* per service: unique requests served *)
  rp_p50_ms : float;
  rp_p90_ms : float;
  rp_p99_ms : float;
  rp_mean_ms : float;
  rp_forwarded : int;  (* messages relayed through forwarders *)
  rp_rebinds : int;  (* Recipient_moved notices consumed *)
  rp_expired : int;  (* sends that hit an expired forwarder *)
  rp_wedged : bool;  (* went quiescent before every rank exited *)
}

(* Drive the run, requesting a re-home of one service round-robin to
   the next node every [migrate_every_s] simulated seconds, armed from
   the previous request, until [migrations] requests were made, then
   run to completion.  A destination without the service's code
   compiles it first while the service keeps serving, and the move
   cuts over later.  A refused request counts as skipped and uses up
   one of the [migrations]: the service already exited, is at a
   migration point, or still waits for an earlier cut-over.  An
   accepted move whose service ends before its cut-over never lands:
   [cluster.migrations_ok] counts the moves that did. *)
let run ?(max_rounds = 20_000_000) ?(migrate_every_s = 0.002)
    ?(migrations = 0) d =
  let cluster = d.sv_cluster in
  let nodes = Net.Cluster.node_count cluster in
  let moved = ref 0 in
  let skipped = ref 0 in
  let next_at = ref (Net.Cluster.now cluster +. migrate_every_s) in
  let total = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let budget = max_rounds - !total in
    if budget <= 0 then continue_ := false
    else begin
      let more_moves () = !moved + !skipped < migrations && nodes > 1 in
      (* the stop predicate runs every round: the clients' exit codes
         need no refresh, so the services' pids are refreshed only once
         every client has exited *)
      total :=
        !total
        + Net.Cluster.run cluster ~max_rounds:budget ~stop:(fun () ->
              (Array.for_all (exited d) d.sv_client_pids && all_exited d)
              || (more_moves () && Net.Cluster.now cluster >= !next_at));
      (* refreshes [sv_service_pids] for the move pick below *)
      if all_exited d then continue_ := false
      else if more_moves () && Net.Cluster.now cluster >= !next_at then begin
        let k = (!moved + !skipped) mod d.sv_config.services in
        let pid = d.sv_service_pids.(k) in
        (match Net.Cluster.entry_of_pid cluster pid with
        | Some e
          when e.Net.Cluster.proc.Vm.Process.status = Vm.Process.Running ->
          let target = (e.Net.Cluster.node_id + 1) mod nodes in
          (match
             Net.Cluster.move cluster
               (Net.Cluster.Move.request ~reason:Net.Cluster.Move.Rehome
                  (Net.Cluster.Move.Running pid) ~dest:target)
           with
          | Ok o ->
            d.sv_service_pids.(k) <- o.Net.Cluster.Move.mv_pid;
            incr moved
          | Error _ -> incr skipped)
        | Some _ | None -> incr skipped);
        next_at := Net.Cluster.now cluster +. migrate_every_s
      end
      else
        (* quiescent with ranks unfinished: wedged — report it rather
           than spinning the round budget down *)
        continue_ := false
    end
  done;
  let metrics = Net.Cluster.metrics cluster in
  let requests, p50, p90, p99, mean =
    match Obs.Metrics.find_histogram metrics "app.latency_seconds" with
    | Some h ->
      ( Obs.Metrics.hist_count h,
        1e3 *. Obs.Metrics.quantile h 0.50,
        1e3 *. Obs.Metrics.quantile h 0.90,
        1e3 *. Obs.Metrics.quantile h 0.99,
        1e3 *. Obs.Metrics.hist_mean h )
    | None -> 0, 0.0, 0.0, 0.0, 0.0
  in
  refresh_service_pids d;
  let exit_code = Net.Cluster.exit_code cluster in
  let violations =
    Array.fold_left
      (fun acc pid -> acc + Option.value ~default:0 (exit_code pid))
      0 d.sv_client_pids
  in
  let served =
    Array.map
      (fun pid -> Option.value ~default:(-1) (exit_code pid))
      d.sv_service_pids
  in
  {
    rp_requests = requests;
    rp_violations = violations;
    rp_migrations = !moved;
    rp_served = served;
    rp_p50_ms = p50;
    rp_p90_ms = p90;
    rp_p99_ms = p99;
    rp_mean_ms = mean;
    rp_forwarded = Net.Registry.forwarded (Net.Cluster.registry cluster);
    rp_rebinds = Obs.Metrics.counter_value metrics "registry.rebinds";
    rp_expired =
      Net.Registry.expired_count (Net.Cluster.registry cluster);
    rp_wedged = not (all_exited d);
  }

(* The exactly-once check: every request completed (latency observed),
   every service served exactly its deterministic share of UNIQUE
   requests, no ordering violations, nothing wedged. *)
let exactly_once d (r : report) =
  let cfg = d.sv_config in
  let served_ok = ref (Array.length r.rp_served = cfg.services) in
  Array.iteri
    (fun k served ->
      if served <> expected_served cfg k then served_ok := false)
    r.rp_served;
  (not r.rp_wedged) && r.rp_violations = 0
  && r.rp_requests = cfg.clients * cfg.requests_per_client
  && !served_ok
