(* Migration shipping and checkpoint chains (see shipping.mli). *)

open Runtime
open Vm
open Cluster_types
open Cluster_core

type retry = {
  max_attempts : int;
  hop_timeout_s : float;
  backoff_base_s : float;
  backoff_factor : float;
}

let default_retry =
  { max_attempts = 5; hop_timeout_s = 0.02; backoff_base_s = 0.002;
    backoff_factor = 2.0 }

(* The checkpoint-chain format: the base image at [path], then delta
   segments [path.d1 .. path.dN], each over the image the previous one
   reconstructs.  Written by [handle_to_storage], read back by
   [read_checkpoint]; nothing else knows the segment names. *)
let segment_path path k = Printf.sprintf "%s.d%d" path k

(* Incremental-checkpoint chain state for one storage path: the digest
   of the image the NEXT delta segment would patch (the last one written
   into the chain) and how many segments exist on the store. *)
type ckpt_chain = { mutable cc_digest : string; mutable cc_len : int }

(* A chain longer than this is rewritten in full: resurrection replays
   every segment, so unbounded chains would trade write bytes for
   unbounded recovery time. *)
let max_chain_len = 8

(* What one hop cost (see [transmit_hop]). *)
type hop = {
  hx_delay_s : float;
  hx_attempts : int;
  hx_backoff_s : float;
}

(* A move of a running process whose destination is compiling the
   process's code ahead of the cut-over.  The subject keeps running at
   its source until the scheduler lands the cut-over. *)
type pending = {
  pd_entry : entry; (* the subject, still at its source *)
  pd_target : node;
  pd_ready_at : float; (* when the destination's code is ready *)
  pd_requested_at : float; (* the source's clock at the request *)
  pd_compile_s : float; (* the compile this move started; 0 joined *)
  pd_fir : hop; (* the FIR hop; no attempts when joined *)
  pd_ticket : Move.ticket; (* the requester's view of the cut-over *)
}

type t = {
  core : Cluster_core.t;
  graph : Spec_graph.t;
  delta : bool;
  forward_ttl_s : float;
  (* fresh ranks for re-homed services, far above user-assigned ones *)
  mutable next_dyn_rank : int;
  ckpt_chains : (string, ckpt_chain) Hashtbl.t;
  mutable hop_seq : int; (* envelope id generator for migrations *)
  (* moves waiting for their cut-over, oldest request first; at most
     one per subject *)
  mutable pending : pending list;
  (* node id -> how many of [pending] have their subject there *)
  pending_on : int array;
  (* compiles ahead, by (node id, FIR digest): when the code is ready.
     One its node's clock has passed is forgotten at the next offer to
     or cut-over onto that node *)
  compiles : (int * string, float) Hashtbl.t;
  c_migrations_ok : Obs.Metrics.counter;
  c_migrations_failed : Obs.Metrics.counter;
  c_migration_cache_hits : Obs.Metrics.counter;
  c_checkpoints : Obs.Metrics.counter;
  c_migrate_retries : Obs.Metrics.counter;
  c_bytes_full : Obs.Metrics.counter;
  c_bytes_delta : Obs.Metrics.counter;
  c_delta_hits : Obs.Metrics.counter;
  c_delta_misses : Obs.Metrics.counter;
  g_delta_hit_rate : Obs.Metrics.gauge;
  c_svc_forwarded : Obs.Metrics.counter;
  h_backoff_s : Obs.Metrics.histogram;
  h_migrate_bytes : Obs.Metrics.histogram;
  h_pack_s : Obs.Metrics.histogram;
  h_transfer_s : Obs.Metrics.histogram;
  h_compile_s : Obs.Metrics.histogram;
}

let create core graph ~delta ~forward_ttl_s =
  let m = core.metrics in
  let counter = Obs.Metrics.counter m and histogram = Obs.Metrics.histogram m in
  { core; graph; delta; forward_ttl_s; next_dyn_rank = 1 lsl 16;
    ckpt_chains = Hashtbl.create 8; hop_seq = 0; pending = [];
    pending_on = Array.make (Array.length core.nodes) 0;
    compiles = Hashtbl.create 8;
    c_migrations_ok = counter "cluster.migrations_ok";
    c_migrations_failed = counter "cluster.migrations_failed";
    c_migration_cache_hits = counter "cluster.migration_cache_hits";
    c_checkpoints = counter "cluster.checkpoints";
    c_migrate_retries = counter "migrate.retries";
    c_bytes_full = counter "migrate.bytes_full";
    c_bytes_delta = counter "migrate.bytes_delta";
    c_delta_hits = counter "migrate.delta_hits";
    c_delta_misses = counter "migrate.delta_misses";
    g_delta_hit_rate = Obs.Metrics.gauge m "migrate.delta_hit_rate";
    c_svc_forwarded = counter "registry.forwarded";
    h_backoff_s = histogram "migrate.backoff_seconds";
    h_migrate_bytes = histogram "cluster.migrate_bytes";
    h_pack_s = histogram "cluster.pack_seconds";
    h_transfer_s = histogram "cluster.transfer_seconds";
    h_compile_s = histogram "cluster.compile_seconds" }

(* Simulated pack cost: one memory access per heap cell on the source. *)
let pack_seconds (proc : Process.t) =
  let cells = Heap.used_cells proc.Process.heap in
  Arch.seconds proc.Process.arch
    (cells * proc.Process.arch.Arch.cycles Arch.Mem)

(* Simulated delta-encode cost: only the cells that travel are
   re-encoded — one header visit per surviving block (the diff walk)
   plus the shipped data cells. *)
let delta_pack_seconds (proc : Process.t) (st : Migrate.Wire.dstats) =
  let cells =
    (st.Migrate.Wire.ds_blocks * Heap.header_cells)
    + st.Migrate.Wire.ds_shipped_cells
  in
  Arch.seconds proc.Process.arch
    (cells * proc.Process.arch.Arch.cycles Arch.Mem)

(* Byte/outcome accounting for one shipped image (a network hop or a
   storage segment).  The hit-rate gauge only means something while the
   delta machinery is on. *)
let note_shipment s ~as_delta ~bytes =
  if as_delta then Obs.Metrics.incr ~by:bytes s.c_bytes_delta
  else Obs.Metrics.incr ~by:bytes s.c_bytes_full;
  if s.delta then begin
    if as_delta then Obs.Metrics.incr s.c_delta_hits
    else Obs.Metrics.incr s.c_delta_misses;
    let h = Obs.Metrics.count s.c_delta_hits in
    let m = Obs.Metrics.count s.c_delta_misses in
    if h + m > 0 then
      Obs.Metrics.set s.g_delta_hit_rate
        (float_of_int h /. float_of_int (h + m))
  end

(* Registry accounting for one image shipped or stored: its outcome
   counter and its cost histograms.  The per-image detail is in the
   trace ([Migrate_done], [Checkpoint]). *)
let record_migration s outcome ?(cache_hit = false) ?(transfer_s = 0.0)
    ?(compile_s = 0.0) ~bytes ~pack_s () =
  Obs.Metrics.incr
    (match outcome with
    | `Checkpoint -> s.c_checkpoints
    | `Migrated | `Suspend -> s.c_migrations_ok
    | `Failed -> s.c_migrations_failed);
  if cache_hit then Obs.Metrics.incr s.c_migration_cache_hits;
  Obs.Metrics.observe s.h_migrate_bytes (float_of_int bytes);
  Obs.Metrics.observe s.h_pack_s pack_s;
  Obs.Metrics.observe s.h_transfer_s transfer_s;
  Obs.Metrics.observe s.h_compile_s compile_s

(* ------------------------------------------------------------------ *)
(* Hop transmission and delivery                                       *)
(* ------------------------------------------------------------------ *)

(* One migration hop under the fault plan: per-hop timeout, bounded
   retry, exponential backoff ([default_retry]) — all in simulated
   time.  Every attempt (lost or not) puts the bytes on the wire; a lost
   attempt costs the hop timeout plus the backoff before the next
   transmission.  Either way the result carries what the hop cost: the
   link-level delay from initiation to the image landing (or to giving
   up), the attempts made and the backoff waited. *)
let transmit_hop s ~send_at ~src_node ~dst_node ~target_name ~bytes ~pid
    ~rank =
  let core = s.core in
  let retry = default_retry in
  let transfer_s = Simnet.transfer_seconds core.net bytes in
  let rec go attempt elapsed backoff_total =
    let hop delay_s =
      { hx_delay_s = delay_s; hx_attempts = attempt;
        hx_backoff_s = backoff_total }
    in
    Simnet.record_transfer core.net bytes;
    match
      Faults.on_hop core.faults ~now:(send_at +. elapsed) ~src:src_node
        ~dst:dst_node
    with
    | `Deliver -> Ok (hop (elapsed +. transfer_s))
    | (`Lost | `Partitioned) as fate ->
      let reason =
        match fate with `Lost -> "lost" | `Partitioned -> "partitioned"
      in
      if attempt >= retry.max_attempts then
        Error (hop (elapsed +. retry.hop_timeout_s), reason)
      else begin
        let backoff =
          retry.backoff_base_s
          *. (retry.backoff_factor ** float_of_int (attempt - 1))
        in
        Obs.Metrics.incr s.c_migrate_retries;
        Obs.Metrics.observe s.h_backoff_s backoff;
        emit core
          ~time:(send_at +. elapsed +. retry.hop_timeout_s)
          ~node:src_node ~pid ~rank
          (Obs.Trace.Migrate_retry
             { target = target_name; attempt; backoff_s = backoff; reason });
        go (attempt + 1)
          (elapsed +. retry.hop_timeout_s +. backoff)
          (backoff_total +. backoff)
      end
  in
  go 1 0.0 0.0

(* Deliver landed image bytes to a node's daemon idempotently, keyed by
   the hop id (unique per hop, so the bytes need not be hashed): a
   duplicated hop returns the original outcome instead of
   double-spawning.  The fault plan may make the image arrive twice —
   deliver it twice on purpose and let the dedup table absorb the
   second copy. *)
let deliver_hop s (target : node) ~bytes ~pid ~rank ~arrive_at =
  s.hop_seq <- s.hop_seq + 1;
  let key = "hop#" ^ string_of_int s.hop_seq in
  match Migrate.Server.receive ~key target.daemon bytes with
  | Error _ as e -> e
  | Ok (Migrate.Server.Duplicate _) ->
    (* impossible for a fresh hop id; keep the type checker honest *)
    Error "duplicate delivery of a fresh hop"
  | Ok (Migrate.Server.Fresh outcome) ->
    if Faults.dup_hop s.core.faults then begin
      (match Migrate.Server.receive ~key target.daemon bytes with
      | Ok (Migrate.Server.Duplicate _) -> ()
      | Ok (Migrate.Server.Fresh _) | Error _ ->
        invalid_arg "Cluster: duplicated hop was not deduplicated");
      emit s.core ~time:arrive_at ~node:target.node_id ~pid ~rank
        (Obs.Trace.Dup_delivery { target = target.node_name })
    end;
    Ok outcome

(* ------------------------------------------------------------------ *)
(* Shipment choice: full image or delta over a negotiated baseline      *)
(* ------------------------------------------------------------------ *)

type shipment = {
  sh_bytes : string;
  sh_delta : bool;
  sh_pack_s : float;
}

(* The one delta choice, for network migrations and checkpoint segments
   alike: a delta over [baseline] — the process's PREVIOUS image, what
   its dirty set is tracked against, once the caller has checked the
   other side holds it — when the FIR permits one (the architecture need
   not match: heap images are architecture-independent) and it is
   strictly smaller than the full image; the full image otherwise. *)
let choose_shipment (entry : entry) packed ~baseline =
  let full =
    { sh_bytes = packed.Migrate.Pack.p_bytes; sh_delta = false;
      sh_pack_s = pack_seconds entry.proc }
  in
  match baseline with
  | None -> full
  | Some (digest, base_image) -> (
    match
      Migrate.Pack.delta ~baseline:base_image ~base_digest:digest packed
    with
    | Some (bytes, stats)
      when String.length bytes < String.length packed.Migrate.Pack.p_bytes ->
      { sh_bytes = bytes; sh_delta = true;
        sh_pack_s = delta_pack_seconds entry.proc stats }
    | Some _ | None -> full)

(* One shipment of a packed process to [target]: transmission under the
   fault plan, then idempotent delivery.  The hop's cost comes back
   whether or not the image landed; a daemon that refuses the image
   fails the hop like any other rejection. *)
let ship_shipment s (entry : entry) (src : node) (target : node) sh =
  let pid = entry.proc.Process.pid and rank = entry_rank entry in
  let bytes = String.length sh.sh_bytes in
  let send_at = src.clock +. sh.sh_pack_s in
  note_shipment s ~as_delta:sh.sh_delta ~bytes;
  match
    transmit_hop s ~send_at ~src_node:src.node_id ~dst_node:target.node_id
      ~target_name:target.node_name ~bytes ~pid ~rank
  with
  | Error (hx, reason) ->
    hx, Error (Unreachable { attempts = hx.hx_attempts; reason })
  | Ok hx -> (
    match
      deliver_hop s target ~bytes:sh.sh_bytes ~pid ~rank
        ~arrive_at:(send_at +. hx.hx_delay_s)
    with
    | Ok outcome -> hx, Ok outcome
    | Error msg -> hx, Error (Rejected msg))

(* Every pack rebases the process's dirty tracking: record the fresh
   image as the entry's baseline (success or failure downstream) and
   retain it on the node's own daemon.  This is the only place a daemon
   retains a baseline: a process's next delta is taken against its
   previous pack, so the only node that can receive that delta is the
   node that packed it. *)
let rebase_baseline (n : node) (entry : entry) (packed : Migrate.Pack.packed) =
  let digest = packed.Migrate.Pack.p_digest in
  entry.baseline <- Some (digest, packed.Migrate.Pack.p_image);
  ignore
    (Migrate.Server.remember_baseline ~digest n.daemon
       packed.Migrate.Pack.p_image);
  digest

(* ------------------------------------------------------------------ *)
(* The move commit                                                     *)
(* ------------------------------------------------------------------ *)

(* Where a migrating process's successor lives in rank space.  An
   ordinary process keeps its rank, mailbox and epoch — rank-addressed
   traffic follows it invisibly, exactly as before.  A REGISTERED
   service vacates its rank: the successor gets a fresh rank (with a
   fresh shared mailbox and that rank's epoch), and [complete_rehome]
   below rebinds the laddr and leaves a forwarder behind.  Fresh ranks
   make the old binding observably stale, which is what exercises the
   forward/notify/rebind protocol. *)
let successor_home s (entry : entry) =
  let core = s.core in
  match entry.rank with
  | Some old_rank
    when Registry.laddr_of_rank core.registry old_rank <> None ->
    let r = s.next_dyn_rank in
    s.next_dyn_rank <- s.next_dyn_rank + 1;
    Some r, rank_mailbox core r, rank_epoch core r
  | Some _ | None -> entry.rank, entry.mailbox, entry.epoch

(* The distributed-transaction context that travels with a packed
   coordinator (wire v9).  Stable level uids are engine-local, so the
   root is named by its position in the speculation snapshot (oldest
   first); participants travel as (rank, epoch) pins.  Only the oldest
   open transaction ships — the externs drive one protocol round at a
   time. *)
let dspec_ctx_of s (entry : entry) =
  match
    Dspec.open_coordinated_by s.core.dspec ~pid:entry.proc.Process.pid
  with
  | [] -> None
  | txn :: _ -> (
    let oldest_first =
      List.rev (Spec.Engine.unique_ids entry.proc.Process.spec)
    in
    let rec index i = function
      | [] -> None
      | u :: _ when u = txn.Dspec.x_root_uid -> Some i
      | _ :: tl -> index (i + 1) tl
    in
    match index 0 oldest_first with
    | None -> None
    | Some x_root ->
      Some
        {
          Migrate.Wire.x_txn = txn.Dspec.x_id;
          x_root;
          x_coord_laddr = txn.Dspec.x_coord_laddr;
          x_parts =
            List.rev_map
              (fun p -> p.Dspec.p_rank, p.Dspec.p_epoch)
              txn.Dspec.x_parts;
        })

(* After a re-homed service's successor is registered: rebind the laddr
   (installing the bounded-TTL forwarder on the vacated rank), then
   relay the in-flight traffic already queued there — each message pays
   one extra store-and-forward traversal, and its sender is owed a
   Recipient_moved notice so it rebinds instead of relaying forever. *)
let complete_rehome s (old_entry : entry) (new_entry : entry) =
  let core = s.core in
  match old_entry.rank, new_entry.rank with
  | Some old_rank, Some new_rank when old_rank <> new_rank -> (
    match Registry.laddr_of_rank core.registry old_rank with
    | None -> ()
    | Some laddr ->
      let at = new_entry.start_at in
      Registry.rebind core.registry ~laddr ~new_rank ~now:at
        ~ttl:s.forward_ttl_s;
      let emit_new =
        emit core ~time:at ~node:new_entry.node_id
          ~pid:new_entry.proc.Process.pid ~rank:new_rank
      in
      emit_new (Obs.Trace.Service_bind { laddr; new_rank; old_rank });
      let new_mbox = new_entry.mailbox in
      List.iter
        (fun (m : Mpi.message) ->
          let bytes = 8 * Array.length m.Mpi.msg_payload in
          let hop = Simnet.message_seconds core.net bytes in
          (* the relay leaves the old node no earlier than the message
             would have arrived there (or the successor exists) *)
          Mpi.enqueue new_mbox
            { m with
              Mpi.msg_deliver_at = max m.Mpi.msg_deliver_at at +. hop };
          Obs.Metrics.incr s.c_svc_forwarded;
          emit_new
            (Obs.Trace.Msg_forward
               { laddr; from_rank = old_rank; to_rank = new_rank });
          match entry_of_rank core m.Mpi.msg_src_rank with
          | Some sender when not (Process.is_terminated sender.proc) ->
            sender.notices <- (at +. hop, laddr, new_rank) :: sender.notices
          | Some _ | None -> ())
        (Mpi.take_all (rank_mailbox core old_rank)))
  | _ -> ()

(* The unified move commit: everything that happens after a shipment is
   accepted, shared by every initiator of a move — successor entry
   creation (an ordinary process keeps rank/mailbox/epoch; a registered
   service is re-homed under a fresh rank), source termination (the
   [terminate] closure is the only initiator-specific step),
   registration, registry rebind + forwarder install + old-mailbox
   drain ([complete_rehome]), identity rekey, busy-time accounting, the
   registry accounting and the Cache_hit/miss + Migrate_done trace events.
   Because the drain lives here, no initiator can strand stamped
   messages at a vacated rank.
   [ahead] is the compile a cut-over's destination ran ahead of it
   (already charged and traced as the miss): the move reports that
   compile, and the hop itself costs the outage only its link.  Any
   other hop that lands on a node still compiling the process's code
   ahead of a cut-over found that code in the cache, but it only exists
   at the compile's ready time: the successor waits for it, and the hop
   reports the wait as its compile (a miss, charged nothing more). *)
let install_successor ?ahead s (entry : entry) (src : node) (target : node)
    packed ~baseline_digest sh hx outcome ~terminate =
  let core = s.core in
  let proc = entry.proc in
  let pack_s = sh.sh_pack_s and transfer_s = hx.hx_delay_s in
  let bytes = String.length sh.sh_bytes in
  let old_uids = Spec.Engine.unique_ids proc.Process.spec in
  let link_s =
    Arch.seconds target.node_arch
      outcome.Migrate.Server.o_costs.Migrate.Pack.u_compile_cycles
  in
  let arrive_at = max target.clock (src.clock +. pack_s +. transfer_s) in
  let wait_s =
    if Hashtbl.length s.compiles = 0 then 0.0
    else
      match
        Hashtbl.find_opt s.compiles
          (target.node_id, (Process.fir_payload proc).Process.fir_digest)
      with
      | Some ready_at -> Float.max 0.0 (ready_at -. arrive_at)
      | None -> 0.0
  in
  let compile_s =
    match ahead with
    | Some c -> c
    | None -> if wait_s > 0.0 then wait_s else link_s
  in
  (* keep pids cluster-unique *)
  let new_pid = fresh_pid core in
  let new_proc =
    { outcome.Migrate.Server.o_process with Process.pid = new_pid }
  in
  let rank, mailbox, epoch = successor_home s entry in
  (* migration is the SAME incarnation on a new node (a fresh service
     rank starts at that rank's epoch); the successor's heap was
     restored from (and its dirty set is empty relative to) the image
     just shipped *)
  let new_entry =
    make_entry ~proc:new_proc
      ~emu:
        (Emulator.create ~compiled:outcome.Migrate.Server.o_compiled
           outcome.Migrate.Server.o_masm new_proc)
      ~node_id:target.node_id ~mailbox ~rank ~epoch
      ~start_at:(arrive_at +. wait_s +. link_s)
      ~baseline:(baseline_digest, packed.Migrate.Pack.p_image)
      ~bindings:entry.bindings ~notices:entry.notices ()
  in
  terminate ();
  Spec_graph.register s.graph new_entry;
  complete_rehome s entry new_entry;
  let uid_map =
    List.combine old_uids (Spec.Engine.unique_ids new_proc.Process.spec)
  in
  Spec_graph.rekey_identity s.graph ~old_pid:proc.Process.pid ~new_pid
    ~uid_map;
  (* a mid-transaction move re-registers the process with the
     transaction table under its successor identity: where it
     coordinates, the root level is translated; where it participates,
     its recorded rank and epoch are refreshed (a deliberate re-home is
     not a zombie — its prepare-ack stays valid) *)
  Dspec.rebind_pid core.dspec ~old_pid:proc.Process.pid ~new_pid
    ~uid_map ~rank:(entry_rank new_entry) ~epoch:new_entry.epoch;
  src.busy_seconds <- src.busy_seconds +. pack_s;
  target.busy_seconds <- target.busy_seconds +. link_s;
  (* a hit means the destination held the code when the move was
     requested *)
  let cache_hit =
    ahead = None && wait_s = 0.0
    && outcome.Migrate.Server.o_costs.Migrate.Pack.u_cache_hit
  in
  record_migration s `Migrated ~cache_hit ~transfer_s ~compile_s
    ~bytes ~pack_s ();
  let emit_new time =
    emit core ~time ~node:target.node_id ~pid:new_pid
      ~rank:(entry_rank new_entry)
  in
  if ahead = None then
    emit_new arrive_at
      (if cache_hit then Obs.Trace.Cache_hit else Obs.Trace.Cache_miss);
  emit_new new_entry.start_at
    (Obs.Trace.Migrate_done
       { ok = true; cache_hit; bytes; pack_s; transfer_s;
         compile_s });
  new_entry, cache_hit

(* A hop that never left: the target is down, is the process's own
   node, or does not parse.  The attempt and its failure are traced, and
   the process resumes where it was. *)
let refuse_hop s (entry : entry) ~target =
  emit_entry s.core entry (Obs.Trace.Migrate_start { target; bytes = 0 });
  emit_entry s.core entry
    (Obs.Trace.Migrate_done
       { ok = false; cache_hit = false; bytes = 0; pack_s = 0.0;
         transfer_s = 0.0; compile_s = 0.0 });
  Process.migration_failed entry.proc

type packer =
  ?with_binary:bool ->
  ?epoch:int ->
  ?dspec:Migrate.Wire.dspec_ctx ->
  Process.t ->
  Migrate.Pack.packed

(* The one ship-and-install path behind both live-migration initiators
   (the program's [migrate] and a [Move.Running] request): pack, rebase
   the baseline, choose full or delta (a delta only when delta shipping
   is on and the receiver still holds the previous baseline — the
   negotiation step), ship under the retry policy, then either commit
   through [install_successor] or record the failed hop.
   The initiators differ only in [pack] (at a migration point or
   mid-execution), [terminate] (how the source retires) and [charge]: a
   process that asked to migrate pays for the pack and the timed-out
   attempts before the failure is traced (the charge moves the event's
   timestamp), while a host-initiated move is invisible to its subject. *)
let ship_and_install ?ahead s (entry : entry) (target : node)
    ~(pack : packer) ~terminate ~charge =
  let src = node s.core entry.node_id in
  let prev_baseline = entry.baseline in
  (* every daemon is untrusted and recompiles from the FIR, so a hop
     carries no binary *)
  let packed =
    pack ~with_binary:false ~epoch:entry.epoch ?dspec:(dspec_ctx_of s entry)
      entry.proc
  in
  let baseline_digest = rebase_baseline src entry packed in
  let sh =
    choose_shipment entry packed
      ~baseline:
        (match prev_baseline with
        | Some (digest, _)
          when s.delta && Migrate.Server.has_baseline target.daemon digest ->
          prev_baseline
        | Some _ | None -> None)
  in
  let bytes = String.length sh.sh_bytes in
  emit_entry s.core entry
    (Obs.Trace.Migrate_start { target = target.node_name; bytes });
  match ship_shipment s entry src target sh with
  | hx, Ok outcome ->
    let new_entry, cache_hit =
      install_successor ?ahead s entry src target packed ~baseline_digest sh
        hx outcome ~terminate
    in
    Ok (new_entry, cache_hit, sh, hx)
  | hx, Error err ->
    if charge then charge_seconds entry.proc (sh.sh_pack_s +. hx.hx_delay_s);
    record_migration s `Failed ~bytes ~pack_s:sh.sh_pack_s ();
    emit_entry s.core entry
      (Obs.Trace.Migrate_done
         { ok = false; cache_hit = false; bytes; pack_s = sh.sh_pack_s;
           transfer_s = 0.0; compile_s = 0.0 });
    Error err

(* The program's [migrate("mcc://host")].  On failure — the target
   stayed unreachable or its daemon rejected the image — the process
   resumes locally instead of wedging. *)
let handle_migrate s (entry : entry) host =
  let core = s.core in
  if is_stale core entry then fence core entry ~what:"migrate"
  else
    match
      Array.find_opt (fun n -> String.equal n.node_name host) core.nodes
    with
    | Some target when target.alive && target.node_id <> entry.node_id -> (
      match
        ship_and_install s entry target ~pack:Migrate.Pack.pack_request
          ~charge:true ~terminate:(fun () ->
            Process.migration_completed entry.proc)
      with
      | Ok _ -> ()
      | Error _ -> Process.migration_failed entry.proc)
    | Some _ | None -> refuse_hop s entry ~target:host

(* The cost of a hop never made (a move that joined a compile). *)
let no_hop = { hx_delay_s = 0.0; hx_attempts = 0; hx_backoff_s = 0.0 }

(* The report of a landed move.  [fir] is the FIR hop that preceded a
   compile ahead, counted with the image hop's attempts and backoff. *)
let report ?(fir = no_hop) ~requested_at (new_entry, cache_hit, sh, hx) =
  let attempts = fir.hx_attempts + hx.hx_attempts in
  let hops = if fir.hx_attempts > 0 then 2 else 1 in
  {
    rep_pid = new_entry.proc.Process.pid;
    rep_attempts = attempts;
    rep_retries = attempts - hops;
    rep_backoff_s = fir.hx_backoff_s +. hx.hx_backoff_s;
    rep_elapsed_s = new_entry.start_at -. requested_at;
    rep_bytes = String.length sh.sh_bytes;
    rep_cache_hit = cache_hit;
    rep_delta = sh.sh_delta;
  }

(* A host-initiated move is invisible to its subject: the source retires
   as a clean exit once the successor exists. *)
let ship_running ?ahead s (entry : entry) target =
  ship_and_install ?ahead s entry target ~pack:Migrate.Pack.pack_running
    ~charge:false ~terminate:(fun () ->
      entry.proc.Process.status <- Process.Exited 0)

(* A stale incarnation never moves: fence it and say why. *)
let refuse_stale core (entry : entry) =
  (* only a ranked entry can be stale *)
  let rank = entry_rank entry in
  fence core entry ~what:"migrate";
  Error (Fenced { rank; stale = entry.epoch; current = rank_epoch core rank })

(* Forget [n]'s compiles that its clock has passed: any hop that lands
   on [n] from now on starts after them, so they can delay nothing. *)
let forget_passed s (n : node) =
  Hashtbl.filter_map_inplace
    (fun (node_id, _) ready_at ->
      if node_id = n.node_id && ready_at <= n.clock then None
      else Some ready_at)
    s.compiles

(* The code offer: the FIR digest goes to the destination's daemon
   first, as [has_baseline] negotiates deltas.  [`Join ready_at] when
   that node still compiles the same code ahead of a cut-over, ready by
   neither the sender's clock nor its own; [`Hold] when the daemon holds
   the code (or keeps no cache, so nothing could be compiled ahead);
   [`Lack] otherwise. *)
let offer s (src : node) (target : node) digest =
  let key = target.node_id, digest in
  match Hashtbl.find_opt s.compiles key with
  | Some ready_at when ready_at > Float.max src.clock target.clock ->
    `Join ready_at
  | found ->
    if found <> None then forget_passed s target;
    if
      Migrate.Server.cache target.daemon = None
      || Migrate.Server.has_code target.daemon digest
    then `Hold
    else `Lack

(* A move that failed before any image left: traced and counted like a
   failed hop; the subject keeps running. *)
let fail_move s (entry : entry) (target : node) ~bytes err =
  emit_entry s.core entry
    (Obs.Trace.Migrate_start { target = target.node_name; bytes });
  record_migration s `Failed ~bytes ~pack_s:0.0 ();
  emit_entry s.core entry
    (Obs.Trace.Migrate_done
       { ok = false; cache_hit = false; bytes; pack_s = 0.0;
         transfer_s = 0.0; compile_s = 0.0 });
  Error err

(* Leave the subject running until its destination's code is ready at
   [ready_at]; the miss is traced on the destination at [miss_at].  The
   requester keeps the ticket; the pending record is dropped once the
   cut-over lands or is abandoned. *)
let pend s (entry : entry) (target : node) ~requested ~miss_at ~ready_at
    ~compile_s ~fir =
  let pid = entry.proc.Process.pid in
  emit s.core ~time:miss_at ~node:target.node_id ~pid ~rank:(entry_rank entry)
    Obs.Trace.Cache_miss;
  let ticket = ref (Compiling { dest = target.node_id; ready_at }) in
  s.pending_on.(entry.node_id) <- s.pending_on.(entry.node_id) + 1;
  s.pending <-
    s.pending
    @ [ { pd_entry = entry; pd_target = target; pd_ready_at = ready_at;
          pd_requested_at = requested; pd_compile_s = compile_s;
          pd_fir = fir; pd_ticket = ticket } ];
  Ok { Move.mv_pid = pid; mv_report = None; mv_cutover = Some ticket }

(* The miss half of the offer: ship the FIR under the retry policy and
   let the destination compile it, charged to its busy time, while the
   subject keeps running.  The code is ready at
   [max(target.clock, src.clock + fir transfer) + compile_s]; the
   cut-over waits for it. *)
let compile_ahead s (entry : entry) (src : node) (target : node) ~requested
    =
  let fir = Process.fir_payload entry.proc in
  let bytes = String.length fir.Process.fir_bytes in
  match
    transmit_hop s ~send_at:src.clock ~src_node:src.node_id
      ~dst_node:target.node_id ~target_name:target.node_name ~bytes
      ~pid:entry.proc.Process.pid ~rank:(entry_rank entry)
  with
  | Error (hx, reason) ->
    fail_move s entry target ~bytes
      (Unreachable { attempts = hx.hx_attempts; reason })
  | Ok hx -> (
    match Migrate.Server.compile_ahead target.daemon fir.Process.fir_bytes with
    | Error msg -> fail_move s entry target ~bytes (Rejected msg)
    | Ok cycles ->
      let compile_s = Arch.seconds target.node_arch cycles in
      let arrive_at = Float.max target.clock (src.clock +. hx.hx_delay_s) in
      let ready_at = arrive_at +. compile_s in
      target.busy_seconds <- target.busy_seconds +. compile_s;
      Hashtbl.replace s.compiles
        (target.node_id, fir.Process.fir_digest)
        ready_at;
      pend s entry target ~requested ~miss_at:arrive_at ~ready_at ~compile_s
        ~fir:hx)

let pending_of s ~pid =
  List.find_opt (fun p -> p.pd_entry.proc.Process.pid = pid) s.pending

(* Host-initiated live migration of a RUNNING process (the [Move.Running]
   subject): validate, offer the code, then either pack mid-execution
   and ship at once (the destination holds the code) or leave the
   subject running while the destination compiles, for the scheduler to
   cut over.  Failure is invisible to the subject — it keeps running
   where it was. *)
let move_running s ~pid ~node_id =
  let core = s.core in
  match entry_of_pid core pid with
  | None -> Error (No_such_process pid)
  | Some entry -> (
    match entry.proc.Process.status, pending_of s ~pid with
    | (Process.Exited _ | Process.Trapped _ | Process.Migrating _), _ ->
      Error Not_running
    | Process.Running, Some p ->
      Error
        (Cutover_pending
           { dest = p.pd_target.node_id; ready_at = p.pd_ready_at })
    | Process.Running, None -> (
      let src = node core entry.node_id in
      let target = node core node_id in
      let requested = src.clock in
      if is_stale core entry then refuse_stale core entry
      else if not target.alive then Error Target_down
      else if target.node_id = src.node_id then Error Already_there
      else
        match
          offer s src target (Process.fir_payload entry.proc).Process.fir_digest
        with
        | `Join ready_at ->
          pend s entry target ~requested
            ~miss_at:(Float.max target.clock src.clock)
            ~ready_at ~compile_s:0.0 ~fir:no_hop
        | `Lack -> compile_ahead s entry src target ~requested
        | `Hold ->
          Result.map
            (fun landed ->
              let rep = report ~requested_at:requested landed in
              { Move.mv_pid = rep.rep_pid; mv_report = Some rep;
                mv_cutover = None })
            (ship_running s entry target)))

(* Land one cut-over: re-check the subject and its destination, then
   pack, ship and install through the ordinary path — a hit now, so the
   outage is the transfer and the link.  The ticket learns how it went;
   whether it landed. *)
let cut_over s p =
  let entry = p.pd_entry and target = p.pd_target in
  let result =
    match entry.proc.Process.status with
    | Process.Exited _ | Process.Trapped _ | Process.Migrating _ ->
      Error Not_running
    | Process.Running ->
      if is_stale s.core entry then refuse_stale s.core entry
      else if not target.alive then Error Target_down
      else
        Result.map
          (report ~fir:p.pd_fir ~requested_at:p.pd_requested_at)
          (ship_running ~ahead:p.pd_compile_s s entry target)
  in
  p.pd_ticket :=
    (match result with Ok rep -> Landed rep | Error e -> Abandoned e);
  forget_passed s target;
  Result.is_ok result

let has_pending s = s.pending <> []

(* Whether every other alive node that hosts live work has reached
   [time]: no message can then reach [n] stamped earlier.  Loops over
   locals, so asking allocates nothing. *)
let others_reached core (n : node) time =
  let nodes = core.nodes in
  let reached = ref true and i = ref 0 in
  while !reached && !i < Array.length nodes do
    let m = nodes.(!i) in
    incr i;
    if
      m.alive && m.node_id <> n.node_id && m.clock < time
      && List.exists
           (fun (e : entry) -> not (Process.is_terminated e.proc))
           m.residents
    then reached := false
  done;
  !reached

(* Whether cut-over [p] is due on [n] at this quantum boundary: its
   subject is there, and its destination's code is ready by [n]'s clock,
   or the subject ended meanwhile (abandoned), or [n] is [idle] (nothing
   ran, no event ahead) and every other node with work has passed the
   ready time, since nothing can reach [n] earlier.  A node that is
   merely between events does not wait, or a parked source would stop
   serving. *)
let is_due s (n : node) ~idle p =
  p.pd_entry.node_id = n.node_id
  && (n.clock >= p.pd_ready_at
     || Process.is_terminated p.pd_entry.proc
     || (idle && others_reached s.core n p.pd_ready_at))

(* [List.exists (is_due s n ~idle)] without building the closure: a
   visit that lands nothing, the common one, allocates nothing. *)
let rec any_due s n ~idle = function
  | [] -> false
  | p :: rest -> is_due s n ~idle p || any_due s n ~idle rest

(* Land the cut-overs due on [n] at this quantum boundary ([is_due]).
   Returns whether any cut-over was handled.  A node that is the source
   of no pending move returns at once, and one with none due returns
   before the partition. *)
let land_due s (n : node) ~idle =
  s.pending_on.(n.node_id) > 0
  && any_due s n ~idle s.pending
  &&
  let due, rest = List.partition (is_due s n ~idle) s.pending in
  s.pending <- rest;
  s.pending_on.(n.node_id) <- s.pending_on.(n.node_id) - List.length due;
  List.iter
    (fun p ->
      if not (Process.is_terminated p.pd_entry.proc) then
        n.clock <- Float.max n.clock p.pd_ready_at;
      ignore (cut_over s p))
    due;
  due <> []

(* The cluster is otherwise quiescent: nothing runs until the pending
   cut-overs land, so each source waits, idle, for its destination's
   code, and cuts over.  Returns whether any landed. *)
let land_all s =
  let due = s.pending in
  s.pending <- [];
  Array.fill s.pending_on 0 (Array.length s.pending_on) 0;
  List.fold_left
    (fun landed p ->
      let src = node s.core p.pd_entry.node_id in
      if src.alive && not (Process.is_terminated p.pd_entry.proc) then
        src.clock <- Float.max src.clock p.pd_ready_at;
      cut_over s p || landed)
    false due

(* ------------------------------------------------------------------ *)
(* Suspend files and checkpoint chains                                 *)
(* ------------------------------------------------------------------ *)

let handle_to_storage s (entry : entry) path ~kind =
  let core = s.core in
  let proc = entry.proc in
  if is_stale core entry then fence core entry ~what:"checkpoint"
  else begin
  (* images on the cluster's own reliable store carry the binary payload:
     "the checkpoints are formatted as executable files and the
     resurrection of processes is done by executing the saved checkpoint"
     (paper, Section 2) *)
  let packed =
    Migrate.Pack.pack_request ~with_binary:true ~epoch:entry.epoch
      ?dspec:(dspec_ctx_of s entry) proc
  in
  let prev_baseline = entry.baseline in
  let new_digest =
    rebase_baseline (node core entry.node_id) entry packed
  in
  (* A CHECKPOINT may extend the path's existing chain with a delta
     segment, but only when the chain's last image is exactly what this
     process's dirty set was tracked against (its previous pack) — the
     chain is rewritten in full otherwise, and after [max_chain_len]
     segments (resurrection replays every segment).  SUSPEND images stay
     full: they are the directly-executable single files of Section 2. *)
  let chain = Hashtbl.find_opt s.ckpt_chains path in
  let sh =
    choose_shipment entry packed
      ~baseline:
        (match chain, prev_baseline with
        | Some cc, Some (digest, _)
          when kind = `Checkpoint && s.delta
               && String.equal cc.cc_digest digest
               && cc.cc_len < max_chain_len ->
          prev_baseline
        | (Some _ | None), _ -> None)
  in
  let stored_path =
    match chain with
    | Some cc when sh.sh_delta ->
      cc.cc_len <- cc.cc_len + 1;
      cc.cc_digest <- new_digest;
      segment_path path cc.cc_len
    | Some _ | None ->
      (* full (re)write: replace the base image and drop any now-stale
         delta segments so a resurrection can never replay them *)
      Option.iter
        (fun cc ->
          for k = 1 to cc.cc_len do
            Storage.remove core.storage (segment_path path k)
          done)
        chain;
      Hashtbl.replace s.ckpt_chains path { cc_digest = new_digest; cc_len = 0 };
      path
  in
  let bytes = String.length sh.sh_bytes in
  let write_s =
    Storage.write ~writer:entry.node_id core.storage stored_path sh.sh_bytes
  in
  note_shipment s ~as_delta:sh.sh_delta ~bytes;
  record_migration s kind ~transfer_s:write_s ~bytes ~pack_s:sh.sh_pack_s ();
  (match kind with
  | `Checkpoint ->
    (* the process pays for its checkpoint and keeps running *)
    charge_seconds proc (sh.sh_pack_s +. write_s);
    Process.migration_failed proc (* "failure" = continue locally *)
  | `Suspend ->
    charge_seconds proc sh.sh_pack_s;
    Process.migration_completed proc);
  emit_entry core entry (Obs.Trace.Checkpoint { path = stored_path; bytes })
  end

let read_checkpoint s path =
  let storage = s.core.storage in
  (* exactly the segments the chain recorded, in order, each
     digest-verified against its reconstruction.  [Storage.read] answers
     [None] for a lost or corrupt segment as for a missing one, so the
     chain length — not the first unreadable name — ends the replay: a
     hole must fail the read, never resume the image before it *)
  let n =
    match Hashtbl.find_opt s.ckpt_chains path with
    | Some cc -> cc.cc_len
    | None -> 0
  in
  let rec replay image bytes read_s k =
    if k > n then Ok (image, bytes, read_s)
    else
      match Storage.read storage (segment_path path k) with
      | None ->
        Error (Printf.sprintf "checkpoint segment %d of %d unreadable" k n)
      | Some (seg, seg_read_s) -> (
        let corrupt msg =
          Error (Printf.sprintf "checkpoint segment %d: %s" k msg)
        in
        match Migrate.Wire.decode_packet seg with
        | Migrate.Wire.Delta d -> (
          match Migrate.Wire.apply_delta ~baseline:image d with
          | image' ->
            replay image' (bytes + String.length seg) (read_s +. seg_read_s)
              (k + 1)
          | exception Migrate.Wire.Corrupt msg -> corrupt msg)
        | Migrate.Wire.Full _ ->
          Error (Printf.sprintf "checkpoint segment %d is not a delta image" k)
        | exception Migrate.Wire.Corrupt msg -> corrupt msg)
  in
  match Storage.read storage path with
  | None -> Error ("no checkpoint " ^ path)
  | Some (bytes, read_s) -> (
    match Migrate.Wire.decode bytes with
    | image -> replay image (String.length bytes) read_s 1
    | exception Migrate.Wire.Corrupt msg -> Error ("corrupt image: " ^ msg))

(* A process parked at a migration point: dispatch on its target. *)
let handle_migration s (entry : entry) =
  match entry.proc.Process.status with
  | Process.Migrating req -> (
    match Migrate.Protocol.parse req.Process.m_target with
    | Migrate.Protocol.Migrate_to host -> handle_migrate s entry host
    | Migrate.Protocol.Suspend_to path ->
      handle_to_storage s entry path ~kind:`Suspend
    | Migrate.Protocol.Checkpoint_to path ->
      handle_to_storage s entry path ~kind:`Checkpoint
    | exception Migrate.Protocol.Bad_target _ ->
      refuse_hop s entry ~target:req.Process.m_target)
  | Process.Running | Process.Exited _ | Process.Trapped _ -> ()
