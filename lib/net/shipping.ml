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

type t = {
  core : Cluster_core.t;
  graph : Spec_graph.t;
  delta : bool;
  forward_ttl_s : float;
  (* fresh ranks for re-homed services, far above user-assigned ones *)
  mutable next_dyn_rank : int;
  ckpt_chains : (string, ckpt_chain) Hashtbl.t;
  mutable hop_seq : int; (* envelope id generator for migrations *)
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
    ckpt_chains = Hashtbl.create 8; hop_seq = 0;
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
type hop = {
  hx_delay_s : float;
  hx_attempts : int;
  hx_backoff_s : float;
}

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
   messages at a vacated rank. *)
let install_successor s (entry : entry) (src : node) (target : node) packed
    ~baseline_digest sh hx outcome ~terminate =
  let core = s.core in
  let proc = entry.proc in
  let pack_s = sh.sh_pack_s and transfer_s = hx.hx_delay_s in
  let bytes = String.length sh.sh_bytes in
  let old_uids = Spec.Engine.unique_ids proc.Process.spec in
  let compile_s =
    Arch.seconds target.node_arch
      outcome.Migrate.Server.o_costs.Migrate.Pack.u_compile_cycles
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
      ~engine:
        (Emu_engine
           (Emulator.create ~compiled:outcome.Migrate.Server.o_compiled
              outcome.Migrate.Server.o_masm new_proc))
      ~node_id:target.node_id ~mailbox ~rank ~epoch
      ~start_at:
        (max target.clock (src.clock +. pack_s +. transfer_s) +. compile_s)
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
  target.busy_seconds <- target.busy_seconds +. compile_s;
  let cache_hit = outcome.Migrate.Server.o_costs.Migrate.Pack.u_cache_hit in
  record_migration s `Migrated ~cache_hit ~transfer_s ~compile_s
    ~bytes ~pack_s ();
  let emit_new time =
    emit core ~time ~node:target.node_id ~pid:new_pid
      ~rank:(entry_rank new_entry)
  in
  emit_new (max target.clock (src.clock +. pack_s +. transfer_s))
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
let ship_and_install s (entry : entry) (target : node) ~(pack : packer)
    ~terminate ~charge =
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
      install_successor s entry src target packed ~baseline_digest sh hx
        outcome ~terminate
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

(* Host-initiated live migration of a RUNNING process (the [Move.Running]
   subject): validate, then pack mid-execution and ship.  Failure is
   invisible to the subject — it keeps running where it was. *)
let move_running s ~pid ~node_id =
  let core = s.core in
  match entry_of_pid core pid with
  | None -> Error (No_such_process pid)
  | Some entry -> (
    match entry.proc.Process.status with
    | Process.Exited _ | Process.Trapped _ | Process.Migrating _ ->
      Error Not_running
    | Process.Running -> (
      let src = node core entry.node_id in
      let target = node core node_id in
      if is_stale core entry then begin
        (* only a ranked entry can be stale *)
        let rank = entry_rank entry in
        fence core entry ~what:"migrate";
        Error
          (Fenced
             { rank; stale = entry.epoch; current = rank_epoch core rank })
      end
      else if not target.alive then Error Target_down
      else if target.node_id = src.node_id then Error Already_there
      else
        match
          ship_and_install s entry target ~pack:Migrate.Pack.pack_running
            ~charge:false ~terminate:(fun () ->
              entry.proc.Process.status <- Process.Exited 0)
        with
        | Error err -> Error err
        | Ok (new_entry, cache_hit, sh, hx) ->
          Ok
            {
              rep_pid = new_entry.proc.Process.pid;
              rep_attempts = hx.hx_attempts;
              rep_retries = hx.hx_attempts - 1;
              rep_backoff_s = hx.hx_backoff_s;
              rep_elapsed_s = new_entry.start_at -. src.clock;
              rep_bytes = String.length sh.sh_bytes;
              rep_cache_hit = cache_hit;
              rep_delta = sh.sh_delta;
            }))

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
