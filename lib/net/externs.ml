(* The externs cluster processes call (see externs.mli). *)

open Runtime
open Vm
open Cluster_types
open Cluster_core

type t = {
  core : Cluster_core.t;
  graph : Spec_graph.t;
  mutable obj_fail_prob : float;
  (* registry counters, plus the request-latency histogram the serving
     workloads (Gridapp T1) feed through the lat_us extern *)
  c_svc_forwarded : Obs.Metrics.counter;
  c_svc_rebinds : Obs.Metrics.counter;
  h_app_latency : Obs.Metrics.histogram;
}

let create core graph =
  let counter = Obs.Metrics.counter core.metrics in
  { core; graph; obj_fail_prob = 0.0;
    c_svc_forwarded = counter "registry.forwarded";
    c_svc_rebinds = counter "registry.rebinds";
    h_app_latency = Obs.Metrics.histogram core.metrics "app.latency_seconds" }

(* the entry whose quantum the calls belong to *)
let running x = Option.get x.core.running

let set_object_failure_probability x p = x.obj_fail_prob <- p

(* svc_send's typed "recipient moved" code (-3): the cached binding led
   to a vacated rank whose forwarder TTL has passed.  The message was
   NOT sent — the caller drops its cache and retries, re-resolving
   through the registry.  Never a silent drop. *)
let msg_moved = -3

(* A length or buffer size comes from the program: a negative one, or
   one past the end of its buffer, traps the process instead of reaching
   the host's array primitives. *)
let check_length n = if n < 0 then Extern.fail "negative length"

(* A pointer argument's (block, offset); anything else is a bad call. *)
let ptr_parts = function
  | Value.Vptr (idx, off) -> idx, off
  | _ -> Extern.bad_arguments ()

let read_cells heap ptr len =
  let idx, off = ptr_parts ptr in
  if len > Heap.block_size heap idx - off then
    Extern.fail "length exceeds the buffer";
  Array.init len (fun k -> Heap.read heap idx (off + k))

let read_bytes heap ptr k =
  let cells = read_cells heap ptr k in
  Bytes.init k (fun i ->
      match cells.(i) with
      | Value.Vint b -> Char.chr (b land 0xff)
      | _ -> Extern.fail "non-byte cell")

(* Consume every moved notice now due on the sender's clock, rebinding
   its cached laddr bindings (oldest first, so the newest notice wins a
   double migration).  Once a sender rebinds, its traffic goes direct
   and the forwarder stops relaying for it. *)
let consume_notices x (entry : entry) ~now =
  match entry.notices with
  | [] -> ()
  | notices ->
    let due, pending = List.partition (fun (at, _, _) -> at <= now) notices in
    if due <> [] then begin
      entry.notices <- pending;
      List.iter
        (fun (_, laddr, new_rank) ->
          match Hashtbl.find_opt entry.bindings laddr with
          | Some r when r = new_rank -> ()
          | Some _ | None ->
            Hashtbl.replace entry.bindings laddr new_rank;
            Obs.Metrics.incr x.c_svc_rebinds;
            emit_entry x.core entry
              (Obs.Trace.Recipient_moved { laddr; new_rank }))
        (List.rev due)
    end

(* The shared send path: enqueue the [len] cells at [ptr] to
   [dst_rank]'s mailbox under the fault plan.  [extra_delay_s] is the
   relay cost a forwarded send pays on top of the direct link time (one
   store-and-forward traversal through the vacated rank). *)
let send_payload x (entry : entry) (proc : Process.t) ~dst_rank ~tag ~ptr
    ~len ~extra_delay_s =
  let core = x.core in
  match Int_tbl.find_opt core.rank_mailboxes dst_rank with
  | None -> Value.Vint (-1)
  | Some dst_mailbox ->
    let payload = read_cells proc.Process.heap ptr len in
    let bytes = 8 * len in
    Simnet.record_message core.net bytes;
    let send_at = effective_now core proc in
    (* the rank's current holder: the fault draw's destination node, the
       transaction recruit and the wake below *)
    let dst = entry_of_rank core dst_rank in
    (* fault decision for this delivery: loss surfaces as link-level
       retransmission delay (never a silent drop — receivers poll),
       partitions delay to their heal time, jitter adds spread, and a
       duplicate enqueues a second copy *)
    let fault =
      Faults.on_message core.faults ~now:send_at ~src:entry.node_id
        ~dst:(match dst with Some d -> d.node_id | None -> -1)
    in
    let msg =
      {
        Mpi.msg_src_rank = entry_rank entry;
        msg_src_pid = proc.Process.pid;
        msg_tag = tag;
        msg_payload = payload;
        msg_deliver_at =
          send_at +. Simnet.message_seconds core.net bytes
          +. fault.Faults.d_delay_s +. extra_delay_s;
        msg_spec =
          (match Spec.Engine.current_unique proc.Process.spec with
          | Some uid -> Some (proc.Process.pid, uid)
          | None -> None);
        msg_src_epoch = entry.epoch;
      }
    in
    if fault.Faults.d_dropped then begin
      (* undeliverable (permanently partitioned link): the sender does
         not know — exactly the paper's fire-and-forget send *)
      emit_entry core entry (Obs.Trace.Msg_drop { dst = dst_rank; tag });
      Value.Vint 0
    end
    else begin
      Mpi.enqueue dst_mailbox msg;
      (* a message sent from inside an open transaction's root region
         recruits the rank's current holder as a participant, pinned at
         the epoch it has NOW (consumption may confirm it later via
         [add_dependency], but the wire obligation starts here) *)
      (match msg.Mpi.msg_spec, dst with
      | Some (spid, suid), Some d when d.proc.Process.pid <> spid -> (
        match
          Dspec.open_with_root core.dspec ~coord_pid:spid ~root_uid:suid
        with
        | Some txn ->
          Dspec.register txn ~pid:d.proc.Process.pid ~rank:dst_rank
            ~epoch:d.epoch
        | None -> ())
      | _ -> ());
      if fault.Faults.d_duplicate then begin
        Mpi.enqueue dst_mailbox msg;
        emit_entry core entry (Obs.Trace.Msg_dup { dst = dst_rank; tag })
      end;
      emit_entry core entry
        (Obs.Trace.Msg_send { dst = dst_rank; tag; cells = len });
      (* affinity piggyback: a delivered send is one unit of attraction
         from this process toward the destination rank *)
      (match core.balance with
      | Some b -> Balance.note_comm b ~pid:proc.Process.pid ~peer_rank:dst_rank
      | None -> ());
      (* wake the current holder of the rank, if any *)
      (match dst with
      | Some d -> d.parked_on <- None
      | None -> ());
      Value.Vint 0
    end

let write_cells heap ptr payload n =
  let idx, off = ptr_parts ptr in
  for k = 0 to n - 1 do
    Heap.write heap idx (off + k) payload.(k)
  done

(* Write up to [k] of the [len] bytes [get] yields into the buffer at
   [ptr]; the result is the count written. *)
let write_bytes heap ptr k len get =
  let n = min k len in
  write_cells heap ptr
    (Array.init n (fun i -> Value.Vint (Char.code (get i))))
    n;
  Value.Vint n

(* One receive for both externs: [src] is [Rank r] for a directed poll,
   [Any] for the wildcard.  Parking records the polled source (the
   scheduler wakes a wildcard park for any delivery with the tag), and
   so does a roll notice's trace event, as -1 for the wildcard. *)
let recv x (entry : entry) (proc : Process.t) ~src ~tag ptr maxlen =
  let core = x.core in
  unless_stale core entry ~what:"recv" @@ fun () ->
    purge_stale_traffic core entry;
    let now = effective_now core proc in
    match Mpi.try_recv entry.mailbox ~now ~src ~tag with
    | Mpi.Roll ->
      entry.parked_on <- None;
      emit_entry core entry
        (Obs.Trace.Msg_roll
           { src = (match src with Mpi.Rank r -> r | Mpi.Any -> -1) });
      Value.Vint Mpi.msg_roll
    | Mpi.None_yet ->
      entry.parked_on <- Some (src, tag);
      Value.Vint Mpi.msg_none
    | Mpi.Received m ->
      entry.parked_on <- None;
      let n = min maxlen (Array.length m.Mpi.msg_payload) in
      (* a directed poll only matches messages from its own source, so
         the message's source is the polled one there too *)
      emit_entry core entry
        (Obs.Trace.Msg_recv { src = m.Mpi.msg_src_rank; tag; cells = n });
      write_cells proc.Process.heap ptr m.Mpi.msg_payload n;
      (match m.Mpi.msg_spec with
      | Some (spid, uid) when spid <> proc.Process.pid ->
        (* join the sender's speculation *)
        let ruid =
          match Spec.Engine.current_unique proc.Process.spec with
          | Some u -> u
          | None -> -1
        in
        Spec_graph.add_dependency x.graph ~sender:(spid, uid)
          ~receiver:(proc.Process.pid, ruid)
      | Some _ | None -> ());
      Value.Vint n

(* dspec_commit's protocol round for an open transaction [txn] that
   [entry] coordinates.  Prepare: every participant revalidates its
   recorded incarnation epoch.  The whole round is decided synchronously
   here (the simulation's atomicity unit is the quantum) and charged as
   one RTT per participant plus the decision broadcast. *)
let commit_round x (entry : entry) (proc : Process.t) txn =
  let core = x.core in
  let txn_id = txn.Dspec.x_id in
  let parts = List.rev txn.Dspec.x_parts in
  let part_pids = Dspec.part_pids txn in
  Obs.Metrics.incr (Dspec.c_prepares core.dspec);
  emit_entry core entry
    (Obs.Trace.Dspec_prepare { txn = txn_id; parts = part_pids });
  charge_seconds proc
    (2.0
    *. Simnet.message_seconds core.net 64
    *. float_of_int (max 1 (List.length parts)));
  let abort reason =
    abort_txn core entry txn reason;
    (* the coordinator's own abort(level) follows in the program: its
       rollback cascade un-delivers the region's in-flight messages and
       rolls every joined participant back *)
    Value.Vint Mpi.msg_roll
  in
  (* epoch fencing: an ack is valid only while the participant's rank
     still runs the incarnation that joined — a resurrected zombie can
     never speak for a dead one *)
  let reject (p : Dspec.part) ~current_epoch reason =
    Obs.Metrics.incr (Dspec.c_fence_rejections core.dspec);
    emit_entry core entry
      (Obs.Trace.Dspec_fence
         { txn = txn_id; part_rank = p.Dspec.p_rank;
           stale_epoch = p.Dspec.p_epoch; current_epoch });
    abort reason
  in
  let stale =
    List.find_opt
      (fun p ->
        p.Dspec.p_rank >= 0
        && p.Dspec.p_epoch < rank_epoch core p.Dspec.p_rank)
      parts
  in
  match stale with
  | Some p ->
    reject p ~current_epoch:(rank_epoch core p.Dspec.p_rank) "fence"
  | None ->
    (* a dead participant never acks (epochs only move on resurrection,
       so liveness is checked directly) *)
    if
      List.exists
        (fun p ->
          match entry_of_pid core p.Dspec.p_pid with
          | None -> true
          | Some e -> Process.is_terminated e.proc)
        parts
    then abort "participant_dead"
    else begin
      Obs.Metrics.incr ~by:(List.length parts)
        (Dspec.c_prepare_acks core.dspec);
      (* all acks are in.  One fault draw per protocol round: a
         participant may crash between its ack and the commit receipt.
         Its rank re-incarnates at a bumped epoch (voiding the ack it
         gave — same fencing event as a zombie), the live process adopts
         the new epoch, and the coordinator must treat the round as
         in-doubt and abort; the abort cascade performs the victim's
         rollback. *)
      if parts <> [] && Faults.crash_in_commit core.faults then begin
        let victim =
          List.nth parts
            (Random.State.int (Faults.rng core.faults) (List.length parts))
        in
        let rank = victim.Dspec.p_rank in
        let current_epoch =
          if rank >= 0 then bump_epoch core rank
          else victim.Dspec.p_epoch + 1
        in
        (match entry_of_pid core victim.Dspec.p_pid with
        | Some ({ rank = Some r; _ } as e) -> e.epoch <- rank_epoch core r
        | Some _ | None -> ());
        reject victim "crash_in_commit" ~current_epoch
      end
      else begin
        (* decision: COMMIT.  The region's in-flight messages stop
           carrying a join obligation — a receiver that consumes one
           later must not join a level the commit is about to
           dissolve. *)
        Dspec.commit core.dspec txn;
        emit_entry core entry
          (Obs.Trace.Dspec_commit { txn = txn_id; parts = part_pids });
        let uids = [ txn.Dspec.x_root_uid ] in
        List.iter
          (fun (e : entry) ->
            ignore
              (Mpi.settle_speculative e.mailbox ~uids
                 ~sender_pid:proc.Process.pid))
          core.entries;
        Value.Vint 0
      end
    end

(* msg_send and msg_send_int: a rank-addressed send *)
let msg_send x proc = function
  | [ Value.Vint dst_rank; Value.Vint tag; (Value.Vptr _ as ptr);
      Value.Vint len ] ->
    check_length len;
    let entry = running x in
    unless_stale x.core entry ~what:"send" @@ fun () ->
      send_payload x entry proc ~dst_rank ~tag ~ptr ~len ~extra_delay_s:0.0
  | _ -> Extern.bad_arguments ()

(* msg_try_recv and msg_try_recv_int: a directed receive *)
let msg_try_recv x proc = function
  | [ Value.Vint src_rank; Value.Vint tag; (Value.Vptr _ as ptr);
      Value.Vint maxlen ] ->
    check_length maxlen;
    recv x (running x) proc ~src:(Mpi.Rank src_rank) ~tag ptr maxlen
  | _ -> Extern.bad_arguments ()

(* storage faults draw from the seeded fault-plan RNG, never the global
   Random state: reproducible under the cluster seed *)
let obj_fails x =
  Random.State.float (Faults.rng x.core.faults) 1.0 < x.obj_fail_prob

let path_of heap pathp = Heap.raw_to_string heap (fst (ptr_parts pathp))

let table =
  let open Fir.Types in
  let ext = Extern.ext in
  let buffer ty = [ Tint; Tint; Tptr ty; Tint ] in
  Extern.table
  @@ [
       ext "msg_send" (buffer Tfloat) Tint msg_send;
       ext "msg_send_int" (buffer Tint) Tint msg_send;
       ext "msg_try_recv" (buffer Tfloat) Tint msg_try_recv;
       ext "msg_try_recv_int" (buffer Tint) Tint msg_try_recv;
       (* location-transparent messaging: sends by logical address, the
          wildcard receive a mobile service needs (its clients' ranks
          are whatever the registry said at their send time), and the
          request-latency probe the serving benches feed *)
       ext "svc_send" (buffer Tfloat) Tint (fun x proc -> function
         | [ Value.Vint laddr; Value.Vint tag; (Value.Vptr _ as ptr);
             Value.Vint len ] -> (
           check_length len;
           let core = x.core in
           let entry = running x in
           (* the registry never weakens fencing: a zombie's sends are
              rejected exactly as rank-addressed ones are *)
           unless_stale core entry ~what:"send" @@ fun () ->
             let now_s = effective_now core proc in
             (* due moved notices first: rebind before resolving, so a
                sender that was told about the move goes direct from
                this call on *)
             consume_notices x entry ~now:now_s;
             let bound =
               match Hashtbl.find_opt entry.bindings laddr with
               | Some _ as r -> r
               | None ->
                 let r = Registry.lookup core.registry laddr in
                 Option.iter (Hashtbl.replace entry.bindings laddr) r;
                 r
             in
             match bound with
             | None -> Value.Vint (-1) (* unknown laddr: like a rank *)
             | Some r -> (
               match Registry.resolve core.registry ~now:now_s r with
               | Registry.Direct final ->
                 send_payload x entry proc ~dst_rank:final ~tag ~ptr ~len
                   ~extra_delay_s:0.0
               | Registry.Forwarded final ->
                 (* relay through the vacated rank: the message pays one
                    extra store-and-forward traversal, and the forwarder
                    owes the sender a Recipient_moved notice (due one
                    link time from now — the notice travels back) *)
                 let relay_s = Simnet.message_seconds core.net (8 * len) in
                 Obs.Metrics.incr x.c_svc_forwarded;
                 emit_entry core entry
                   (Obs.Trace.Msg_forward
                      { laddr; from_rank = r; to_rank = final });
                 entry.notices <-
                   (now_s +. Simnet.message_seconds core.net 32, laddr, final)
                   :: entry.notices;
                 send_payload x entry proc ~dst_rank:final ~tag ~ptr ~len
                   ~extra_delay_s:relay_s
               | Registry.Expired rank ->
                 (* the forwarder is gone: typed error, never a silent
                    drop.  Dropping the cached binding makes the retry
                    re-resolve through the registry's authoritative
                    table *)
                 Hashtbl.remove entry.bindings laddr;
                 emit_entry core entry
                   (Obs.Trace.Forward_expired { laddr; rank });
                 Value.Vint msg_moved))
         | _ -> Extern.bad_arguments ());
       (* authoritative resolve: refreshes the caller's cached binding *)
       ext "svc_resolve" [ Tint ] Tint (fun x _ -> function
         | [ Value.Vint laddr ] -> (
           match Registry.lookup x.core.registry laddr with
           | Some r ->
             Hashtbl.replace (running x).bindings laddr r;
             Value.Vint r
           | None -> Value.Vint (-1))
         | _ -> Extern.bad_arguments ());
       (* the caller's own laddr, read through its CURRENT rank: a
          re-home rebinds the laddr to the successor's fresh rank, so
          the answer survives the move.  A process that serves no laddr
          traps *)
       ext "svc_self" [] Tint (fun x _ -> function
         | [] -> (
           match
             Option.bind (running x).rank
               (Registry.laddr_of_rank x.core.registry)
           with
           | Some laddr -> Value.Vint laddr
           | None -> Extern.fail "not a registered service")
         | _ -> Extern.bad_arguments ());
       (* wildcard receive: a mobile service cannot know its clients'
          ranks ahead of time (and a client cannot know which rank its
          reply comes from after the service moved), so it matches on
          tag alone *)
       ext "msg_try_recv_any" [ Tint; Tptr Tfloat; Tint ] Tint
         (fun x proc -> function
         | [ Value.Vint tag; (Value.Vptr _ as ptr); Value.Vint maxlen ] ->
           check_length maxlen;
           recv x (running x) proc ~src:Mpi.Any ~tag ptr maxlen
         | _ -> Extern.bad_arguments ());
       ext "lat_us" [ Tint ] Tunit (fun x _ -> function
         | [ Value.Vint us ] ->
           Obs.Metrics.observe x.h_app_latency (float_of_int us /. 1e6);
           Value.Vunit
         | _ -> Extern.bad_arguments ());
       ext "rank" [] Tint (fun x _ -> function
         | [] -> Value.Vint (entry_rank (running x))
         | _ -> Extern.bad_arguments ());
       ext "sim_now_us" [] Tint (fun x proc -> function
         | [] -> Value.Vint (int_of_float (effective_now x.core proc *. 1e6))
         | _ -> Extern.bad_arguments ());
       ext "obj_read" [ Tint; Tptr Tint; Tint ] Tint (fun x proc -> function
         | [ Value.Vint obj; (Value.Vptr _ as ptr); Value.Vint k ] -> (
           check_length k;
           if obj_fails x then Value.Vint (-1)
           else
             match Hashtbl.find_opt x.core.obj_store obj with
             | None -> Value.Vint (-1)
             | Some data ->
               write_bytes proc.Process.heap ptr k (Bytes.length data)
                 (Bytes.get data))
         | _ -> Extern.bad_arguments ());
       ext "obj_write" [ Tint; Tptr Tint; Tint ] Tint (fun x proc -> function
         | [ Value.Vint obj; (Value.Vptr _ as ptr); Value.Vint k ] ->
           check_length k;
           if obj_fails x then Value.Vint (-1)
           else begin
             Spec_graph.note_object_write x.graph proc obj;
             let bytes = read_bytes proc.Process.heap ptr k in
             let data =
               match Hashtbl.find_opt x.core.obj_store obj with
               | Some d when Bytes.length d >= k -> d
               | _ -> Bytes.make (max k 1) '\000'
             in
             Bytes.blit bytes 0 data 0 k;
             Hashtbl.replace x.core.obj_store obj data;
             Value.Vint k
           end
         | _ -> Extern.bad_arguments ());
       (* MojaveFS-lite (the paper's "speculative I/O" future work,
          Section 7): byte files on the shared store whose writes join
          the writer's speculation, so "normal file I/O operations" are
          usable inside a speculation and roll back with it *)
       ext "fs_write" [ Traw; Tptr Tint; Tint ] Tint (fun x proc -> function
         | [ (Value.Vptr _ as pathp); (Value.Vptr _ as ptr); Value.Vint k ] ->
           check_length k;
           let heap = proc.Process.heap in
           let path = path_of heap pathp in
           Spec_graph.note_file_write x.graph proc path;
           let data = Bytes.to_string (read_bytes heap ptr k) in
           charge_seconds proc (Storage.write x.core.storage path data);
           Value.Vint k
         | _ -> Extern.bad_arguments ());
       ext "fs_read" [ Traw; Tptr Tint; Tint ] Tint (fun x proc -> function
         | [ (Value.Vptr _ as pathp); (Value.Vptr _ as ptr); Value.Vint k ] -> (
           check_length k;
           let heap = proc.Process.heap in
           match Storage.read x.core.storage (path_of heap pathp) with
           | None -> Value.Vint (-1)
           | Some (data, dt) ->
             charge_seconds proc dt;
             write_bytes heap ptr k (String.length data) (String.get data))
         | _ -> Extern.bad_arguments ());
       ext "fs_size" [ Traw ] Tint (fun x proc -> function
         | [ (Value.Vptr _ as pathp) ] ->
           let path = path_of proc.Process.heap pathp in
           Value.Vint
             (Option.value ~default:(-1) (Storage.size x.core.storage path))
         | _ -> Extern.bad_arguments ());
       (* distributed speculation: open a transaction rooted at the
          current level, run the epoch-fenced commit protocol over
          everyone who joined, and test whether anyone still depends on
          this process's current level (the client's pre-commit
          barrier) *)
       ext "dspec_open" [] Tint (fun x proc -> function
         | [] -> (
           let core = x.core in
           let entry = running x in
           unless_stale core entry ~what:"dspec" @@ fun () ->
             match Spec.Engine.current_unique proc.Process.spec with
             | None -> Extern.fail "no open speculation level"
             | Some uid ->
               let laddr =
                 Option.bind entry.rank (Registry.laddr_of_rank core.registry)
                 |> Option.value ~default:(-1)
               in
               let txn =
                 Dspec.open_txn core.dspec ~coord_pid:proc.Process.pid
                   ~root_uid:uid ~coord_laddr:laddr
               in
               emit_entry core entry
                 (Obs.Trace.Dspec_open { txn = txn.Dspec.x_id; uid });
               Value.Vint txn.Dspec.x_id)
         | _ -> Extern.bad_arguments ());
       ext "dspec_commit" [ Tint ] Tint (fun x proc -> function
         | [ Value.Vint txn_id ] -> (
           let entry = running x in
           unless_stale x.core entry ~what:"dspec" @@ fun () ->
             match Dspec.find x.core.dspec txn_id with
             | None ->
               Extern.fail (Printf.sprintf "unknown transaction %d" txn_id)
             | Some txn -> (
               if txn.Dspec.x_coord_pid <> proc.Process.pid then
                 Extern.fail "not the coordinator";
               match txn.Dspec.x_state with
               | Dspec.Committed -> Value.Vint 0
               | Dspec.Aborted _ -> Value.Vint Mpi.msg_roll
               | Dspec.Open -> commit_round x entry proc txn))
         | _ -> Extern.bad_arguments ());
       (* is this process's current level still joined to an undecided
          foreign region?  The participant's pre-commit barrier:
          committing while the coordinator's fate is open would durably
          absorb state a distributed abort may yet revoke.  The
          dependency dissolves when the coordinator's level commits
          durably and is force-rolled when it aborts — either way the
          spin ends. *)
       ext "spec_pending" [] Tint (fun x proc -> function
         | [] ->
           let pid = proc.Process.pid in
           Value.Vint
             (match Spec.Engine.current_unique proc.Process.spec with
             | Some uid when Spec_graph.pending x.graph ~pid ~uid -> 1
             | Some _ | None -> 0)
         | _ -> Extern.bad_arguments ());
     ]
  @ Extern.entries ()

let extern_signatures = Extern.lookup table
let extern_names = Extern.names table
let handler x = Extern.handler table x
