(* Typed event tracing: an append-only log of timestamped events.

   Every event carries the SIMULATED time at which it happened (the
   cluster's discrete-event clock, not wall-clock: the reproduction's
   claims are about simulated cost accounting, and wall-clock stamps
   would vary run to run and host to host), plus the node / pid / rank
   attribution the per-phase analyses need (-1 where not applicable).

   The log keeps every event of the run.  Every reader (the audit, the
   timeline, the exporter) needs the whole trace in memory anyway, so a
   bounded window would save nothing at read time and would only lose
   the evidence an audit checks.  A list rather than [Dynarray], which
   OCaml 4.14 lacks.

   Export is JSONL — one self-describing JSON object per line — ordered
   by simulated time.  Nodes advance on independent local clocks, so raw
   recording order is only per-node monotone; the exporter stably sorts
   by timestamp to present one cluster-wide monotone timeline. *)

type gc_kind = Minor | Major

type kind =
  | Spawn
  | Migrate_start of { target : string; bytes : int }
  | Migrate_done of {
      ok : bool;
      cache_hit : bool;
      bytes : int;
      pack_s : float;
      transfer_s : float;
      compile_s : float;
    }
  | Migrate_retry of {
      target : string;
      attempt : int;
      backoff_s : float;
      reason : string;
    }
  | Dup_delivery of { target : string }
  | Cache_hit
  | Cache_miss
  | Spec_enter of { uid : int; depth : int }
  | Spec_commit of { uid : int; durable : bool }
  | Spec_rollback of { uids : int list }
  | Forced_rollback of { level : int }
  | Node_fail
  | Node_stall of { stall_s : float }
  | Link_partition of { peer_a : int; peer_b : int; until_s : float }
  | Suspect of { subject : int; false_positive : bool }
  | Fenced of { stale_epoch : int; current_epoch : int; what : string }
  | Storage_repair of { path : string; replicas : int }
  | Checkpoint of { path : string; bytes : int }
  | Resurrect of { path : string; ok : bool }
  | Gc of { gc_kind : gc_kind; live : int; collected : int }
  | Msg_send of { dst : int; tag : int; cells : int }
  | Msg_recv of { src : int; tag : int; cells : int }
  | Msg_roll of { src : int }
  | Msg_drop of { dst : int; tag : int }
  | Msg_dup of { dst : int; tag : int }
  | Service_bind of { laddr : int; new_rank : int; old_rank : int }
  | Msg_forward of { laddr : int; from_rank : int; to_rank : int }
  | Recipient_moved of { laddr : int; new_rank : int }
  | Forward_expired of { laddr : int; rank : int }
  | Balance_tick of { spread : float; proposed : int; moved : int }
  | Dspec_open of { txn : int; uid : int }
  | Dspec_prepare of { txn : int; parts : int list }
  | Dspec_fence of {
      txn : int;
      part_rank : int;
      stale_epoch : int;
      current_epoch : int;
    }
  | Dspec_commit of { txn : int; parts : int list }
  | Dspec_abort of { txn : int; parts : int list; reason : string }
  | Dspec_compensate of { txn : int; discarded : int }

type event = {
  time : float; (* simulated seconds *)
  node : int; (* -1 when not attributable *)
  pid : int;
  rank : int;
  kind : kind;
}

type t = { mutable rev : event list (* newest first *) }

let create () = { rev = [] }
let length t = List.length t.rev

let record t ~time ?(node = -1) ?(pid = -1) ?(rank = -1) kind =
  t.rev <- { time; node; pid; rank; kind } :: t.rev

(* Oldest-recorded first (per-node monotone; see [to_jsonl] for the
   cluster-wide monotone ordering). *)
let events t = List.rev t.rev

let kind_label = function
  | Spawn -> "spawn"
  | Migrate_start _ -> "migrate_start"
  | Migrate_done _ -> "migrate_done"
  | Migrate_retry _ -> "migrate_retry"
  | Dup_delivery _ -> "dup_delivery"
  | Cache_hit -> "cache_hit"
  | Cache_miss -> "cache_miss"
  | Spec_enter _ -> "spec_enter"
  | Spec_commit _ -> "spec_commit"
  | Spec_rollback _ -> "spec_rollback"
  | Forced_rollback _ -> "forced_rollback"
  | Node_fail -> "node_fail"
  | Node_stall _ -> "node_stall"
  | Link_partition _ -> "link_partition"
  | Suspect _ -> "suspect"
  | Fenced _ -> "fenced"
  | Storage_repair _ -> "storage_repair"
  | Checkpoint _ -> "checkpoint"
  | Resurrect _ -> "resurrect"
  | Gc _ -> "gc"
  | Msg_send _ -> "msg_send"
  | Msg_recv _ -> "msg_recv"
  | Msg_roll _ -> "msg_roll"
  | Msg_drop _ -> "msg_drop"
  | Msg_dup _ -> "msg_dup"
  | Service_bind _ -> "service_bind"
  | Msg_forward _ -> "msg_forward"
  | Recipient_moved _ -> "recipient_moved"
  | Forward_expired _ -> "forward_expired"
  | Balance_tick _ -> "balance_tick"
  | Dspec_open _ -> "dspec_open"
  | Dspec_prepare _ -> "dspec_prepare"
  | Dspec_fence _ -> "dspec_fence"
  | Dspec_commit _ -> "dspec_commit"
  | Dspec_abort _ -> "dspec_abort"
  | Dspec_compensate _ -> "dspec_compensate"

(* ------------------------------------------------------------------ *)
(* JSONL export                                                        *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x =
  (* shortest round-trippable form that is still valid JSON *)
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else Printf.sprintf "%.9g" x

let kind_fields buf = function
  | Migrate_start { target; bytes } ->
    Printf.bprintf buf ",\"target\":\"%s\",\"bytes\":%d"
      (json_escape target) bytes
  | Migrate_done { ok; cache_hit; bytes; pack_s; transfer_s; compile_s } ->
    Printf.bprintf buf
      ",\"ok\":%b,\"cache_hit\":%b,\"bytes\":%d,\"pack_s\":%s,\"transfer_s\":%s,\"compile_s\":%s"
      ok cache_hit bytes (json_float pack_s) (json_float transfer_s)
      (json_float compile_s)
  | Migrate_retry { target; attempt; backoff_s; reason } ->
    Printf.bprintf buf
      ",\"target\":\"%s\",\"attempt\":%d,\"backoff_s\":%s,\"reason\":\"%s\""
      (json_escape target) attempt (json_float backoff_s)
      (json_escape reason)
  | Dup_delivery { target } ->
    Printf.bprintf buf ",\"target\":\"%s\"" (json_escape target)
  | Forced_rollback { level } -> Printf.bprintf buf ",\"level\":%d" level
  | Node_stall { stall_s } ->
    Printf.bprintf buf ",\"stall_s\":%s" (json_float stall_s)
  | Link_partition { peer_a; peer_b; until_s } ->
    Printf.bprintf buf ",\"peer_a\":%d,\"peer_b\":%d,\"until_s\":%s"
      peer_a peer_b
      (if until_s = infinity then "null" else json_float until_s)
  | Msg_drop { dst; tag } | Msg_dup { dst; tag } ->
    Printf.bprintf buf ",\"dst\":%d,\"tag\":%d" dst tag
  | Suspect { subject; false_positive } ->
    Printf.bprintf buf ",\"subject\":%d,\"false_positive\":%b" subject
      false_positive
  | Fenced { stale_epoch; current_epoch; what } ->
    Printf.bprintf buf
      ",\"stale_epoch\":%d,\"current_epoch\":%d,\"what\":\"%s\"" stale_epoch
      current_epoch (json_escape what)
  | Storage_repair { path; replicas } ->
    Printf.bprintf buf ",\"path\":\"%s\",\"replicas\":%d" (json_escape path)
      replicas
  | Spawn | Cache_hit | Cache_miss | Node_fail -> ()
  | Spec_enter { uid; depth } ->
    Printf.bprintf buf ",\"uid\":%d,\"depth\":%d" uid depth
  | Spec_commit { uid; durable } ->
    Printf.bprintf buf ",\"uid\":%d,\"durable\":%b" uid durable
  | Spec_rollback { uids } ->
    Printf.bprintf buf ",\"uids\":[%s]"
      (String.concat "," (List.map string_of_int uids))
  | Checkpoint { path; bytes } ->
    Printf.bprintf buf ",\"path\":\"%s\",\"bytes\":%d" (json_escape path)
      bytes
  | Resurrect { path; ok } ->
    Printf.bprintf buf ",\"path\":\"%s\",\"ok\":%b" (json_escape path) ok
  | Gc { gc_kind; live; collected } ->
    Printf.bprintf buf ",\"gc_kind\":\"%s\",\"live\":%d,\"collected\":%d"
      (match gc_kind with Minor -> "minor" | Major -> "major")
      live collected
  | Msg_send { dst; tag; cells } ->
    Printf.bprintf buf ",\"dst\":%d,\"tag\":%d,\"cells\":%d" dst tag cells
  | Msg_recv { src; tag; cells } ->
    Printf.bprintf buf ",\"src\":%d,\"tag\":%d,\"cells\":%d" src tag cells
  | Msg_roll { src } -> Printf.bprintf buf ",\"src\":%d" src
  | Service_bind { laddr; new_rank; old_rank } ->
    Printf.bprintf buf ",\"laddr\":%d,\"new_rank\":%d,\"old_rank\":%d" laddr
      new_rank old_rank
  | Msg_forward { laddr; from_rank; to_rank } ->
    Printf.bprintf buf ",\"laddr\":%d,\"from_rank\":%d,\"to_rank\":%d"
      laddr from_rank to_rank
  | Recipient_moved { laddr; new_rank } ->
    Printf.bprintf buf ",\"laddr\":%d,\"new_rank\":%d" laddr new_rank
  | Forward_expired { laddr; rank } ->
    Printf.bprintf buf ",\"laddr\":%d,\"rank\":%d" laddr rank
  | Balance_tick { spread; proposed; moved } ->
    Printf.bprintf buf ",\"spread\":%s,\"proposed\":%d,\"moved\":%d"
      (json_float spread) proposed moved
  | Dspec_open { txn; uid } ->
    Printf.bprintf buf ",\"txn\":%d,\"uid\":%d" txn uid
  | Dspec_prepare { txn; parts } | Dspec_commit { txn; parts } ->
    Printf.bprintf buf ",\"txn\":%d,\"parts\":[%s]" txn
      (String.concat "," (List.map string_of_int parts))
  | Dspec_fence { txn; part_rank; stale_epoch; current_epoch } ->
    Printf.bprintf buf
      ",\"txn\":%d,\"part_rank\":%d,\"stale_epoch\":%d,\"current_epoch\":%d"
      txn part_rank stale_epoch current_epoch
  | Dspec_abort { txn; parts; reason } ->
    Printf.bprintf buf ",\"txn\":%d,\"parts\":[%s],\"reason\":\"%s\"" txn
      (String.concat "," (List.map string_of_int parts))
      (json_escape reason)
  | Dspec_compensate { txn; discarded } ->
    Printf.bprintf buf ",\"txn\":%d,\"discarded\":%d" txn discarded

let event_to_json e =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"t\":%s,\"ev\":\"%s\"" (json_float e.time)
    (kind_label e.kind);
  if e.node >= 0 then Printf.bprintf buf ",\"node\":%d" e.node;
  if e.pid >= 0 then Printf.bprintf buf ",\"pid\":%d" e.pid;
  if e.rank >= 0 then Printf.bprintf buf ",\"rank\":%d" e.rank;
  kind_fields buf e.kind;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Cluster-wide monotone timeline: a stable sort by simulated time (the
   recording order breaks ties, preserving causal order within a node). *)
let timeline t =
  List.stable_sort (fun a b -> Float.compare a.time b.time) (events t)

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (event_to_json e);
      Buffer.add_char buf '\n')
    (timeline t);
  Buffer.contents buf

let write_jsonl t oc = output_string oc (to_jsonl t)
