(* Suspend files and checkpoint chains (see checkpoint.mli). *)

open Vm
open Cluster_types
open Cluster_core

(* The chain format: the base image at [path], then delta segments
   [path.d1 .. path.dN], each over the image the previous one
   reconstructs.  Written by [write], read back by [read]; nothing else
   knows the segment names. *)
let segment_path path k = Printf.sprintf "%s.d%d" path k

(* Chain state for one storage path: the digest of the image the NEXT
   delta segment would patch (the last one written into the chain) and
   how many segments exist on the store. *)
type ckpt_chain = { mutable cc_digest : string; mutable cc_len : int }

(* A chain longer than this is rewritten in full: resurrection replays
   every segment, so unbounded chains would trade write bytes for
   unbounded recovery time. *)
let max_chain_len = 8

type t = {
  core : Cluster_core.t;
  ship : Shipping.t;
  delta : bool;
  chains : (string, ckpt_chain) Hashtbl.t;
  c_checkpoints : Obs.Metrics.counter;
  c_migrations_ok : Obs.Metrics.counter; (* a suspend completes a move *)
}

let create core ship ~delta =
  let counter = Obs.Metrics.counter core.metrics in
  { core; ship; delta; chains = Hashtbl.create 8;
    c_checkpoints = counter "cluster.checkpoints";
    c_migrations_ok = counter "cluster.migrations_ok" }

let write c (entry : entry) path ~kind =
  let core = c.core and proc = entry.proc in
  if is_stale core entry then fence core entry ~what:"checkpoint"
  else begin
  (* images on the cluster's own reliable store carry the binary payload:
     "the checkpoints are formatted as executable files and the
     resurrection of processes is done by executing the saved checkpoint"
     (paper, Section 2) *)
  let packed =
    Migrate.Pack.pack_request ~with_binary:true ~epoch:entry.epoch
      ?dspec:(Shipping.dspec_ctx_of c.ship entry) proc
  in
  let prev_baseline = entry.baseline in
  let new_digest =
    Shipping.rebase_baseline (node core entry.node_id) entry packed
  in
  (* A CHECKPOINT may extend the path's existing chain with a delta
     segment, but only when the chain's last image is exactly what this
     process's dirty set was tracked against (its previous pack) — the
     chain is rewritten in full otherwise, and after [max_chain_len]
     segments (resurrection replays every segment).  SUSPEND images stay
     full: they are the directly-executable single files of Section 2. *)
  let chain = Hashtbl.find_opt c.chains path in
  let sh =
    Shipping.choose_shipment entry packed
      ~baseline:
        (match chain, prev_baseline with
        | Some cc, Some (digest, _)
          when kind = `Checkpoint && c.delta
               && String.equal cc.cc_digest digest
               && cc.cc_len < max_chain_len ->
          prev_baseline
        | (Some _ | None), _ -> None)
  in
  let { Shipping.sh_bytes; sh_delta; sh_pack_s = pack_s } = sh in
  let stored_path =
    match chain with
    | Some cc when sh_delta ->
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
      Hashtbl.replace c.chains path { cc_digest = new_digest; cc_len = 0 };
      path
  in
  let bytes = String.length sh_bytes in
  let write_s =
    Storage.write ~writer:entry.node_id core.storage stored_path sh_bytes
  in
  Shipping.note_shipment c.ship ~as_delta:sh_delta ~bytes;
  Shipping.record_migration c.ship
    (match kind with
    | `Checkpoint -> c.c_checkpoints
    | `Suspend -> c.c_migrations_ok)
    ~transfer_s:write_s ~bytes ~pack_s ();
  (match kind with
  | `Checkpoint ->
    (* the process pays for its checkpoint and keeps running *)
    charge_seconds proc (pack_s +. write_s);
    Process.migration_failed proc (* "failure" = continue locally *)
  | `Suspend ->
    charge_seconds proc pack_s;
    Process.migration_completed proc);
  emit_entry core entry (Obs.Trace.Checkpoint { path = stored_path; bytes })
  end

let read c path =
  let storage = c.core.storage in
  (* exactly the segments the chain recorded, in order, each
     digest-verified against its reconstruction.  [Storage.read] answers
     [None] for a lost or corrupt segment as for a missing one, so the
     chain length — not the first unreadable name — ends the replay: a
     hole must fail the read, never resume the image before it *)
  let n =
    match Hashtbl.find_opt c.chains path with
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
