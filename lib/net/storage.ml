(* Checkpoint storage: an array of replicas, each a table of files.

   - [replication = 0] (the default) is the paper's "NFS mount point
     visible across the entire cluster": one replica, at index 0, that
     never dies ({!fail_node} spares it) and never takes a storage fault
     (it is built without a fault runtime, so its writes draw nothing).
     This is the stand-in the original experiments were built on.

   - [replication = k >= 1] replaces the infallible mount with k-way
     replication across node-local stores, one replica per node.  A
     node-local store dies with its node ({!fail_node}), replica writes
     are subject to the storage fault classes in {!Faults} (lost file,
     torn write, bit flip).  A write that names its writer's node puts
     no replica there while k < nodes: the crash that kills a process
     would otherwise take one copy of its checkpoint with it.  Each
     path remembers where its last write placed it, so reads follow.

   Every read is digest-verified: a replica whose bytes no longer match
   the digest recorded at write time is treated as absent.  When a read
   finds one good copy it repairs the damaged or missing replicas from
   it (read-repair), so a single surviving replica is enough to restore
   full redundancy.  The shared replica is never damaged, so for it the
   check costs host time only.

   Reads and writes are charged network transfer time through the
   simulated network.  Replica writes happen in parallel, so a logical
   write costs one transfer time regardless of k; a repairing read costs
   the read plus one transfer per replica repaired. *)

type entry = {
  e_data : string;
  e_digest : string;
      (* digest of the ORIGINAL bytes, recorded before any write fault
         is applied — so a torn or flipped replica fails verification *)
}

type replica = {
  r_files : (string, entry) Hashtbl.t;
  mutable r_alive : bool;
}

type t = {
  reps : replica array;
  k : int; (* replication factor; 0 = the shared mount *)
  net : Simnet.t;
  faults : Faults.t option;
  c_repairs : Obs.Metrics.counter;
  c_corrupt : Obs.Metrics.counter;
  mutable on_repair : (path:string -> replicas:int -> unit) option;
  placed : (string, int list) Hashtbl.t; (* path -> its last write's nodes *)
}

let digest_of = Fir.Digest.of_encoded

(* FNV-1a over the path: replica placement must be stable across OCaml
   versions (Hashtbl.hash is not guaranteed to be). *)
let path_hash path =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    path;
  !h

let create ?(replication = 0) ?(nodes = 0) ?faults ?metrics net =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let c_repairs = Obs.Metrics.counter metrics "storage.repairs" in
  let c_corrupt = Obs.Metrics.counter metrics "storage.corrupt_reads" in
  let replica () = { r_files = Hashtbl.create 16; r_alive = true } in
  let reps, k, faults =
    if replication <= 0 then ([| replica () |], 0, None)
    else if nodes <= 0 then
      invalid_arg "Storage.create: replication requires nodes > 0"
    else (Array.init nodes (fun _ -> replica ()), min replication nodes, faults)
  in
  { reps; k; net; faults; c_repairs; c_corrupt; on_repair = None;
    placed = Hashtbl.create 16 }

let set_on_repair t f = t.on_repair <- Some f

let replication t = t.k

(* The distinct replicas a path is placed on, in preference order: k
   nodes from the path's hash on, skipping [avoid] while there are more
   than k nodes; or the one shared replica. *)
let choose ?avoid t path =
  let n = Array.length t.reps in
  let base = path_hash path mod n in
  let skip nid = t.k > 0 && t.k < n && Some nid = avoid in
  List.init n (fun i -> (base + i) mod n)
  |> List.filter (fun nid -> not (skip nid))
  |> List.filteri (fun i _ -> i < max 1 t.k)

(* Where [path] lives: where its last write put it. *)
let placement t path =
  match Hashtbl.find_opt t.placed path with
  | Some places -> places
  | None -> choose t path

let damage faults data =
  match faults with
  | None -> Some data
  | Some f -> (
    match Faults.on_store_write f with
    | `Ok -> Some data
    | `Lost -> None
    | `Torn frac ->
      let keep = int_of_float (frac *. float_of_int (String.length data)) in
      Some (String.sub data 0 (min keep (String.length data)))
    | `Flip frac ->
      let len = String.length data in
      if len = 0 then Some data
      else begin
        let pos = min (len - 1) (int_of_float (frac *. float_of_int len)) in
        let b = Bytes.of_string data in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
        Some (Bytes.to_string b)
      end)

(* Returns the simulated seconds the operation took.  A write without
   a writer keeps the path where it is. *)
let write ?writer t path data =
  let digest = digest_of data in
  let places =
    match writer with
    | Some w -> choose ~avoid:w t path
    | None -> placement t path
  in
  (* a replica the path moved off drops its stale copy *)
  List.iter
    (fun nid ->
      if not (List.mem nid places) then
        Hashtbl.remove t.reps.(nid).r_files path)
    (placement t path);
  Hashtbl.replace t.placed path places;
  List.iter
    (fun nid ->
      let r = t.reps.(nid) in
      if r.r_alive then begin
        Simnet.record_transfer t.net (String.length data);
        match damage t.faults data with
        | None ->
          (* lost file: the write was acknowledged but nothing (not
             even a previous version) remains on this replica *)
          Hashtbl.remove r.r_files path
        | Some stored ->
          Hashtbl.replace r.r_files path { e_data = stored; e_digest = digest }
      end)
    places;
  Simnet.transfer_seconds t.net (String.length data)

let verified e =
  if String.equal (digest_of e.e_data) e.e_digest then Some e.e_data
  else None

let read t path =
  let places = placement t path in
  let good = ref None in
  let saw_corrupt = ref false in
  List.iter
    (fun nid ->
      let r = t.reps.(nid) in
      if r.r_alive && !good = None then
        match Hashtbl.find_opt r.r_files path with
        | None -> ()
        | Some e -> (
          match verified e with
          | Some data -> good := Some data
          | None -> saw_corrupt := true))
    places;
  match !good with
  | None ->
    if !saw_corrupt then Obs.Metrics.incr t.c_corrupt;
    None
  | Some data ->
    Simnet.record_transfer t.net (String.length data);
    let seconds = ref (Simnet.transfer_seconds t.net (String.length data)) in
    (* read-repair: restore every alive replica that is missing the file
       or holds a damaged copy (repairs ship verified bytes and are not
       themselves subject to write faults) *)
    let digest = digest_of data in
    let repaired = ref 0 in
    List.iter
      (fun nid ->
        let r = t.reps.(nid) in
        if r.r_alive then
          let healthy =
            match Hashtbl.find_opt r.r_files path with
            | Some e -> verified e <> None
            | None -> false
          in
          if not healthy then begin
            Hashtbl.replace r.r_files path { e_data = data; e_digest = digest };
            Obs.Metrics.incr t.c_repairs;
            incr repaired;
            Simnet.record_transfer t.net (String.length data);
            seconds :=
              !seconds +. Simnet.transfer_seconds t.net (String.length data)
          end)
      places;
    (match t.on_repair with
    | Some f when !repaired > 0 -> f ~path ~replicas:!repaired
    | Some _ | None -> ());
    Some (data, !seconds)

let exists t path =
  List.exists
    (fun nid -> t.reps.(nid).r_alive && Hashtbl.mem t.reps.(nid).r_files path)
    (placement t path)

let remove t path =
  Array.iter (fun r -> Hashtbl.remove r.r_files path) t.reps;
  Hashtbl.remove t.placed path

(* Sorted: Hashtbl.fold order is unspecified and differs across OCaml
   versions, and callers compare listings across runs. *)
let list t =
  let keys tbl = Hashtbl.fold (fun path _ acc -> path :: acc) tbl [] in
  Array.to_list t.reps
  |> List.concat_map (fun r -> if r.r_alive then keys r.r_files else [])
  |> List.sort_uniq String.compare

let size t path =
  List.find_map
    (fun nid ->
      let r = t.reps.(nid) in
      if r.r_alive then
        Option.map
          (fun e -> String.length e.e_data)
          (Hashtbl.find_opt r.r_files path)
      else None)
    (placement t path)

(* The shared replica survives every node failure. *)
let fail_node t node_id =
  if t.k > 0 && node_id >= 0 && node_id < Array.length t.reps then
    t.reps.(node_id).r_alive <- false

(* Alive replicas of [path] whose bytes still verify — the current
   redundancy level, used by tests and the availability bench. *)
let good_replicas t path =
  List.fold_left
    (fun acc nid ->
      let r = t.reps.(nid) in
      match Hashtbl.find_opt r.r_files path with
      | Some e when r.r_alive && verified e <> None -> acc + 1
      | _ -> acc)
    0 (placement t path)
