(* Checkpoint storage.

   Two modes, selected at construction:

   - [replication = 0] (the default) is the paper's "NFS mount point
     visible across the entire cluster": one reliable shared table whose
     files survive any node failure.  This is the stand-in the original
     experiments were built on and remains bit-for-bit identical to the
     pre-replication behaviour.

   - [replication = k >= 1] replaces the infallible mount with k-way
     replication across node-local stores.  A node-local store dies with
     its node ({!fail_node}), replica writes are subject to the storage
     fault classes in {!Faults} (lost file, torn write, bit flip), and
     every read is digest-verified: a replica whose bytes no longer
     match the digest recorded at write time is treated as absent.  When
     a read finds one good copy it repairs the damaged or missing
     replicas from it (read-repair), so a single surviving replica is
     enough to restore full redundancy.

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

type mode =
  | Shared of (string, entry) Hashtbl.t
  | Replicated of replica array

type t = {
  mode : mode;
  k : int; (* replication factor; 0 = shared mode *)
  net : Simnet.t;
  faults : Faults.t option;
  c_repairs : Obs.Metrics.counter;
  c_corrupt : Obs.Metrics.counter;
  mutable on_repair : (path:string -> replicas:int -> unit) option;
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
  let mode =
    if replication <= 0 then Shared (Hashtbl.create 16)
    else if nodes <= 0 then
      invalid_arg "Storage.create: replication requires nodes > 0"
    else
      Replicated
        (Array.init nodes (fun _ ->
             { r_files = Hashtbl.create 16; r_alive = true }))
  in
  let k = if replication <= 0 then 0 else min replication nodes in
  {
    mode;
    k;
    net;
    faults;
    c_repairs;
    c_corrupt;
    on_repair = None;
  }

let set_on_repair t f = t.on_repair <- Some f

let replication t = t.k

(* The k distinct nodes a path's replicas live on, in preference order. *)
let placement t path =
  match t.mode with
  | Shared _ -> []
  | Replicated reps ->
    let n = Array.length reps in
    let base = path_hash path mod n in
    List.init (min t.k n) (fun i -> (base + i) mod n)

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

(* Returns the simulated seconds the operation took. *)
let write t path data =
  (match t.mode with
  | Shared files ->
    Hashtbl.replace files path { e_data = data; e_digest = digest_of data };
    Simnet.record_transfer t.net (String.length data)
  | Replicated reps ->
    let digest = digest_of data in
    List.iter
      (fun nid ->
        let r = reps.(nid) in
        if r.r_alive then begin
          Simnet.record_transfer t.net (String.length data);
          match damage t.faults data with
          | None ->
            (* lost file: the write was acknowledged but nothing (not
               even a previous version) remains on this replica *)
            Hashtbl.remove r.r_files path
          | Some stored ->
            Hashtbl.replace r.r_files path
              { e_data = stored; e_digest = digest }
        end)
      (placement t path));
  Simnet.transfer_seconds t.net (String.length data)

let verified e =
  if String.equal (digest_of e.e_data) e.e_digest then Some e.e_data
  else None

let read t path =
  match t.mode with
  | Shared files -> (
    match Hashtbl.find_opt files path with
    | Some e ->
      Simnet.record_transfer t.net (String.length e.e_data);
      Some (e.e_data, Simnet.transfer_seconds t.net (String.length e.e_data))
    | None -> None)
  | Replicated reps -> (
    let places = placement t path in
    let good = ref None in
    let saw_corrupt = ref false in
    List.iter
      (fun nid ->
        let r = reps.(nid) in
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
      let seconds =
        ref (Simnet.transfer_seconds t.net (String.length data))
      in
      (* read-repair: restore every alive replica that is missing the
         file or holds a damaged copy (repairs ship verified bytes and
         are not themselves subject to write faults) *)
      let digest = digest_of data in
      let repaired = ref 0 in
      List.iter
        (fun nid ->
          let r = reps.(nid) in
          if r.r_alive then
            let healthy =
              match Hashtbl.find_opt r.r_files path with
              | Some e -> verified e <> None
              | None -> false
            in
            if not healthy then begin
              Hashtbl.replace r.r_files path
                { e_data = data; e_digest = digest };
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
      Some (data, !seconds))

let exists t path =
  match t.mode with
  | Shared files -> Hashtbl.mem files path
  | Replicated reps ->
    List.exists
      (fun nid ->
        reps.(nid).r_alive && Hashtbl.mem reps.(nid).r_files path)
      (placement t path)

let remove t path =
  match t.mode with
  | Shared files -> Hashtbl.remove files path
  | Replicated reps ->
    Array.iter (fun r -> Hashtbl.remove r.r_files path) reps

(* Sorted: Hashtbl.fold order is unspecified and differs across OCaml
   versions, and callers compare listings across runs. *)
let list t =
  let keys tbl = Hashtbl.fold (fun path _ acc -> path :: acc) tbl [] in
  let paths =
    match t.mode with
    | Shared files -> keys files
    | Replicated reps ->
      Array.to_list reps
      |> List.concat_map (fun r -> if r.r_alive then keys r.r_files else [])
      |> List.sort_uniq String.compare
  in
  List.sort String.compare paths

let size t path =
  match t.mode with
  | Shared files ->
    Option.map (fun e -> String.length e.e_data) (Hashtbl.find_opt files path)
  | Replicated reps ->
    List.find_map
      (fun nid ->
        let r = reps.(nid) in
        if r.r_alive then
          Option.map
            (fun e -> String.length e.e_data)
            (Hashtbl.find_opt r.r_files path)
        else None)
      (placement t path)

let fail_node t node_id =
  match t.mode with
  | Shared _ -> ()
  | Replicated reps ->
    if node_id >= 0 && node_id < Array.length reps then
      reps.(node_id).r_alive <- false

(* Alive replicas of [path] whose bytes still verify — the current
   redundancy level, used by tests and the availability bench. *)
let good_replicas t path =
  match t.mode with
  | Shared files -> if Hashtbl.mem files path then 1 else 0
  | Replicated reps ->
    List.fold_left
      (fun acc nid ->
        let r = reps.(nid) in
        match Hashtbl.find_opt r.r_files path with
        | Some e when r.r_alive && verified e <> None -> acc + 1
        | _ -> acc)
      0 (placement t path)
