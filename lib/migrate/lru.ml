(* A bounded LRU table.  Every use stamps the entry from a logical clock;
   eviction scans for the stalest stamp.  The daemon's caches hold tens
   of entries, so O(n) eviction is simpler than a linked list and never
   shows up in a profile. *)

type 'v slot = { value : 'v; mutable stamp : int }

type ('k, 'v) t = {
  capacity : int;
  table : ('k, 'v slot) Hashtbl.t;
  mutable clock : int;
}

let create capacity = { capacity; table = Hashtbl.create 16; clock = 0 }
let capacity t = t.capacity
let length t = Hashtbl.length t.table
let mem t key = Hashtbl.mem t.table key

let stamp t slot =
  t.clock <- t.clock + 1;
  slot.stamp <- t.clock

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some slot ->
    stamp t slot;
    Some slot.value
  | None -> None

let evict_stalest t =
  let stalest =
    Hashtbl.fold
      (fun key slot acc ->
        match acc with
        | Some (_, s) when s <= slot.stamp -> acc
        | _ -> Some (key, slot.stamp))
      t.table None
  in
  Option.iter (fun (key, _) -> Hashtbl.remove t.table key) stalest

let add t key value =
  if t.capacity <= 0 then 0
  else begin
    let slot = { value; stamp = 0 } in
    stamp t slot;
    Hashtbl.replace t.table key slot;
    let evicted = ref 0 in
    while Hashtbl.length t.table > t.capacity do
      evict_stalest t;
      incr evicted
    done;
    !evicted
  end

let fold f t acc = Hashtbl.fold (fun key slot acc -> f key slot.value acc) t.table acc
