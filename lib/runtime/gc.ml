(* Generational, mark-sweep, compacting collection (paper, Section 4).

   Two phases, as in MCC: a fast minor collection that eliminates blocks
   with short live ranges (it only examines the young region), and a major
   collection that sweeps and compacts the entire heap.  Compaction slides
   live blocks towards low addresses in allocation order, preserving
   temporal locality (blocks allocated near each other in time stay near
   each other in memory).  It is possible at all because the pointer table
   gives every block exactly one relocation slot: moving a block updates
   one table entry and zero heap cells.

   Interaction with speculation (paper: "tightly integrated with the
   garbage collector"): checkpoint records reference the ORIGINAL copies of
   modified blocks by address.  The collector treats those originals as
   pinned roots — it marks them, scans their contents, and reports their
   new addresses in the [forward] map so the speculation engine can rewrite
   its records after a collection.  The current pointer-table target of a
   recorded index is marked as well, so a recorded index can never be freed
   and reused while a rollback could still restore it. *)

type kind = Minor | Major

type result = {
  kind : kind;
  forward : (int, int) Hashtbl.t; (* old block address -> new block address *)
  live_blocks : int;
  collected_blocks : int;
  collected_cells : int;
}

(* Process-global collection metrics.  Heaps are per-process but the
   collector itself is a library, so the registry is module-global: every
   collection in the program lands here (the cluster additionally
   attributes collections to nodes through the per-process [on_gc] hook in
   Vm.Process). *)
let metrics = Obs.Metrics.create ()
let c_minor = Obs.Metrics.counter metrics "gc.minor_collections"
let c_major = Obs.Metrics.counter metrics "gc.major_collections"
let c_collected_blocks = Obs.Metrics.counter metrics "gc.collected_blocks"
let c_collected_cells = Obs.Metrics.counter metrics "gc.collected_cells"
let h_live = Obs.Metrics.histogram metrics "gc.live_blocks"

let flag_marked = 1

(* [pinned] is the concatenation of all speculation levels' checkpoint
   records: (pointer-table index, original block address) pairs. *)
let collect heap ~kind ~roots ~pinned =
  let ptable = Heap.pointer_table heap in
  let lo = match kind with Minor -> heap.Heap.young_start | Major -> 0 in
  let hi = heap.Heap.alloc_ptr in
  let in_region addr = addr >= lo && addr < hi in
  let worklist = ref [] in
  let mark addr =
    if in_region addr && Heap.block_flags_at heap addr land flag_marked = 0
    then begin
      Heap.set_block_flags_at heap addr
        (Heap.block_flags_at heap addr lor flag_marked);
      worklist := addr :: !worklist
    end
  in
  let trace_value v =
    match Value.pointer_index v with
    | Some j when Pointer_table.is_valid ptable j ->
      mark (Pointer_table.get ptable j)
    | Some _ | None -> ()
  in
  (* roots: register / continuation values *)
  List.iter trace_value roots;
  (* pinned: speculation originals and the current targets of their
     indices *)
  List.iter
    (fun (idx, old_addr) ->
      mark old_addr;
      if Pointer_table.is_valid ptable idx then
        mark (Pointer_table.get ptable idx))
    pinned;
  (* minor collections additionally root through the remembered set: old
     blocks into which young references were stored *)
  (match kind with
  | Minor ->
    List.iter
      (fun idx ->
        if Pointer_table.is_valid ptable idx then begin
          let addr = Pointer_table.get ptable idx in
          let size = Heap.block_size_at heap addr in
          for k = 0 to size - 1 do
            trace_value heap.Heap.store.(addr + Heap.header_cells + k)
          done
        end)
      (Heap.remembered_indices heap)
  | Major -> ());
  (* transitive marking *)
  let rec drain () =
    match !worklist with
    | [] -> ()
    | addr :: rest ->
      worklist := rest;
      let size = Heap.block_size_at heap addr in
      for k = 0 to size - 1 do
        trace_value heap.Heap.store.(addr + Heap.header_cells + k)
      done;
      drain ()
  in
  drain ();
  (* sweep and compact [lo, hi) *)
  let forward = Hashtbl.create 256 in
  let dst = ref lo in
  let live = ref 0 and dead = ref 0 and dead_cells = ref 0 in
  let addr = ref lo in
  while !addr < hi do
    let size = Heap.block_size_at heap !addr in
    let footprint = Heap.header_cells + size in
    let idx = Heap.block_index_at heap !addr in
    if Heap.block_flags_at heap !addr land flag_marked <> 0 then begin
      (* live: clear the mark, slide down, fix the pointer table if this
         block is the current target of its index *)
      Heap.set_block_flags_at heap !addr
        (Heap.block_flags_at heap !addr land lnot flag_marked);
      if !dst <> !addr then begin
        Array.blit heap.Heap.store !addr heap.Heap.store !dst footprint;
        Hashtbl.replace forward !addr !dst;
        if Pointer_table.is_valid ptable idx
           && Pointer_table.get ptable idx = !addr
        then Pointer_table.set ptable idx !dst
      end;
      dst := !dst + footprint;
      incr live
    end
    else begin
      (* dead: if the pointer table still targets this block, the index
         itself is dead — free the entry for reuse, and forget its dirty
         pages (the delta layer's dirty set is keyed by index, which is
         stable across the compaction slide; freeing is the only event it
         must observe — a later reuse of the slot re-marks on alloc) *)
      if Pointer_table.is_valid ptable idx
         && Pointer_table.get ptable idx = !addr
      then begin
        Pointer_table.free ptable idx;
        Heap.drop_dirty heap idx
      end;
      incr dead;
      dead_cells := !dead_cells + footprint
    end;
    addr := !addr + footprint
  done;
  heap.Heap.alloc_ptr <- !dst;
  (* every survivor is promoted; the young region is now empty and the
     remembered set can be discarded *)
  heap.Heap.young_start <- !dst;
  Heap.clear_remembered heap;
  (match kind with
  | Minor -> Obs.Metrics.incr c_minor
  | Major -> Obs.Metrics.incr c_major);
  Obs.Metrics.incr ~by:!dead c_collected_blocks;
  Obs.Metrics.incr ~by:!dead_cells c_collected_cells;
  Obs.Metrics.observe h_live (float_of_int !live);
  {
    kind;
    forward;
    live_blocks = !live;
    collected_blocks = !dead;
    collected_cells = !dead_cells;
  }

(* Rewrite a recorded address through the forwarding map. *)
let forward_addr result addr =
  match Hashtbl.find_opt result.forward addr with
  | Some addr' -> addr'
  | None -> addr
