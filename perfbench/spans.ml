(* In-memory span recorder for the traced run.

   A span brackets one call the benchmark makes into a layer's public
   function: its name, host start and end, the enclosing span, and the id
   of the unit of work it belongs to (spans of one migration hop or one
   scheduler slice share an id).  Durations are read in reference
   seconds (see {!Clock}).  Recording is off by default: the
   untraced run pays one branch per wrapped call.  {!reset} starts the
   spans of a new batch and keeps the old ones in memory until the
   workload ends and {!write_jsonl} dumps them all. *)

type span = {
  idx : int;
  group : int;  (** shared by every span of one hop or scheduler slice *)
  name : string;
  parent : int;  (** [idx] of the enclosing span, [-1] at top level *)
  t0 : float;
  t1 : float;
  scale : float;
      (** host to reference seconds, from the last reference timing
          before the span ended (see {!Clock}) *)
}

let on = ref false
let recorded : span list ref = ref []
let next_idx = ref 0
let stack : int list ref = ref []
let group = ref 0

(* Spans of earlier batches, newest batch first, each in start order. *)
let archive : span list list ref = ref []

(* In start order. *)
let spans () = List.sort (fun a b -> compare a.idx b.idx) !recorded

let reset () =
  if !recorded <> [] then archive := spans () :: !archive;
  recorded := [];
  next_idx := 0;
  stack := [];
  group := 0

(* Start a new unit of work: later spans share its id. *)
let new_group () = incr group

let span name f =
  if not !on then f ()
  else begin
    let idx = !next_idx in
    incr next_idx;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := idx :: !stack;
    let t0 = Clock.now_s () in
    let finish () =
      let t1 = Clock.now_s () in
      stack := List.tl !stack;
      recorded :=
        { idx; group = !group; name; parent; t0; t1; scale = snd !Clock.last }
        :: !recorded
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* In reference seconds. *)
let dur s = (s.t1 -. s.t0) *. s.scale

let durations name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (dur s) else None)
    (spans ())

let total name = List.fold_left ( +. ) 0.0 (durations name)

(* Self time per span name: each span's duration minus the part its
   direct children cover, summed by name, in first-seen order. *)
let self_times () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (dur s
          +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    !recorded;
  let by_name = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let self =
        dur s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.idx)
      in
      match Hashtbl.find_opt by_name s.name with
      | Some v -> Hashtbl.replace by_name s.name (v +. self)
      | None ->
        Hashtbl.replace by_name s.name self;
        order := s.name :: !order)
    (spans ());
  List.rev_map (fun n -> n, Hashtbl.find by_name n) !order

(* Every batch's spans, one JSON object per line; [batch] numbers the
   traced batches from 0, [idx], [id] and [parent] are per batch. *)
let write_jsonl path =
  let oc = open_out path in
  List.iteri
    (fun batch spans ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"batch\":%d,\"idx\":%d,\"id\":%d,\"name\":\"%s\",\
             \"parent\":%d,\"t0\":%.9f,\"t1\":%.9f,\"scale\":%.9f}\n"
            batch s.idx s.group s.name s.parent s.t0 s.t1 s.scale)
        spans)
    (List.rev (if !recorded = [] then !archive else spans () :: !archive));
  close_out oc
