(* FIR variables.

   Variables are immutable and globally unique by integer id; the name is
   kept only for printing.  Uniqueness is what lets the optimizer substitute
   without capture.  The ids come from one process-wide counter, so they
   record compile order, not content: [Serial] renumbers them by first
   occurrence, which keeps them out of the FIR bytes and the digest. *)

type t = { id : int; name : string }

let counter = ref 0

let fresh name =
  incr counter;
  { id = !counter; name }

(* Used by the deserializer to rebuild a variable with a known id.  The
   global counter is bumped past [id] so that subsequently generated fresh
   variables never collide with deserialized ones. *)
let of_id ~id ~name =
  if id > !counter then counter := id;
  { id; name }

let id v = v.id
let name v = v.name
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash v = v.id
let to_string v = Printf.sprintf "%s_%d" v.name v.id
let pp fmt v = Format.pp_print_string fmt (to_string v)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
