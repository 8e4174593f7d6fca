(** FIR variables: immutable, globally unique by integer id (the name is
    kept for printing).  Uniqueness lets the optimizer substitute without
    capture.  Ids come from a process-wide counter; {!Serial} renumbers
    them by first occurrence, so they never reach the FIR bytes or the
    digest. *)

type t

val fresh : string -> t
(** A new variable with a globally fresh id. *)

val of_id : id:int -> name:string -> t
(** Rebuild a deserialized variable with its payload id; the global
    counter is bumped past [id] so later {!fresh} calls cannot collide
    with it.  Payload ids are small (1, 2, ... per program), so two
    decoded programs reuse each other's ids: they are unique within a
    program, which is all the optimizer and codegen rely on. *)

val id : t -> int
val name : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Table : Hashtbl.S with type key = t
