(** External functions: one table per host environment.

    An entry holds an extern's name, signature and implementation, so
    the typechecker hook ({!lookup}) and the runtime {!handler} read
    the same fact.  A call traps ([Process.Extern_failure]) with
    ["unknown extern <name>"] for a name the table lacks, with
    ["extern <name>: bad arguments (<args>)"] when the implementation
    calls {!bad_arguments}, and with ["<name>: <cause>"] when it calls
    [fail cause].

    The base entries: output (to the process's buffer), deterministic
    randomness, clocks, GC and speculation introspection, and the
    simulated-work charge. *)

open Runtime

type 'h entry = {
  name : string;
  args : Fir.Types.ty list;
  result : Fir.Types.ty;
  run : 'h -> Process.t -> Value.t list -> Value.t;
      (** the implementation, given the host's state *)
}

type 'h table

val bad_arguments : unit -> 'a
val fail : string -> 'a
val ext : string -> Fir.Types.ty list -> Fir.Types.ty ->
  ('h -> Process.t -> Value.t list -> Value.t) -> 'h entry

val table : 'h entry list -> 'h table
(** @raise Invalid_argument if two entries share a name. *)

val lookup : 'h table -> Fir.Typecheck.extern_lookup
val handler : 'h table -> 'h -> Process.handler
val names : 'h table -> string list (* sorted *)

val entries : unit -> 'h entry list
val signatures : Fir.Typecheck.extern_lookup
val base : Process.handler
(** The base entries (they ignore the host state), and their table's
    signatures and handler. *)
