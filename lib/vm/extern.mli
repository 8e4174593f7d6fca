(** External functions provided by the base runtime: output (to the
    process's buffer), deterministic randomness, clocks, GC and
    speculation introspection, and the simulated-work charge.  Host
    environments extend the set (the simulated cluster adds message
    passing and the fault-injected object store) and chain handlers with
    {!combine}. *)

val base_signatures : (string * (Fir.Types.ty list * Fir.Types.ty)) list

val signature_lookup :
  (string * (Fir.Types.ty list * Fir.Types.ty)) list ->
  Fir.Typecheck.extern_lookup
(** [signature_lookup extra] resolves [extra] first, then the base set. *)

val signatures : Fir.Typecheck.extern_lookup
(** The base set only (the default for strict typechecking). *)

val base : Process.handler

exception Absent
(** Raised by a handler that does not define the called name, so that
    {!combine} can try the next one.  It is distinct from
    {!Process.Extern_failure}, which is a known extern's own failure.
    The last handler of a chain (such as {!base}) raises
    [Extern_failure "unknown extern <name>"] instead. *)

val combine : Process.handler -> Process.handler -> Process.handler
(** [combine first fallback]: [first] wins.  Only {!Absent} from
    [first] falls through to [fallback]; a failure [first] raises for a
    name it knows traps with that failure's message. *)
