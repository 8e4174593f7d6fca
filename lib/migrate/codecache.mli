(** Destination-side, content-addressed recompilation cache.

    Keyed by [(FIR digest, architecture name, verify mode)]; stores the
    locally-compiled {!Vm.Masm.image} and its closure-compiled form, the
    decoded program, and the typecheck verdict, so a repeated migration
    of the same program costs transfer + stub link instead of transfer +
    typecheck + codegen.

    The digest is integrity metadata, not a trust shortcut: the wire
    layer recomputes it over the received bytes before the cache is ever
    consulted, and a cache miss still runs the full untrusted-source
    typecheck.  The architecture in the key makes heterogeneous clusters
    safe by construction; the verify mode keeps entries admitted without
    a typecheck (trusted) from ever serving a verified request.

    Bounded LRU ({!Lru}): at most [capacity] entries (0 disables the
    cache entirely).  Counters live in the {!metrics} registry. *)

open Vm

type verify_mode = Verified | Trusted

type code = {
  masm : Masm.image;
  compiled : Compile.image;
      (** closure-compiled form of [masm].  The compiled image is
          process-independent, so warm migration hops resume straight
          into it without re-linking or re-compiling *)
}

type entry = {
  e_program : Fir.Ast.program;
  e_code : (code, string) result;
      (** the typecheck verdict at admission: the program's code when it
          passed, the rejection message for a negative entry *)
}

type t

val create : capacity:int -> unit -> t
(** [capacity <= 0] disables the cache: finds miss without counting and
    adds are dropped. *)

val find : t -> digest:string -> arch:string -> trusted:bool -> entry option
(** Records a lookup and a hit or a miss, and refreshes the entry's LRU
    stamp. *)

val mem : t -> digest:string -> arch:string -> trusted:bool -> bool
(** Whether an entry (a negative one included) is held.  Neither
    counted nor refreshed: the daemon's code offer asks it. *)

val add :
  t ->
  digest:string -> arch:string -> trusted:bool ->
  program:Fir.Ast.program ->
  code:(code, string) result ->
  unit
(** Admit (or replace) an entry, then evict least-recently-used entries
    until the capacity holds again. *)

val metrics : t -> Obs.Metrics.t
(** The registry: counters [codecache.lookups] (= hits + misses),
    [codecache.hits], [codecache.misses], [codecache.evictions],
    [codecache.insertions]. *)

val length : t -> int
(** Entries held.  Test introspection. *)

val report : t -> string
(** One-line human-readable summary (entries and their instruction
    total, hits/misses, evictions). *)
