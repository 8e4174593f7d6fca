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

    Bounded LRU: at most [capacity] entries (0 disables the cache
    entirely), optionally also bounded by the total cached instruction
    count. *)

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
  e_instrs : int;
  mutable e_tick : int;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable insertions : int;
}
(** Historical view: a snapshot built from the metrics registry at call
    time (see {!stats}). *)

type t

val create : ?max_instrs:int -> capacity:int -> unit -> t
(** [capacity <= 0] disables the cache: finds miss silently, adds are
    dropped, and no statistics accumulate. *)

val enabled : t -> bool
val find : t -> digest:string -> arch:string -> trusted:bool -> entry option
(** Records a hit or a miss and refreshes the entry's LRU stamp. *)

val add :
  t ->
  digest:string -> arch:string -> trusted:bool ->
  program:Fir.Ast.program ->
  code:(code, string) result ->
  unit
(** Admit (or replace) an entry, then evict least-recently-used entries
    until the bounds hold again. *)

val invalidate : t -> digest:string -> unit
(** Drop every entry for the digest, across architectures and modes. *)

val clear : t -> unit

val stats : t -> stats
(** A snapshot of the registry counters in the historical record shape;
    mutating the returned record has no effect on the cache. *)

val metrics : t -> Obs.Metrics.t
(** The live registry: counters [codecache.lookups], [codecache.hits],
    [codecache.misses], [codecache.evictions], [codecache.insertions]. *)

val lookups : t -> int
(** Total lookups against an enabled cache; by construction
    [lookups = hits + misses]. *)

val length : t -> int
val total_instrs : t -> int
val hit_rate : t -> float
val report : t -> string
(** One-line human-readable summary (entries, hits/misses, evictions). *)
