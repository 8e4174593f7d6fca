(** The metrics registry: named counters, gauges and bucketed histograms
    with p50/p90/p99 estimates.

    The one place modules count: {!Net.Simnet} traffic,
    {!Migrate.Codecache} / {!Migrate.Server} hit counts, the speculation
    engine's operation counts and the collector's totals each live in a
    registry, and every consumer — tests, [mcc serve --metrics], the
    benchmark tables — reads the registry directly.

    Registration is idempotent: asking for an existing name returns the
    existing metric.  Asking for an existing name with a different kind
    raises [Invalid_argument]. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

(** {2 Registration (idempotent)} *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val histogram : ?buckets:float array -> t -> string -> histogram
(** [buckets] are strictly increasing upper bounds; observations above
    the last bound land in an overflow bucket.  The default is a
    half-decade geometric grid from 1e-6 to 1e9. *)

val default_buckets : float array

(** {2 Recording} *)

val incr : ?by:int -> counter -> unit
val count : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float
val observe : histogram -> float -> unit

(** {2 Histogram queries} *)

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_mean : histogram -> float
val hist_min : histogram -> float
val hist_max : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]: the upper bound of the bucket
    holding the q-th observation, clamped to the observed extrema.
    [0.0] when empty. *)

(** {2 Registry-level queries} *)

val names : t -> string list
(** Registered names, oldest first. *)

val mem : t -> string -> bool

val counter_value : t -> string -> int
(** [0] when the name is unregistered. *)

val gauge_read : t -> string -> float
val find_histogram : t -> string -> histogram option
val hist_sum_of : t -> string -> float

val render : t -> string
(** One human-readable line per metric, in registration order. *)
