(** The placement policy engine's tick: once every {!Balance.period_s},
    sample the per-node load gauges and per-process charged cycles,
    plan with {!Balance}, and execute the proposals as [Policy] moves of
    running, non-stale registered services; it plans nothing while a
    move waits for its cut-over, nor at the tick after.  It owns the
    sampling baselines and the [balance.*] ledger. *)

type t

val create : Cluster_core.t -> Recovery.t -> Shipping.t -> t

val tick : t -> bool
(** Called at the end of every scheduling round; a no-op while the
    engine is disabled or between periods.  True when it moved a
    service (new work for the scheduler). *)
