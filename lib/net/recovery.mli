(** Failure and recovery (paper, Figure 2): a node failure retires its
    processes and rolls back everyone who consumed their speculative
    messages; the resurrection daemon executes a checkpoint under the
    dead rank's next incarnation.  Also the unified move, which
    dispatches a {!Cluster_types.Move.request} to live shipping or to
    resurrection and counts it by reason. *)

open Cluster_types

type t

val create :
  Cluster_core.t -> Spec_graph.t -> Shipping.t -> Checkpoint.t -> t

val fail_node : t -> int -> unit
(** Kill a node: its processes trap, their dependents roll back, the
    transactions they coordinated abort, and survivors polling their
    ranks observe MSG_ROLL. *)

val move : t -> Move.request -> (Move.outcome, migration_error) result
