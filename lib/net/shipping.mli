(** Migration shipping: pack a process, choose a full image or a delta
    over a negotiated baseline, transmit it hop by hop under the retry
    policy, deliver it idempotently to the target daemon, and install
    the successor (the move commit every initiator shares).  Also the
    storage side of the same images: suspend files and incremental
    checkpoint chains.  It owns the checkpoint chains, the hop envelope
    ids, the migration records and the delta-shipping ledger. *)

open Cluster_types

type retry = {
  max_attempts : int;
  hop_timeout_s : float;
  backoff_base_s : float;
  backoff_factor : float;
}

val default_retry : retry
(** The policy every hop runs under (see [Cluster.Config.default_retry]). *)

type t

val create :
  Cluster_core.t -> Spec_graph.t -> trusted:bool -> delta:bool ->
  forward_ttl_s:float -> t

val migrations : t -> migration_record list
(** Every image shipped or stored, oldest first. *)

val handle_migration : t -> entry -> unit
(** Serve a process that stopped at a migration point: migrate to a
    node, suspend or checkpoint to the store, or refuse the target. *)

val move_running :
  t -> pid:int -> node_id:int -> (migration_report, migration_error) result
(** Host-initiated live migration of a running process; on failure it
    keeps running where it was. *)
