(** Typed event tracing: an append-only log of timestamped events with
    a JSONL exporter.

    Events are stamped with SIMULATED time (the cluster's discrete-event
    clock, not wall-clock) plus node / pid / rank attribution, [-1]
    where not applicable.  The log keeps every event recorded, so an
    audit or an export covers the whole run. *)

type gc_kind = Minor | Major

type kind =
  | Spawn
  | Migrate_start of { target : string; bytes : int }
  | Migrate_done of {
      ok : bool;
      cache_hit : bool;
      bytes : int;
      pack_s : float;
      transfer_s : float;
      compile_s : float;
    }
  | Migrate_retry of {
      target : string;
      attempt : int;  (** the transmission that just failed, 1-based *)
      backoff_s : float;  (** sender waits this long before the next *)
      reason : string;  (** "lost" | "partitioned" *)
    }
  | Dup_delivery of { target : string }
      (** a duplicated migration hop arrived; the receiving daemon
          deduplicated it instead of double-spawning *)
  | Cache_hit
  | Cache_miss
  | Spec_enter of { uid : int; depth : int }
  | Spec_commit of { uid : int; durable : bool }
  | Spec_rollback of { uids : int list }
  | Forced_rollback of { level : int }
      (** a dependency cascade rolled this process back; [level < 0]
          means no level was left to restore (the process trapped) *)
  | Node_fail
  | Node_stall of { stall_s : float }  (** injected transient stall *)
  | Link_partition of { peer_a : int; peer_b : int; until_s : float }
      (** a scripted partition window opens; [until_s = infinity] never
          heals *)
  | Suspect of { subject : int; false_positive : bool }
      (** the failure detector suspected [subject]; [false_positive] is
          ground truth the detector itself never sees *)
  | Fenced of { stale_epoch : int; current_epoch : int; what : string }
      (** a stale incarnation was rejected at an interaction point
          ([what]: "schedule" | "send" | "recv" | "migrate" |
          "checkpoint" | "stale_msg") *)
  | Storage_repair of { path : string; replicas : int }
      (** a digest-verified read repaired [replicas] damaged or missing
          replicas of [path] *)
  | Checkpoint of { path : string; bytes : int }
  | Resurrect of { path : string; ok : bool }
  | Gc of { gc_kind : gc_kind; live : int; collected : int }
  | Msg_send of { dst : int; tag : int; cells : int }
  | Msg_recv of { src : int; tag : int; cells : int }
  | Msg_roll of { src : int }
  | Msg_drop of { dst : int; tag : int }
      (** injected fault made the message undeliverable *)
  | Msg_dup of { dst : int; tag : int }
      (** injected fault delivered the message twice *)
  | Service_bind of { laddr : int; new_rank : int; old_rank : int }
      (** a registered service was re-homed: its logical address now
          resolves to [new_rank]; [old_rank] forwards until its TTL *)
  | Msg_forward of { laddr : int; from_rank : int; to_rank : int }
      (** a message for the vacated rank [from_rank] was relayed one
          hop by its forwarder to [to_rank], [laddr]'s current rank *)
  | Recipient_moved of { laddr : int; new_rank : int }
      (** a sender consumed a moved notice and rebound its cached
          binding for [laddr] to [new_rank] *)
  | Forward_expired of { laddr : int; rank : int }
      (** a send resolved to a vacated rank whose forwarder TTL had
          passed; the sender got the typed MSG_MOVED error *)
  | Balance_tick of { spread : float; proposed : int; moved : int }
      (** the placement policy engine sampled load gauges: [spread] is
          max-min composite node load, [proposed] how many moves the
          planner emitted, [moved] how many committed.  Only recorded
          when the engine is enabled, so legacy traces are unchanged. *)
  | Dspec_open of { txn : int; uid : int }
      (** a process opened a distributed speculative transaction: its
          current level [uid] becomes the transaction's root region *)
  | Dspec_prepare of { txn : int; parts : int list }
      (** the coordinator started a commit round over participant pids *)
  | Dspec_fence of {
      txn : int;
      part_rank : int;
      stale_epoch : int;
      current_epoch : int;
    }
      (** a participant's recorded incarnation epoch was superseded; its
          prepare-ack is void and the transaction must abort (a zombie
          can never ack for a dead incarnation) *)
  | Dspec_commit of { txn : int; parts : int list }
      (** all participants acked at their recorded epochs; the decision
          is commit and every joined level may fold durably *)
  | Dspec_abort of { txn : int; parts : int list; reason : string }
      (** the decision is abort: every participant rolls back
          ([reason]: "fence" | "crash_in_commit" | "participant_dead" |
          "coordinator_dead" | "coordinator_rolled_back") *)
  | Dspec_compensate of { txn : int; discarded : int }
      (** mailbox compensation un-delivered [discarded] in-flight
          messages sent from the doomed region *)

type event = {
  time : float;  (** simulated seconds *)
  node : int;
  pid : int;
  rank : int;
  kind : kind;
}

type t

val create : unit -> t
val length : t -> int

val record :
  t -> time:float -> ?node:int -> ?pid:int -> ?rank:int -> kind -> unit

val events : t -> event list
(** In recording order, oldest first (monotone per node, not globally). *)

val timeline : t -> event list
(** Stably sorted by simulated time: one cluster-wide monotone timeline;
    recording order breaks ties. *)

val kind_label : kind -> string

val event_to_json : event -> string
(** One JSON object, no trailing newline. *)

val to_jsonl : t -> string
(** The {!timeline}, one JSON object per line. *)

val write_jsonl : t -> out_channel -> unit
