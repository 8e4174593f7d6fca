(** Checkpoint storage: an array of replicas.

    With [replication = 0] (the default) this is the paper's reliable
    "NFS mount point visible across the entire cluster": one replica
    that survives any node failure and takes no storage fault.

    With [replication = k >= 1] the mount is replaced by k-way
    replication across node-local stores: each path lives on k nodes
    chosen by a stable hash (never the writer's node while k < nodes),
    a node-local store dies with its node ({!fail_node}), and replica
    writes are subject to the {!Faults} storage fault classes (lost
    file, torn write, bit flip).

    Reads are digest-verified with read-repair — one good surviving
    replica restores full redundancy, and a read that finds no verifying
    copy returns [None] rather than corrupt bytes.

    Operations are charged network transfer time. *)

type t

val create :
  ?replication:int ->
  ?nodes:int ->
  ?faults:Faults.t ->
  ?metrics:Obs.Metrics.t ->
  Simnet.t ->
  t
(** [replication = 0] (default) builds the shared reliable store: one
    replica, ignoring [nodes] and [faults].  [replication >= 1] requires [nodes > 0]
    and builds one node-local store per node; the factor is clamped to
    the node count.  [metrics] receives [storage.repairs] and
    [storage.corrupt_reads]; a private registry is used when omitted. *)

val replication : t -> int
(** The effective replication factor; [0] for the shared mount. *)

val set_on_repair : t -> (path:string -> replicas:int -> unit) -> unit
(** Install a callback invoked after a read repairs one or more replicas
    (the cluster uses this to emit {!Obs.Trace.Storage_repair}). *)

val write : ?writer:int -> t -> string -> string -> float
(** [write t path data] stores [data] and returns the simulated seconds
    the write took.  The replicas are written in parallel (one transfer
    time regardless of k); with [replication >= 1] each replica write
    independently draws a storage-fault fate.  [writer] is the node the
    writing process runs on: while k < nodes no replica lands there, so
    the crash that kills the process leaves every replica standing.
    The path keeps the placement of its last write; reads, {!exists},
    {!size} and {!good_replicas} look there. *)

val read : t -> string -> (string * float) option
(** Contents and simulated read time, or [None] when the file is absent
    on — or fails digest verification at — every alive replica.  A read
    that succeeds repairs damaged or missing alive replicas from the
    good copy, charging one extra transfer per repair. *)

val exists : t -> string -> bool
(** Present on some alive replica (the copy may still fail verification
    at read time — existence is a metadata check). *)

val remove : t -> string -> unit

val list : t -> string list
(** All stored paths, sorted — listing order is deterministic across
    runs and OCaml versions.  Test introspection. *)

val size : t -> string -> int option
(** Stored byte size on the first alive replica (a torn replica reports
    its truncated size). *)

val fail_node : t -> int -> unit
(** Kill the node-local store on the given node: its replicas are gone
    for good.  No-op for the shared mount ([replication = 0]). *)

val good_replicas : t -> string -> int
(** Number of alive replicas whose bytes digest-verify; [1] or [0] for
    the shared mount.  The current redundancy level of the path.  Test
    introspection. *)
