(** Checkpoint chains: the paper's migrate to storage (§2 Figure 2,
    §4.2).  A [suspend://path] image is one full, directly executable
    file.  A [checkpoint://path] chain is a full base image at [path]
    followed by delta segments [path.d1 .. path.dN], each over the image
    the one before it reconstructs; a chain past its length bound, or
    whose last image is not what the process's dirty set was tracked
    against, is rewritten in full and its stale segments dropped.  The
    delta choice, the baseline and the byte ledger are {!Shipping}'s;
    {!Storage} is the replicated store. *)

open Cluster_types

type t

val create : Cluster_core.t -> Shipping.t -> delta:bool -> t
(** Chains extend with delta segments only when [delta] is on. *)

val write : t -> entry -> string -> kind:[ `Suspend | `Checkpoint ] -> unit
(** Pack a process parked at a migration point and write it at [path]:
    a full image for [`Suspend] (the process then ends), a full image or
    the chain's next delta segment for [`Checkpoint] (the process pays
    and keeps running).  A stale incarnation is fenced instead.  Every
    image written counts once in [cluster.checkpoints], a suspend
    included: it is stored, not a landed move, so it stays out of
    [cluster.migrations_ok].

    "Written" means stored, not verified: {!Storage.write} has put the
    bytes on every replica, each under its storage-fault draw, and
    nothing reads them back.  A lost or damaged replica is found only
    when {!read} needs it. *)

val read : t -> string -> (Migrate.Wire.image * int * float, string) result
(** Read the chain stored at a path: the base image, then exactly the
    delta segments the chain recorded, replayed in order, each
    digest-verified against its reconstruction.  Returns the image the
    chain ends at, the bytes read and the simulated read seconds.
    Errors: ["no checkpoint <path>"], ["corrupt image: ..."],
    ["checkpoint segment K of N unreadable"] (missing, or every replica
    lost or corrupt), ["checkpoint segment K: ..."] and ["checkpoint
    segment K is not a delta image"]. *)
