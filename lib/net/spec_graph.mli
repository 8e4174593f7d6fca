(** The cross-process speculation graph (paper, Section 2): a receiver
    of a speculative message joins the sender's speculation and rolls
    back with it.  It owns the dependency edges and the per-level undo
    logs of the object store and the shared-store files, and installs
    the speculation-engine hooks that keep them in step with every
    process's enters, commits and rollbacks.  Edges and logs are keyed
    by (pid, level uid). *)

open Vm
open Cluster_types

type t

val create : Cluster_core.t -> t

val register : t -> entry -> unit
(** {!Cluster_core.register} plus the entry's speculation hooks: a
    rollback cascades to its dependents (and aborts the distributed
    transaction it roots), a commit re-keys them into the parent level
    or dissolves them. *)

val add_dependency : t -> sender:int * int -> receiver:int * int -> unit
(** [receiver] consumed a message sent from inside [sender]'s level: it
    joins that level, and becomes a participant if the level roots an
    open distributed transaction. *)

val pending : t -> pid:int -> uid:int -> bool
(** Some sender's level still lists [pid]'s level [uid] as a dependent
    (the participant's pre-commit barrier, [spec_pending]). *)

val note_object_write : t -> Process.t -> int -> unit
(** Save the object's contents before the process's first write to it
    in its current level, so a rollback restores them. *)

val note_file_write : t -> Process.t -> string -> unit
(** The same for a shared-store file. *)

val cascade : t -> sender_pid:int -> uids:int list -> code:int -> int
(** Undo everything that depended on the given (rolled back or dead)
    levels of [sender_pid]: restore their object and file writes,
    discard their unconsumed messages from every mailbox, and force the
    consumers' rollback.  Returns how many queued messages were
    discarded — the compensation count a distributed abort reports. *)

val rekey_identity :
  t -> old_pid:int -> new_pid:int -> uid_map:(int * int) list -> unit
(** A migrated or resurrected process has a new pid and fresh level
    uids ([uid_map] pairs old with new, newest first): re-key every edge
    and log naming the old identity, and the policy engine's affinity
    row. *)

(** Deterministic table re-key (exposed for the regression suite):
    entries stably sorted by original key, colliding remapped keys
    merged in that canonical order — never in [Hashtbl.fold] order. *)
module Rekey : sig
  val merge : remap:('k -> 'j) -> ('k * 'v list) list -> ('j * 'v list) list
end
