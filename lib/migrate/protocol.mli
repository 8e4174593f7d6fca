(** Migration protocols and target strings (paper, Section 4.2.1).

    The [migrate] pseudo-instruction's string argument selects the
    protocol:
    - ["mcc://host"]: ship the process to a migration server and
      terminate the source on success; continue locally on failure.
    - ["suspend://path"]: write the image to a file and terminate.
    - ["checkpoint://path"] (alias ["ckpt://"]): write the image and keep
      running. *)

type t =
  | Migrate_to of string  (** host name *)
  | Suspend_to of string  (** file / storage path *)
  | Checkpoint_to of string

exception Bad_target of string

val parse : string -> t
(** @raise Bad_target on an unparseable target. *)

val to_string : t -> string
(** The target string {!parse} reads back.  Test introspection. *)
