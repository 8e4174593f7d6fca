(** Content digest of a FIR program: 64-bit FNV-1a over the canonical
    {!Serial} encoding, as a 16-char hex string.

    The digest is a content address up to binder renaming: the encoding
    numbers variables by first occurrence, not by their process-wide
    {!Var} ids, so it depends only on the program's structure and names,
    and one source compiled twice digests alike.  The recompilation cache
    ({!Migrate.Codecache}) keys compiled code by it, and process images
    ({!Migrate.Wire} v6) carry it so the receiver can cheaply confirm the
    FIR payload is the one the sender digested.  It is integrity
    metadata, not a trust primitive: verification and typechecking still
    run on every cache miss. *)

val of_program : Ast.program -> string
(** Digest of the program's canonical encoding. *)

val of_encoded : string -> string
(** Digest of already-encoded bytes (equals {!of_program} of the decoded
    program); lets a server digest a received payload without decoding. *)

val hex_length : int
(** Length of the hex digest string (16). *)
