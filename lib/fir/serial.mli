(** Canonical binary serialization of FIR programs — the payload migration
    actually ships (the target re-typechecks and recompiles it; machine
    code never travels, paper Section 4.2.2).

    Fixed-width little-endian integers, length-prefixed strings, one tag
    byte per constructor, an Adler-32 checksum over the body, and a
    version stamp.  {!decode} fails cleanly on corruption.

    The primitive readers/writers are exposed: the MASM and process-image
    codecs ({!Vm.Masm}, {!Migrate.Wire}) are built from the same
    toolkit. *)

exception Corrupt of string

val magic : string
val version : int

(** {2 Primitive writers} *)

val put_u8 : Buffer.t -> int -> unit
val put_i64 : Buffer.t -> int -> unit
val put_f64_exact : Buffer.t -> float -> unit
(** Exact bit pattern, split across two fields (OCaml ints are 63-bit). *)

val put_f64_bits : Buffer.t -> float -> unit
(** Compact 8-byte exact encoding. *)

val put_string : Buffer.t -> string -> unit
val put_bool : Buffer.t -> bool -> unit
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

val put_uvarint : Buffer.t -> int -> unit
(** LEB128: 1 byte for values < 128, up to 9 bytes for the full 63-bit
    pattern (negative ints encode as their raw bit pattern). *)

val put_varint : Buffer.t -> int -> unit
(** Zigzag + LEB128: small magnitudes of either sign stay short — the
    heap-segment cell encoding of {!Migrate.Wire}. *)

(** {2 Primitive readers} *)

type reader = { data : string; mutable pos : int }

val get_u8 : reader -> int
val get_i64 : reader -> int
val get_f64_exact : reader -> float
val get_f64_bits : reader -> float
val get_string : reader -> string
val get_bool : reader -> bool
val get_list : reader -> (reader -> 'a) -> 'a list
val get_uvarint : reader -> int
val get_varint : reader -> int

val adler32 : string -> int

val adler32_range : Bytes.t -> off:int -> len:int -> int
(** Adler-32 of [len] bytes from [off]; [adler32 s] is the whole string's.
    @raise Invalid_argument if the range is not inside the bytes. *)

(** {2 Frames}

    FIR, MASM and process images share one frame: a 4-byte magic, the
    version, the body's Adler-32 and the body length as 8-byte
    little-endian words ({!frame_bytes} in all), then the body.  A frame
    is the whole input: {!unframe} rejects bytes after the body. *)

val frame_bytes : int

val seal : magic:string -> version:int -> Bytes.t -> len:int -> string
(** [seal ~magic ~version b ~len]: [b]'s bytes
    [\[frame_bytes, frame_bytes + len)] hold a body; fill in the header in
    front of it and return the frame (a copy only when [b] is longer than
    the frame — [b] must not be used afterwards). *)

val frame : magic:string -> version:int -> Buffer.t -> string
(** Frame a body held in a buffer. *)

val unframe : magic:string -> version:int -> what:string -> string -> reader
(** Check a frame's magic, version, length and checksum and return a
    reader at the start of its body, which runs to the end of the input.
    [what] names the format in error messages.
    @raise Corrupt on a bad magic, version, length or checksum, or on
    bytes after the body. *)

val encoded_digest : string -> string
(** 64-bit FNV-1a content digest of already-encoded bytes, as a 16-char
    hex string — the content address of a FIR payload.  A migration
    server can digest received bytes without decoding them first; see
    {!Digest} for the program-level API. *)

(** {2 Streaming FNV-1a}

    [encoded_digest s] is
    [fnv_hex (fnv_feed fnv_basis s ~off:0 ~len:(String.length s))]; a
    digest over several byte ranges feeds them in order. *)

val fnv_basis : int64
val fnv_feed : int64 -> string -> off:int -> len:int -> int64
(** Continue a running hash over [len] bytes of the string from [off].
    @raise Invalid_argument if the range is not inside the string. *)

val fnv_hex : int64 -> string

(** {2 Shared operator codes} *)

val unop_code : Ast.unop -> int
val unop_of_code : int -> Ast.unop
val binop_code : Ast.binop -> int
val binop_of_code : int -> Ast.binop
val put_ty : Buffer.t -> Types.ty -> unit
val get_ty : reader -> Types.ty

(** {2 Programs} *)

val encode : Ast.program -> string
val decode : string -> Ast.program
(** @raise Corrupt on bad magic, version, length or checksum, bytes after
    the frame, or trailing garbage inside the body. *)
