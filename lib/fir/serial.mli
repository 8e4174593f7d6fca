(** Canonical binary serialization of FIR programs — the payload migration
    actually ships (the target re-typechecks and recompiles it; machine
    code never travels, paper Section 4.2.2).

    Fixed-width little-endian integers, length-prefixed strings, one tag
    byte per constructor, an Adler-32 checksum over the body, and a
    version stamp.  {!decode} fails cleanly on corruption.

    This module owns the one binary writer and the readers of the three
    framed formats: the MASM and process-image codecs ({!Vm.Masm},
    {!Migrate.Wire}) write and read through them, so all three share one
    byte encoding and one frame. *)

exception Corrupt of string

val magic : string
val version : int

(** {2 The writer}

    A writer fills one byte buffer: room for the frame header is
    reserved in front of the body, and {!finish} fills the header in once
    the body's checksum is known. *)

type writer = { mutable buf : Bytes.t; mutable pos : int }
(** The body so far is [buf]'s bytes from the end of the reserved header
    up to [pos].  A codec's hot loop may store into [buf] directly once
    it has made {!room}, and then advance [pos] past what it stored. *)

val writer : int -> writer
(** An empty body with room for about the given number of bytes; the
    buffer grows as needed. *)

val room : writer -> int -> unit
(** [room w n] makes [buf] hold at least [n] bytes past [pos]. *)

val put_u8 : writer -> int -> unit
val put_i64 : writer -> int -> unit
val put_f64_exact : writer -> float -> unit
(** Exact bit pattern, split across two fields (OCaml ints are 63-bit). *)

val put_f64_bits : writer -> float -> unit
(** Compact 8-byte exact encoding. *)

val put_string : writer -> string -> unit
val put_bool : writer -> bool -> unit
val put_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit

val put_uvarint : writer -> int -> unit
(** LEB128: 1 byte for values < 128, up to 9 bytes for the full 63-bit
    pattern (negative ints encode as their raw bit pattern). *)

val put_varint : writer -> int -> unit
(** Zigzag + LEB128: small magnitudes of either sign stay short — the
    heap-segment cell encoding of {!Migrate.Wire}. *)

val contents : writer -> string
(** A copy of the body written so far, without a frame. *)

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
    little-endian words (28 bytes in all), then the body.  A frame is
    the whole input: {!unframe} rejects bytes after the body. *)

val finish : writer -> magic:string -> version:int -> string
(** Fill in the header in front of the body and return the frame.  The
    writer must not be used afterwards: the frame may share its bytes. *)

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
val put_ty : writer -> Types.ty -> unit
val get_ty : reader -> Types.ty

(** {2 Programs} *)

val encode : Ast.program -> string
(** The canonical encoding.  Variables are numbered 1, 2, ... in order
    of first occurrence, not by their {!Var} ids, so the bytes depend
    only on the program's structure and names. *)

val decode : string -> Ast.program
(** Variables are rebuilt with the payload's ids, so
    [encode (decode s) = s] for every [s] that [encode] wrote.
    @raise Corrupt on bad magic, version, length or checksum, bytes after
    the frame, or trailing garbage inside the body. *)
