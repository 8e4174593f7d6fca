(* Canonical binary serialization of FIR programs.

   Migration never ships machine code: it ships the FIR, which the target
   re-typechecks and recompiles (paper, Section 4.2.2).  This module defines
   the canonical, architecture-independent byte format for FIR code:
   little-endian fixed-width integers, length-prefixed strings, one tag byte
   per constructor, and an Adler-32 checksum over the body.

   The format is versioned; [decode] fails cleanly on a bad magic, version,
   truncation, or checksum mismatch (all of which the migration server must
   reject rather than crash on).

   The writer, readers and frame below are also those of the MASM and
   process-image formats ([Vm.Masm], [Migrate.Wire]): one toolkit writes
   all three, so they cannot disagree on a byte. *)

open Ast

exception Corrupt of string

let magic = "MFIR"

(* v4: lists are tagged streams (one continuation byte per element, no
   length prefix), so [put_list] emits in a single traversal.
   v5: variables are numbered by first occurrence, not by [Var] id. *)
let version = 5

(* ------------------------------------------------------------------ *)
(* The writer.                                                         *)
(* ------------------------------------------------------------------ *)

(* The three framed formats (FIR, MASM, process images) share one frame:
   a 4-byte magic, then the version, the body's Adler-32 and the body
   length as 8-byte little-endian words, then the body. *)
let frame_bytes = 28

(* All three are written by this one writer, straight into a single
   [Bytes].  The frame header is reserved at the front and filled in by
   [finish] once the body's Adler-32 is known, so a frame costs one final
   copy of the written prefix and nothing else. *)
type writer = { mutable buf : Bytes.t; mutable pos : int }

let writer size =
  { buf = Bytes.create (frame_bytes + max 64 size); pos = frame_bytes }

let grow w n =
  let need = w.pos + n in
  let len = ref (2 * Bytes.length w.buf) in
  while !len < need do
    len := 2 * !len
  done;
  let buf = Bytes.create !len in
  Bytes.blit w.buf 0 buf 0 w.pos;
  w.buf <- buf

let[@inline] room w n = if w.pos + n > Bytes.length w.buf then grow w n

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Store a little-endian word at [at]; the caller has made [room]. *)
let[@inline] set_word b at x =
  if Sys.big_endian then set64u b at (bswap64 x) else set64u b at x

let put_u8 w n =
  room w 1;
  Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr (n land 0xff));
  w.pos <- w.pos + 1

let put_i64 w n =
  room w 8;
  set_word w.buf w.pos (Int64.of_int n);
  w.pos <- w.pos + 8

(* Compact 8-byte float encoding: the IEEE bit pattern, never boxed on
   the way. *)
let put_f64_bits w f =
  room w 8;
  set_word w.buf w.pos (Int64.bits_of_float f);
  w.pos <- w.pos + 8

(* OCaml ints are 63-bit, so a float's Int64 bit pattern is split across
   two fields to round-trip exactly. *)
let put_f64_exact w f =
  let bits = Int64.bits_of_float f in
  put_i64 w (Int64.to_int (Int64.logand bits 0xffffffffL));
  put_i64 w (Int64.to_int (Int64.shift_right_logical bits 32))

let put_string w s =
  let n = String.length s in
  put_i64 w n;
  room w n;
  Bytes.blit_string s 0 w.buf w.pos n;
  w.pos <- w.pos + n

let put_bool w b = put_u8 w (if b then 1 else 0)

(* Tagged-stream encoding: a continuation byte before each element and a
   terminator after the last.  One traversal of the list, no length
   prefix to precompute (the old format walked every list twice, once for
   [List.length] and once to emit). *)
let put_list w f xs =
  List.iter
    (fun x ->
      put_u8 w 1;
      f w x)
    xs;
  put_u8 w 0

(* LEB128 variable-width integers for the wire layer's heap segments
   (process images are dominated by cell dumps of small integers; a
   varint turns most 8-byte fields into 1 byte).  [put_uvarint] treats
   the int as a raw 63-bit pattern: [lsr] turns a negative int into nine
   7-bit groups, so it takes at most nine bytes.  [put_varint] zigzags
   first so small negative values stay short. *)
let put_uvarint w n =
  room w 9;
  let b = w.buf in
  let n = ref n and pos = ref w.pos in
  while !n lsr 7 <> 0 do
    Bytes.unsafe_set b !pos (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7;
    incr pos
  done;
  Bytes.unsafe_set b !pos (Char.unsafe_chr !n);
  w.pos <- !pos + 1

let put_varint w n = put_uvarint w ((n lsl 1) lxor (n asr 62))

let contents w = Bytes.sub_string w.buf frame_bytes (w.pos - frame_bytes)

(* ------------------------------------------------------------------ *)
(* Readers.                                                            *)
(* ------------------------------------------------------------------ *)

type reader = { data : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.data then raise (Corrupt "truncated input")

let get_u8 r =
  need r 1;
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* [Int64.to_int] drops bit 63: a word written by [put_i64] reads back
   as the int it was. *)
let get_i64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let get_f64_bits r =
  need r 8;
  let bits = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  Int64.float_of_bits bits

let get_f64_exact r =
  let lo = get_i64 r in
  let hi = get_i64 r in
  let bits =
    Int64.logor
      (Int64.of_int (lo land 0xffffffff))
      (Int64.shift_left (Int64.of_int hi) 32)
  in
  Int64.float_of_bits bits

let get_string r =
  let n = get_i64 r in
  if n < 0 || n > String.length r.data - r.pos then
    raise (Corrupt "bad string length");
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_bool r = get_u8 r <> 0

let get_list r f =
  (* elements arrive as a tagged stream; memory is bounded by the input
     length because every element consumes at least its tag byte *)
  let rec go acc =
    match get_u8 r with
    | 0 -> List.rev acc
    | 1 -> go (f r :: acc)
    | n -> raise (Corrupt (Printf.sprintf "bad list tag %d" n))
  in
  go []

let get_uvarint r =
  let rec go shift acc =
    if shift > 62 then raise (Corrupt "varint too long");
    let b = get_u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_varint r =
  let u = get_uvarint r in
  (u lsr 1) lxor (-(u land 1))

(* ------------------------------------------------------------------ *)
(* Adler-32.                                                           *)
(* ------------------------------------------------------------------ *)

(* Bytes per reduction: the sums are reduced mod 65521 once per chunk.
   Every lane and sum below stays far inside a 63-bit int over 8 KB (see
   [adler32_range]), so one reduction per chunk gives the same checksum
   as one per byte: [mod] distributes over the additions. *)
let adler_chunk = 8192

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Eight bytes x0..x7 at a time, from one little-endian load.  Four
   two-lane sums split the word by byte position: [p0] holds x0 in bits
   0-31 and x4 in bits 32-62, [p1] x1 and x5, [p2] x2 and x6, [p3] x3
   and x7.  Over a chunk of n words a lane sums at most 1024 * 255 <
   2^18, and [ps], the running sum of all four before each word, at most
   4 * 255 * (0 + 1 + ... + 1023) < 2^30 per lane, so no lane carries
   into the next.  Eight single-byte steps add the word's bytes to [a]
   and 8a + 8x0 + 7x1 + ... + 1x7 to [s]; over the chunk that is the
   byte total, and 8na + 8 * (the bytes before each word) plus each
   byte position's total times its weight. *)
let adler32_range b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Serial.adler32_range";
  let m = 0xff_0000_00ff and lo x = x land 0xffff_ffff and hi x = x lsr 32 in
  let a = ref 1 and s = ref 0 in
  let start = ref off in
  let stop_all = off + len in
  while !start < stop_all do
    let stop = min stop_all (!start + adler_chunk) in
    let n = (stop - !start) / 8 in
    let p0 = ref 0 and p1 = ref 0 and p2 = ref 0 and p3 = ref 0 in
    let ps = ref 0 in
    let k = ref !start in
    for _ = 1 to n do
      let w = get64u b !k in
      let w = if Sys.big_endian then bswap64 w else w in
      let x = Int64.to_int w in
      ps := !ps + !p0 + !p1 + !p2 + !p3;
      p0 := !p0 + (x land m);
      p1 := !p1 + ((x lsr 8) land m);
      p2 := !p2 + ((x lsr 16) land m);
      p3 := !p3 + (Int64.to_int (Int64.shift_right_logical w 24) land m);
      k := !k + 8
    done;
    let p0 = !p0 and p1 = !p1 and p2 = !p2 and p3 = !p3 in
    s :=
      !s + (8 * n * !a) + (8 * (lo !ps + hi !ps))
      + (8 * lo p0) + (7 * lo p1) + (6 * lo p2) + (5 * lo p3)
      + (4 * hi p0) + (3 * hi p1) + (2 * hi p2) + hi p3;
    a := !a + lo p0 + lo p1 + lo p2 + lo p3 + hi p0 + hi p1 + hi p2 + hi p3;
    for i = !k to stop - 1 do
      a := !a + Char.code (Bytes.unsafe_get b i);
      s := !s + !a
    done;
    a := !a mod 65521;
    s := !s mod 65521;
    start := stop
  done;
  (!s lsl 16) lor !a

let adler32 s =
  adler32_range (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Frames.                                                             *)
(* ------------------------------------------------------------------ *)

(* Fill in the header in front of the body and return the frame, copying
   only when the buffer is longer than the frame (otherwise the writer's
   buffer becomes the frame's bytes).  A frame is the whole input:
   [unframe] rejects bytes after the body rather than ignoring them. *)
let finish w ~magic ~version =
  let b = w.buf and len = w.pos - frame_bytes in
  Bytes.blit_string magic 0 b 0 4;
  set_word b 4 (Int64.of_int version);
  set_word b 12 (Int64.of_int (adler32_range b ~off:frame_bytes ~len));
  set_word b 20 (Int64.of_int len);
  if w.pos = Bytes.length b then Bytes.unsafe_to_string b
  else Bytes.sub_string b 0 w.pos

let unframe ~magic ~version ~what s =
  if String.length s < frame_bytes
     || not (String.equal (String.sub s 0 4) magic)
  then raise (Corrupt (Printf.sprintf "bad %s magic" what));
  let word at = Int64.to_int (String.get_int64_le s at) in
  let v = word 4 in
  if v <> version then
    raise
      (Corrupt
         (Printf.sprintf "%s version mismatch: got %d, want %d" what v
            version));
  let len = word 20 in
  if len < 0 || len > String.length s - frame_bytes then
    raise (Corrupt (Printf.sprintf "bad %s body length" what));
  if frame_bytes + len <> String.length s then
    raise (Corrupt (Printf.sprintf "bytes after the %s frame" what));
  if adler32_range (Bytes.unsafe_of_string s) ~off:frame_bytes ~len <> word 12
  then raise (Corrupt (Printf.sprintf "%s checksum mismatch" what));
  { data = s; pos = frame_bytes }

(* ------------------------------------------------------------------ *)
(* Content digest.                                                      *)
(* ------------------------------------------------------------------ *)

(* 64-bit FNV-1a over already-encoded bytes, as a 16-char hex string.
   This is the content address of a FIR program (see {!Digest}): a
   migration server can digest the received payload without decoding it
   first.  Adler-32 stays the per-message transport checksum; the digest
   is the cache/identity key (far better dispersion, stable across
   transports).

   FNV-1a is a stream hash: [fnv_feed] continues a running hash over
   [s.[off .. off + len - 1]], so a digest over several byte ranges
   needs no concatenated copy.  The plain [for] loop keeps the
   accumulator unboxed; a closure over it would box it on every byte. *)
let fnv_basis = 0xcbf29ce484222325L

let fnv_feed h s ~off ~len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Serial.fnv_feed";
  let h = ref h in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let fnv_hex h = Printf.sprintf "%016Lx" h

let encoded_digest s =
  fnv_hex (fnv_feed fnv_basis s ~off:0 ~len:(String.length s))

(* ------------------------------------------------------------------ *)
(* Types.                                                              *)
(* ------------------------------------------------------------------ *)

let rec put_ty buf = function
  | Types.Tunit -> put_u8 buf 0
  | Types.Tint -> put_u8 buf 1
  | Types.Tfloat -> put_u8 buf 2
  | Types.Tbool -> put_u8 buf 3
  | Types.Tenum n ->
    put_u8 buf 4;
    put_i64 buf n
  | Types.Tptr t ->
    put_u8 buf 5;
    put_ty buf t
  | Types.Ttuple ts ->
    put_u8 buf 6;
    put_list buf put_ty ts
  | Types.Traw -> put_u8 buf 7
  | Types.Tfun ts ->
    put_u8 buf 8;
    put_list buf put_ty ts
  | Types.Tany -> put_u8 buf 9

let rec get_ty r =
  match get_u8 r with
  | 0 -> Types.Tunit
  | 1 -> Types.Tint
  | 2 -> Types.Tfloat
  | 3 -> Types.Tbool
  | 4 -> Types.Tenum (get_i64 r)
  | 5 -> Types.Tptr (get_ty r)
  | 6 -> Types.Ttuple (get_list r get_ty)
  | 7 -> Types.Traw
  | 8 -> Types.Tfun (get_list r get_ty)
  | 9 -> Types.Tany
  | n -> raise (Corrupt (Printf.sprintf "bad type tag %d" n))

(* ------------------------------------------------------------------ *)
(* Variables, operators, atoms.                                        *)
(* ------------------------------------------------------------------ *)

(* The payload does not carry [Var] ids, which come from a process-wide
   counter: one [encode] call numbers its variables 1, 2, ... in order
   of first occurrence, through a table that [encode] creates and
   threads down to here.  The bytes, and so the digest, then depend only
   on the program's structure and names: the same source compiled twice
   encodes alike.  [decode] rebuilds each variable with the payload's
   id, so decoding and re-encoding gives the same bytes back.

   The table is dense: slot [Var.id v - lo] holds [v]'s payload id (0
   while unseen), and the slots grow to cover every id met so far.  A
   front end draws a program's ids from one run of the counter, so the
   range stays close to the variable count, and a lookup is an array
   read. *)
type ids = { mutable lo : int; mutable slots : int array; mutable seen : int }

(* Widen the slots, at least doubling them, to cover [id]. *)
let cover ids id =
  let len = Array.length ids.slots in
  if len = 0 then ids.lo <- id;
  let hi = ids.lo + len in
  let n = max (2 * len) (max hi (id + 1) - min ids.lo id) in
  let lo = if id < ids.lo then hi - n else ids.lo in
  let slots = Array.make n 0 in
  Array.blit ids.slots 0 slots (ids.lo - lo) len;
  ids.lo <- lo;
  ids.slots <- slots

let put_var ids buf v =
  let id = Var.id v in
  if id < ids.lo || id >= ids.lo + Array.length ids.slots then cover ids id;
  let i = id - ids.lo in
  let n =
    match ids.slots.(i) with
    | 0 ->
      ids.seen <- ids.seen + 1;
      ids.slots.(i) <- ids.seen;
      ids.seen
    | n -> n
  in
  put_i64 buf n;
  put_string buf (Var.name v)

let get_var r =
  let id = get_i64 r in
  let name = get_string r in
  Var.of_id ~id ~name

let unop_code = function
  | Neg -> 0
  | Not -> 1
  | Fneg -> 2
  | Int_of_float -> 3
  | Float_of_int -> 4
  | Int_of_bool -> 5
  | Int_of_enum -> 6

let unop_of_code = function
  | 0 -> Neg
  | 1 -> Not
  | 2 -> Fneg
  | 3 -> Int_of_float
  | 4 -> Float_of_int
  | 5 -> Int_of_bool
  | 6 -> Int_of_enum
  | n -> raise (Corrupt (Printf.sprintf "bad unop code %d" n))

let binop_code = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Rem -> 4
  | Band -> 5
  | Bor -> 6
  | Bxor -> 7
  | Shl -> 8
  | Shr -> 9
  | Eq -> 10
  | Ne -> 11
  | Lt -> 12
  | Le -> 13
  | Gt -> 14
  | Ge -> 15
  | Fadd -> 16
  | Fsub -> 17
  | Fmul -> 18
  | Fdiv -> 19
  | Feq -> 20
  | Fne -> 21
  | Flt -> 22
  | Fle -> 23
  | Fgt -> 24
  | Fge -> 25
  | And -> 26
  | Or -> 27
  | Padd -> 28
  | Peq -> 29

let binop_of_code = function
  | 0 -> Add
  | 1 -> Sub
  | 2 -> Mul
  | 3 -> Div
  | 4 -> Rem
  | 5 -> Band
  | 6 -> Bor
  | 7 -> Bxor
  | 8 -> Shl
  | 9 -> Shr
  | 10 -> Eq
  | 11 -> Ne
  | 12 -> Lt
  | 13 -> Le
  | 14 -> Gt
  | 15 -> Ge
  | 16 -> Fadd
  | 17 -> Fsub
  | 18 -> Fmul
  | 19 -> Fdiv
  | 20 -> Feq
  | 21 -> Fne
  | 22 -> Flt
  | 23 -> Fle
  | 24 -> Fgt
  | 25 -> Fge
  | 26 -> And
  | 27 -> Or
  | 28 -> Padd
  | 29 -> Peq
  | n -> raise (Corrupt (Printf.sprintf "bad binop code %d" n))

let put_atom ids buf = function
  | Unit -> put_u8 buf 0
  | Int n ->
    put_u8 buf 1;
    put_i64 buf n
  | Float f ->
    put_u8 buf 2;
    put_f64_exact buf f
  | Bool b ->
    put_u8 buf 3;
    put_bool buf b
  | Enum (card, v) ->
    put_u8 buf 4;
    put_i64 buf card;
    put_i64 buf v
  | Var v ->
    put_u8 buf 5;
    put_var ids buf v
  | Fun f ->
    put_u8 buf 6;
    put_string buf f
  | Nil t ->
    put_u8 buf 7;
    put_ty buf t

let get_atom r =
  match get_u8 r with
  | 0 -> Unit
  | 1 -> Int (get_i64 r)
  | 2 -> Float (get_f64_exact r)
  | 3 -> Bool (get_bool r)
  | 4 ->
    let card = get_i64 r in
    let v = get_i64 r in
    Enum (card, v)
  | 5 -> Var (get_var r)
  | 6 -> Fun (get_string r)
  | 7 -> Nil (get_ty r)
  | n -> raise (Corrupt (Printf.sprintf "bad atom tag %d" n))

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)
(* ------------------------------------------------------------------ *)

let rec put_exp ids buf = function
  | Let_atom (v, t, a, e) ->
    put_u8 buf 0;
    put_var ids buf v;
    put_ty buf t;
    put_atom ids buf a;
    put_exp ids buf e
  | Let_unop (v, t, op, a, e) ->
    put_u8 buf 1;
    put_var ids buf v;
    put_ty buf t;
    put_u8 buf (unop_code op);
    put_atom ids buf a;
    put_exp ids buf e
  | Let_binop (v, t, op, a, b, e) ->
    put_u8 buf 2;
    put_var ids buf v;
    put_ty buf t;
    put_u8 buf (binop_code op);
    put_atom ids buf a;
    put_atom ids buf b;
    put_exp ids buf e
  | Let_tuple (v, fields, e) ->
    put_u8 buf 3;
    put_var ids buf v;
    put_list buf
      (fun buf (t, a) ->
        put_ty buf t;
        put_atom ids buf a)
      fields;
    put_exp ids buf e
  | Let_array (v, t, size, init, e) ->
    put_u8 buf 4;
    put_var ids buf v;
    put_ty buf t;
    put_atom ids buf size;
    put_atom ids buf init;
    put_exp ids buf e
  | Let_string (v, s, e) ->
    put_u8 buf 5;
    put_var ids buf v;
    put_string buf s;
    put_exp ids buf e
  | Let_proj (v, t, a, i, e) ->
    put_u8 buf 6;
    put_var ids buf v;
    put_ty buf t;
    put_atom ids buf a;
    put_i64 buf i;
    put_exp ids buf e
  | Set_proj (a, i, x, e) ->
    put_u8 buf 7;
    put_atom ids buf a;
    put_i64 buf i;
    put_atom ids buf x;
    put_exp ids buf e
  | Let_load (v, t, a, i, e) ->
    put_u8 buf 8;
    put_var ids buf v;
    put_ty buf t;
    put_atom ids buf a;
    put_atom ids buf i;
    put_exp ids buf e
  | Store (a, i, x, e) ->
    put_u8 buf 9;
    put_atom ids buf a;
    put_atom ids buf i;
    put_atom ids buf x;
    put_exp ids buf e
  | Let_ext (v, t, name, args, e) ->
    put_u8 buf 10;
    put_var ids buf v;
    put_ty buf t;
    put_string buf name;
    put_list buf (put_atom ids) args;
    put_exp ids buf e
  | If (a, e1, e2) ->
    put_u8 buf 11;
    put_atom ids buf a;
    put_exp ids buf e1;
    put_exp ids buf e2
  | Switch (a, cases, default) ->
    put_u8 buf 12;
    put_atom ids buf a;
    put_list buf
      (fun buf (n, e) ->
        put_i64 buf n;
        put_exp ids buf e)
      cases;
    put_exp ids buf default
  | Call (f, args) ->
    put_u8 buf 13;
    put_atom ids buf f;
    put_list buf (put_atom ids) args
  | Exit a ->
    put_u8 buf 14;
    put_atom ids buf a
  | Migrate (i, dst, f, args) ->
    put_u8 buf 15;
    put_i64 buf i;
    put_atom ids buf dst;
    put_atom ids buf f;
    put_list buf (put_atom ids) args
  | Speculate (f, args) ->
    put_u8 buf 16;
    put_atom ids buf f;
    put_list buf (put_atom ids) args
  | Commit (l, f, args) ->
    put_u8 buf 17;
    put_atom ids buf l;
    put_atom ids buf f;
    put_list buf (put_atom ids) args
  | Rollback (l, c) ->
    put_u8 buf 18;
    put_atom ids buf l;
    put_atom ids buf c
  | Let_cast (v, t, a, e) ->
    put_u8 buf 19;
    put_var ids buf v;
    put_ty buf t;
    put_atom ids buf a;
    put_exp ids buf e

let rec get_exp r =
  match get_u8 r with
  | 0 ->
    let v = get_var r in
    let t = get_ty r in
    let a = get_atom r in
    Let_atom (v, t, a, get_exp r)
  | 1 ->
    let v = get_var r in
    let t = get_ty r in
    let op = unop_of_code (get_u8 r) in
    let a = get_atom r in
    Let_unop (v, t, op, a, get_exp r)
  | 2 ->
    let v = get_var r in
    let t = get_ty r in
    let op = binop_of_code (get_u8 r) in
    let a = get_atom r in
    let b = get_atom r in
    Let_binop (v, t, op, a, b, get_exp r)
  | 3 ->
    let v = get_var r in
    let fields =
      get_list r (fun r ->
          let t = get_ty r in
          let a = get_atom r in
          t, a)
    in
    Let_tuple (v, fields, get_exp r)
  | 4 ->
    let v = get_var r in
    let t = get_ty r in
    let size = get_atom r in
    let init = get_atom r in
    Let_array (v, t, size, init, get_exp r)
  | 5 ->
    let v = get_var r in
    let s = get_string r in
    Let_string (v, s, get_exp r)
  | 6 ->
    let v = get_var r in
    let t = get_ty r in
    let a = get_atom r in
    let i = get_i64 r in
    Let_proj (v, t, a, i, get_exp r)
  | 7 ->
    let a = get_atom r in
    let i = get_i64 r in
    let x = get_atom r in
    Set_proj (a, i, x, get_exp r)
  | 8 ->
    let v = get_var r in
    let t = get_ty r in
    let a = get_atom r in
    let i = get_atom r in
    Let_load (v, t, a, i, get_exp r)
  | 9 ->
    let a = get_atom r in
    let i = get_atom r in
    let x = get_atom r in
    Store (a, i, x, get_exp r)
  | 10 ->
    let v = get_var r in
    let t = get_ty r in
    let name = get_string r in
    let args = get_list r get_atom in
    Let_ext (v, t, name, args, get_exp r)
  | 11 ->
    let a = get_atom r in
    let e1 = get_exp r in
    let e2 = get_exp r in
    If (a, e1, e2)
  | 12 ->
    let a = get_atom r in
    let cases =
      get_list r (fun r ->
          let n = get_i64 r in
          let e = get_exp r in
          n, e)
    in
    Switch (a, cases, get_exp r)
  | 13 ->
    let f = get_atom r in
    Call (f, get_list r get_atom)
  | 14 -> Exit (get_atom r)
  | 15 ->
    let i = get_i64 r in
    let dst = get_atom r in
    let f = get_atom r in
    Migrate (i, dst, f, get_list r get_atom)
  | 16 ->
    let f = get_atom r in
    Speculate (f, get_list r get_atom)
  | 17 ->
    let l = get_atom r in
    let f = get_atom r in
    Commit (l, f, get_list r get_atom)
  | 18 ->
    let l = get_atom r in
    let c = get_atom r in
    Rollback (l, c)
  | 19 ->
    let v = get_var r in
    let t = get_ty r in
    let a = get_atom r in
    Let_cast (v, t, a, get_exp r)
  | n -> raise (Corrupt (Printf.sprintf "bad expression tag %d" n))

(* ------------------------------------------------------------------ *)
(* Programs.                                                           *)
(* ------------------------------------------------------------------ *)

let put_fundef ids buf fd =
  put_string buf fd.f_name;
  put_list buf
    (fun buf (v, t) ->
      put_var ids buf v;
      put_ty buf t)
    fd.f_params;
  put_exp ids buf fd.f_body

let get_fundef r =
  let f_name = get_string r in
  let f_params =
    get_list r (fun r ->
        let v = get_var r in
        let t = get_ty r in
        v, t)
  in
  let f_body = get_exp r in
  { f_name; f_params; f_body }

let encode p =
  let ids = { lo = 0; slots = [||]; seen = 0 } in
  let w = writer 4096 in
  put_string w p.p_main;
  put_list w (put_fundef ids) (fold_funs (fun fd acc -> fd :: acc) p []);
  finish w ~magic ~version

let decode s =
  let r = unframe ~magic ~version ~what:"FIR" s in
  let main = get_string r in
  let funs = get_list r get_fundef in
  if r.pos <> String.length s then raise (Corrupt "trailing garbage");
  program funs ~main
