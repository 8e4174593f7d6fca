(* Tests for delta migration and incremental checkpoints (wire v7):
   compact value-codec edges, property-style full-vs-delta round-trips
   over random heap mutation sequences, baseline negotiation and
   invalidation on the server, end-to-end delta shipping on the cluster
   (same results as full shipping, fewer bytes), lost/duplicated delta
   hops under the fault plan (no refused delta, no double spawn), and
   incremental checkpoint chains replayed at resurrection. *)

open Runtime

open Kit

(* ------------------------------------------------------------------ *)
(* Compact value codec: varint / float-bits edges                      *)
(* ------------------------------------------------------------------ *)

let roundtrip v =
  let bytes = Migrate.Wire.encode_value v in
  let r = { Fir.Serial.data = bytes; pos = 0 } in
  let v' = Migrate.Wire.get_value r in
  check "no trailing bytes" true (r.Fir.Serial.pos = String.length bytes);
  v'

let test_codec_edges () =
  List.iter
    (fun v ->
      check
        (Printf.sprintf "%s round-trips" (Value.to_string v))
        true
        (Migrate.Wire.cell_equal v (roundtrip v)))
    [
      Value.Vunit;
      Value.Vbool true;
      Value.Vbool false;
      Value.Vint 0;
      Value.Vint 1;
      Value.Vint (-1);
      Value.Vint max_int;
      Value.Vint min_int;
      Value.Vfloat 0.0;
      Value.Vfloat (-0.0);
      Value.Vfloat Float.nan;
      Value.Vfloat Float.infinity;
      Value.Vfloat Float.neg_infinity;
      Value.Vfloat 1.5e-300;
      Value.Venum (7, 3);
      Value.Vptr (0, 0);
      Value.Vptr (123456, 789);
      Value.Vfun 42;
    ]

let test_cell_equal_float_bits () =
  (* delta diffing must compare floats by bit pattern: -0.0 is a real
     change and NaN is not *)
  check "-0.0 differs from 0.0" false
    (Migrate.Wire.cell_equal (Value.Vfloat 0.0) (Value.Vfloat (-0.0)));
  check "NaN equals itself" true
    (Migrate.Wire.cell_equal (Value.Vfloat Float.nan)
       (Value.Vfloat Float.nan));
  (* and the codec preserves the distinction *)
  (match roundtrip (Value.Vfloat (-0.0)) with
  | Value.Vfloat f -> check "-0.0 survives the wire" true (1.0 /. f < 0.0)
  | _ -> Alcotest.fail "float decoded as non-float");
  check "small ints are small on the wire" true
    (String.length (Migrate.Wire.encode_value (Value.Vint 3)) = 2)

(* The wire format is pinned, not only self-consistent: a hand-built
   image (float runs, -0.0, a NaN payload, every cell kind, MASM, spec,
   epoch and dspec), its v10 image digest and a delta over it hash to
   fixed values.  No Hashtbl or Random is involved, so the pins hold on
   every OCaml version. *)
let pinned_image =
  {
    Migrate.Wire.i_arch = "cisc32";
    i_digest = "0123456789abcdef";
    i_fir = "not really FIR";
    i_masm = Some "not really MASM";
    i_ftable = [ "f"; "main" ];
    i_ptable = [| 0; 7 |];
    i_cells =
      [| Value.Vint 0; Value.Vint 1; Value.Vint 3; Value.Vint 0;
         Value.Vfloat (-0.0); Value.Vfloat (-0.0);
         Value.Vfloat (Int64.float_of_bits 0x7ff80000deadbeefL);
         Value.Vint 1; Value.Vint 0; Value.Vint 5; Value.Vint 0;
         Value.Vint 300; Value.Vptr (0, 2); Value.Venum (3, 1); Value.Vfun 1;
         Value.Vfloat 1.5 |];
    i_spec =
      [ { Spec.Engine.s_entry = "f"; s_args = [ Value.Vint (-2) ];
          s_saved = [ 0, 0 ] } ];
    i_menv = 1;
    i_entry = "f";
    i_label = 2;
    i_epoch = 7;
    i_dspec =
      Some
        { Migrate.Wire.x_txn = 3; x_root = 0; x_coord_laddr = -1;
          x_parts = [ 1, 2 ] };
  }

let test_wire_bytes_pinned () =
  let im = pinned_image in
  let packet = Migrate.Wire.encode im in
  check_int "packet length" 249 (String.length packet);
  check_str "packet bytes" "e77cc43162defa6f" (Fir.Digest.of_encoded packet);
  check_str "image digest" "c9ee2d5ceac41952" (Migrate.Wire.image_digest im);
  let delta =
    Migrate.Wire.encode_delta
      {
        Migrate.Wire.d_arch = "cisc32";
        d_base = "base";
        d_fir_digest = im.Migrate.Wire.i_digest;
        d_new_digest = Migrate.Wire.image_digest im;
        d_ptable = im.Migrate.Wire.i_ptable;
        d_blocks =
          [ Migrate.Wire.Dcopy 0;
            Migrate.Wire.Dpatch
              { idx = 1;
                ranges = [ 1, [| Value.Vfloat (-0.0); Value.Vfloat (-0.0) |] ]
              };
            Migrate.Wire.Dlit
              { idx = 2; tag = 1; cells = [| Value.Vfloat infinity |] } ];
        d_spec = im.Migrate.Wire.i_spec;
        d_menv = 1;
        d_entry = "f";
        d_label = 2;
        d_epoch = 7;
        d_dspec = None;
      }
  in
  check_int "delta length" 170 (String.length delta);
  check_str "delta bytes" "f5d6cdee3b0b1279" (Fir.Digest.of_encoded delta)

(* ------------------------------------------------------------------ *)
(* The packet writer against the Buffer oracle                         *)
(* ------------------------------------------------------------------ *)

(* The wire v10 encoder as it was written on [Buffer] before the
   single-buffer writer replaced it: the writer must reproduce its bytes
   exactly, for both packet kinds.  Its primitives and checksum are its
   own, written a byte at a time, so it shares no code with the
   library's writer. *)
module Oracle = struct
  let put_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

  let put_i64 buf n =
    for k = 0 to 7 do
      put_u8 buf (n asr (8 * k))
    done

  let put_f64_bits buf f =
    let bits = Int64.bits_of_float f in
    for k = 0 to 7 do
      put_u8 buf (Int64.to_int (Int64.shift_right_logical bits (8 * k)))
    done

  let put_string buf s =
    put_i64 buf (String.length s);
    Buffer.add_string buf s

  let put_list buf f xs =
    List.iter
      (fun x ->
        put_u8 buf 1;
        f buf x)
      xs;
    put_u8 buf 0

  let rec put_uvarint buf n =
    if n lsr 7 = 0 then put_u8 buf n
    else begin
      put_u8 buf (n land 0x7f lor 0x80);
      put_uvarint buf (n lsr 7)
    end

  let put_varint buf n = put_uvarint buf ((n lsl 1) lxor (n asr 62))

  let adler32 s =
    let a = ref 1 and b = ref 0 in
    String.iter
      (fun c ->
        a := (!a + Char.code c) mod 65521;
        b := (!b + !a) mod 65521)
      s;
    (!b lsl 16) lor !a

  let put_value buf = function
    | Value.Vunit -> put_u8 buf 0
    | Value.Vint n ->
      put_u8 buf 1;
      put_varint buf n
    | Value.Vfloat f ->
      put_u8 buf 2;
      put_f64_bits buf f
    | Value.Vbool b ->
      put_u8 buf 3;
      put_u8 buf (if b then 1 else 0)
    | Value.Venum (c, v) ->
      put_u8 buf 4;
      put_varint buf c;
      put_varint buf v
    | Value.Vptr (i, o) ->
      put_u8 buf 5;
      put_varint buf i;
      put_varint buf o
    | Value.Vfun f ->
      put_u8 buf 6;
      put_varint buf f

  let cell_equal a b =
    match a, b with
    | Value.Vfloat x, Value.Vfloat y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | _ -> a = b

  let put_cells buf cells lo len =
    let i = ref lo in
    let hi = lo + len in
    while !i < hi do
      let v = cells.(!i) in
      let j = ref (!i + 1) in
      while !j < hi && cell_equal cells.(!j) v do
        incr j
      done;
      put_uvarint buf (!j - !i);
      put_value buf v;
      i := !j
    done

  let put_ptable buf ptable =
    put_uvarint buf (Array.length ptable);
    Array.iter (put_varint buf) ptable

  let put_spec_level buf (s : Spec.Engine.snapshot_level) =
    put_string buf s.Spec.Engine.s_entry;
    put_list buf put_value s.Spec.Engine.s_args;
    put_list buf
      (fun buf (idx, addr) ->
        put_varint buf idx;
        put_varint buf addr)
      s.Spec.Engine.s_saved

  let put_dspec buf = function
    | None -> put_u8 buf 0
    | Some (c : Migrate.Wire.dspec_ctx) ->
      put_u8 buf 1;
      put_varint buf c.x_txn;
      put_varint buf c.x_root;
      put_varint buf c.x_coord_laddr;
      put_list buf
        (fun buf (r, e) ->
          put_varint buf r;
          put_varint buf e)
        c.x_parts

  let frame body =
    let header = Buffer.create 28 in
    Buffer.add_string header "MPRC";
    put_i64 header 10;
    put_i64 header (adler32 body);
    put_i64 header (String.length body);
    Buffer.contents header ^ body

  let encode (im : Migrate.Wire.image) =
    let body = Buffer.create 256 in
    put_u8 body 0;
    put_string body im.i_arch;
    put_string body im.i_digest;
    put_string body im.i_fir;
    (match im.i_masm with
    | None -> put_u8 body 0
    | Some payload ->
      put_u8 body 1;
      put_string body payload);
    put_list body put_string im.i_ftable;
    put_ptable body im.i_ptable;
    put_uvarint body (Array.length im.i_cells);
    put_cells body im.i_cells 0 (Array.length im.i_cells);
    put_list body put_spec_level im.i_spec;
    put_varint body im.i_menv;
    put_string body im.i_entry;
    put_varint body im.i_label;
    put_varint body im.i_epoch;
    put_dspec body im.i_dspec;
    frame (Buffer.contents body)

  let put_dblock buf = function
    | Migrate.Wire.Dcopy idx ->
      put_u8 buf 0;
      put_varint buf idx
    | Migrate.Wire.Dlit { idx; tag; cells } ->
      put_u8 buf 1;
      put_varint buf idx;
      put_u8 buf tag;
      put_uvarint buf (Array.length cells);
      put_cells buf cells 0 (Array.length cells)
    | Migrate.Wire.Dpatch { idx; ranges } ->
      put_u8 buf 2;
      put_varint buf idx;
      put_uvarint buf (List.length ranges);
      List.iter
        (fun (off, cells) ->
          put_uvarint buf off;
          put_uvarint buf (Array.length cells);
          put_cells buf cells 0 (Array.length cells))
        ranges

  let encode_delta (d : Migrate.Wire.delta) =
    let body = Buffer.create 256 in
    put_u8 body 1;
    put_string body d.d_arch;
    put_string body d.d_base;
    put_string body d.d_fir_digest;
    put_string body d.d_new_digest;
    put_ptable body d.d_ptable;
    put_uvarint body (List.length d.d_blocks);
    List.iter (put_dblock body) d.d_blocks;
    put_list body put_spec_level d.d_spec;
    put_varint body d.d_menv;
    put_string body d.d_entry;
    put_varint body d.d_label;
    put_varint body d.d_epoch;
    put_dspec body d.d_dspec;
    frame (Buffer.contents body)
end

(* Cells drawn to stress the run-length and varint paths: few distinct
   values (so runs form), both zeros, NaNs with two payloads, the int
   extremes, and every constructor. *)
let oracle_cell rng =
  match Random.State.int rng 14 with
  | 0 -> Value.Vunit
  | 1 -> Value.Vint 0
  | 2 -> Value.Vint (Random.State.int rng 300 - 150)
  | 3 -> Value.Vint (if Random.State.bool rng then max_int else min_int)
  | 4 -> Value.Vfloat 0.0
  | 5 -> Value.Vfloat (-0.0)
  | 6 -> Value.Vfloat (Int64.float_of_bits 0x7ff80000deadbeefL)
  | 7 -> Value.Vfloat Float.nan
  | 8 -> Value.Vfloat (float_of_int (Random.State.int rng 4) /. 3.0)
  | 9 -> Value.Vbool (Random.State.bool rng)
  | 10 -> Value.Venum (3, Random.State.int rng 3)
  | 11 -> Value.Vptr (Random.State.int rng 4, Random.State.int rng 2)
  | 12 -> Value.Vptr (-1, 0)
  | _ -> Value.Vfun (Random.State.int rng 3)

(* A cell array of [n] cells, each either a fresh draw or a repeat of
   its left neighbour, so runs of every length occur. *)
let oracle_cells rng n =
  let cells = Array.make n Value.Vunit in
  for i = 0 to n - 1 do
    cells.(i) <-
      (if i > 0 && Random.State.int rng 3 = 0 then cells.(i - 1)
       else oracle_cell rng)
  done;
  cells

let oracle_spec rng =
  List.init (Random.State.int rng 3) (fun k ->
      { Spec.Engine.s_entry = Printf.sprintf "level%d" k;
        s_args = Array.to_list (oracle_cells rng (Random.State.int rng 4));
        s_saved = [ k, -k; max_int, min_int ] })

let oracle_dspec rng =
  if Random.State.bool rng then None
  else
    Some
      { Migrate.Wire.x_txn = Random.State.int rng 100; x_root = 0;
        x_coord_laddr = -1; x_parts = [ 0, 1; max_int, 2 ] }

(* A real heap's cells: blocks initialised to 0 end in a zero flags
   header cell, so their runs cross block headers. *)
let heap_cells () =
  let h = Heap.create () in
  ignore (Heap.alloc h ~tag:Heap.Array ~size:70 ~init:(Value.Vint 0));
  ignore (Heap.alloc h ~tag:Heap.Array ~size:5 ~init:(Value.Vint 0));
  ignore (Heap.alloc h ~tag:Heap.Tuple ~size:3 ~init:(Value.Vfloat (-0.0)));
  ignore (Heap.alloc h ~tag:Heap.Raw ~size:0 ~init:(Value.Vint 0));
  Heap.cells h

let test_writer_matches_oracle () =
  let rng = Random.State.make [| 29 |] in
  let fir = "FIR payload" in
  let image cells =
    { pinned_image with
      Migrate.Wire.i_digest = Fir.Digest.of_encoded fir;
      i_fir = fir;
      i_masm = (if Random.State.bool rng then Some "MASM" else None);
      i_ptable = Array.init (Random.State.int rng 5) (fun k -> k - 1);
      i_cells = cells;
      i_spec = oracle_spec rng;
      i_label = Random.State.int rng 1000 - 500;
      i_epoch = Random.State.int rng 1000;
      i_dspec = oracle_dspec rng }
  in
  (* besides the random heaps: the empty heap, runs across block
     headers, the pinned cells, and two heaps that outgrow the writer's
     first buffer (distinct floats; extreme pointers at twenty bytes a
     cell) *)
  let heaps =
    [ [||];
      heap_cells ();
      pinned_image.Migrate.Wire.i_cells;
      Array.init 5000 (fun i -> Value.Vfloat (float_of_int i));
      Array.init 2000 (fun i ->
          if i land 1 = 0 then Value.Vptr (max_int, min_int)
          else Value.Vptr (min_int, max_int)) ]
    @ List.init 200 (fun _ -> oracle_cells rng (Random.State.int rng 300))
  in
  List.iteri
    (fun k cells ->
      let im = image cells in
      let packet = Migrate.Wire.encode im in
      check_str (Printf.sprintf "full packet %d" k) (Oracle.encode im) packet;
      let back = Migrate.Wire.decode packet in
      check (Printf.sprintf "full packet %d decodes to its cells" k) true
        (Array.length back.Migrate.Wire.i_cells = Array.length cells
        && Array.for_all2 Migrate.Wire.cell_equal back.Migrate.Wire.i_cells
             cells);
      check_str (Printf.sprintf "full packet %d re-encodes" k) packet
        (Migrate.Wire.encode back);
      let slice () =
        let n = Array.length cells in
        let off = if n = 0 then 0 else Random.State.int rng n in
        off, Array.sub cells off (Random.State.int rng (n - off + 1))
      in
      let delta =
        { Migrate.Wire.d_arch = "risc64";
          d_base = "base";
          d_fir_digest = im.Migrate.Wire.i_digest;
          d_new_digest = "new";
          d_ptable = im.Migrate.Wire.i_ptable;
          d_blocks =
            [ Migrate.Wire.Dcopy (Random.State.int rng 10);
              Migrate.Wire.Dlit
                { idx = 1;
                  tag = Random.State.int rng 3;
                  cells = snd (slice ()) };
              Migrate.Wire.Dpatch { idx = -2; ranges = [ slice (); slice () ] };
              Migrate.Wire.Dpatch { idx = 3; ranges = [] } ];
          d_spec = im.Migrate.Wire.i_spec;
          d_menv = im.Migrate.Wire.i_menv;
          d_entry = "resume";
          d_label = im.Migrate.Wire.i_label;
          d_epoch = im.Migrate.Wire.i_epoch;
          d_dspec = im.Migrate.Wire.i_dspec }
      in
      let packet = Migrate.Wire.encode_delta delta in
      check_str (Printf.sprintf "delta packet %d" k)
        (Oracle.encode_delta delta) packet;
      match Migrate.Wire.decode_packet packet with
      | Migrate.Wire.Delta back ->
        check_str (Printf.sprintf "delta packet %d re-encodes" k) packet
          (Migrate.Wire.encode_delta back)
      | Migrate.Wire.Full _ -> Alcotest.fail "delta decoded as a full image")
    heaps

(* ------------------------------------------------------------------ *)
(* Image digest: what it hashes and what it ignores                    *)
(* ------------------------------------------------------------------ *)

let digest = Migrate.Wire.image_digest

let with_cells (im : Migrate.Wire.image) cells =
  { im with Migrate.Wire.i_cells = cells }

let with_cell (im : Migrate.Wire.image) k v =
  let cells = Array.copy im.Migrate.Wire.i_cells in
  cells.(k) <- v;
  with_cells im cells

(* Pairs of cells that serialize or compare alike under some careless
   encoding but are different cells: the digest must tell each apart.
   1.5's bit pattern fits a non-negative OCaml int. *)
let confusable_cells =
  let bits_of_1_5 = Int64.to_int (Int64.bits_of_float 1.5) in
  [
    "0.0 vs -0.0", Value.Vfloat 0.0, Value.Vfloat (-0.0);
    "Vint vs Vfloat with the same bits", Value.Vint bits_of_1_5,
    Value.Vfloat 1.5;
    "Venum (c, v) vs (v, c)", Value.Venum (3, 1), Value.Venum (1, 3);
    "Vptr (i, o) vs (o, i)", Value.Vptr (0, 2), Value.Vptr (2, 0);
    "Vunit vs Vint 0", Value.Vunit, Value.Vint 0;
    "Vbool false vs Vint 0", Value.Vbool false, Value.Vint 0;
  ]

let test_digest_cell_mutations () =
  let im = pinned_image in
  let ncells = Array.length im.Migrate.Wire.i_cells in
  (* each confusable pair, planted at the first, a middle and the last
     cell of the heap *)
  List.iter
    (fun (what, a, b) ->
      List.iter
        (fun k ->
          check
            (Printf.sprintf "%s at cell %d: digests differ" what k)
            false
            (String.equal (digest (with_cell im k a))
               (digest (with_cell im k b))))
        [ 0; ncells / 2; ncells - 1 ])
    confusable_cells;
  (* every single-cell change of the pinned image moves the digest *)
  let palette =
    List.concat_map (fun (_, a, b) -> [ a; b ]) confusable_cells
    @ [ Value.Vbool true; Value.Vfun 0; Value.Vint (-1); Value.Vfloat Float.nan ]
  in
  let base = digest im in
  Array.iteri
    (fun k cell ->
      List.iter
        (fun v ->
          if not (Migrate.Wire.cell_equal v cell) then
            check
              (Printf.sprintf "cell %d := %s moves the digest" k
                 (Value.to_string v))
              false
              (String.equal base (digest (with_cell im k v))))
        palette)
    im.Migrate.Wire.i_cells;
  (* one data cell of block 0 swapped with one of block 1: the same
     multiset of cells in a different layout *)
  let swapped = Array.copy im.Migrate.Wire.i_cells in
  let a = 6 and b = 11 in
  let t = swapped.(a) in
  swapped.(a) <- swapped.(b);
  swapped.(b) <- t;
  check "a cell swapped between two blocks moves the digest" false
    (String.equal base (digest (with_cells im swapped)));
  (* two sign flips must not cancel: a fold whose multiply only carries
     upward would see the same high bit toggled twice *)
  let unsigned = Array.copy im.Migrate.Wire.i_cells in
  unsigned.(4) <- Value.Vfloat 0.0;
  unsigned.(5) <- Value.Vfloat 0.0;
  check "-0.0 -> 0.0 in two cells moves the digest" false
    (String.equal base (digest (with_cells im unsigned)))

let test_digest_nan_and_metadata () =
  let im = pinned_image in
  let nan_bits = 0x7ff80000deadbeefL in
  let nan_cell () = Value.Vfloat (Int64.float_of_bits nan_bits) in
  check_str "NaN-identical images share a digest"
    (digest (with_cell im 4 (nan_cell ())))
    (digest (with_cell im 4 (nan_cell ())));
  check "a NaN with another payload is another cell" false
    (String.equal
       (digest (with_cell im 4 (nan_cell ())))
       (digest
          (with_cell im 4
             (Value.Vfloat (Int64.float_of_bits (Int64.succ nan_bits))))));
  let base = digest im in
  List.iter
    (fun (what, v) -> check_str (what ^ ": digest unchanged") base (digest v))
    (let open Migrate.Wire in
     [
       "no MASM", { im with i_masm = None };
       "other MASM", { im with i_masm = Some "another binary" };
       "epoch 0", { im with i_epoch = 0 };
       "epoch 8", { im with i_epoch = 8 };
       "no dspec context", { im with i_dspec = None };
       ( "other dspec context",
         { im with
           i_dspec =
             Some
               { x_txn = 9; x_root = 0; x_coord_laddr = 5;
                 x_parts = [ 1, 2; 4, 0 ] } } );
     ]);
  (* and the fields beside the cells still count *)
  List.iter
    (fun (what, v) ->
      check (what ^ ": digest moves") false (String.equal base (digest v)))
    (let open Migrate.Wire in
     [
       "arch", { im with i_arch = "risc64" };
       "FIR digest", { im with i_digest = "fedcba9876543210" };
       "function table", { im with i_ftable = [ "main"; "f" ] };
       "pointer table", { im with i_ptable = [| 0; 8 |] };
       "empty spec", { im with i_spec = [] };
       ( "spec args",
         { im with
           i_spec =
             [ { Spec.Engine.s_entry = "f"; s_args = [ Value.Vint 2 ];
                 s_saved = [ 0, 0 ] } ] } );
       "menv", { im with i_menv = 0 };
       "entry", { im with i_entry = "main" };
       "label", { im with i_label = 3 };
       "one cell fewer", with_cells im (Array.sub im.i_cells 0 15);
     ])

(* ------------------------------------------------------------------ *)
(* Property: full vs baseline+delta round-trip over random mutations   *)
(* ------------------------------------------------------------------ *)

(* A worker whose state is a [cells]-slot array; between migration
   points it performs a seeded pseudo-random write sequence and churns
   short-lived allocations (so the GC runs over the dirty tracking). *)
let mutating_worker ~seed ~cells ~rounds ~writes =
  compile_c
    (Printf.sprintf
       {|
int main() {
  int n = %d;
  int *data = alloc_int(n);
  int i;
  for (i = 0; i < n; i = i + 1) data[i] = i * 3 + %d;
  int x = %d;
  int r;
  for (r = 0; r < %d; r = r + 1) {
    migrate("mcc://hop");
    for (i = 0; i < %d; i = i + 1) {
      x = (x * 75 + 74) %% 65537;
      data[x %% n] = data[x %% n] + x;
    }
    int *tmp = alloc_int(64);
    for (i = 0; i < 64; i = i + 1) tmp[i] = x + i;
    data[0] = data[0] + tmp[63];
  }
  int acc = 0;
  for (i = 0; i < n; i = i + 1) acc = (acc + data[i]) %% 1000003;
  return acc;
}
|}
       cells seed seed rounds writes)

let run_to_migration proc =
  match Vm.Interp.run proc with
  | Vm.Process.Migrating _ -> ()
  | _ -> Alcotest.fail "worker did not reach a migration point"

let finish_locally proc =
  let rec go () =
    match proc.Vm.Process.status with
    | Vm.Process.Running ->
      ignore (Vm.Interp.run proc);
      go ()
    | Vm.Process.Migrating _ ->
      Vm.Process.migration_failed proc;
      go ()
    | Vm.Process.Exited n -> n
    | Vm.Process.Trapped m -> Alcotest.failf "worker trapped: %s" m
  in
  go ()

let test_delta_roundtrip_property () =
  List.iter
    (fun seed ->
      let rounds = 4 in
      let fir = mutating_worker ~seed ~cells:2000 ~rounds ~writes:40 in
      let proc = Vm.Process.create fir in
      run_to_migration proc;
      let baseline =
        ref (Migrate.Pack.pack_request ~with_binary:false proc)
      in
      let last = ref None in
      for _hop = 2 to rounds do
        Vm.Process.migration_failed proc;
        run_to_migration proc;
        let packed = Migrate.Pack.pack_request ~with_binary:false proc in
        let digest =
          Migrate.Wire.image_digest !baseline.Migrate.Pack.p_image
        in
        (match
           Migrate.Pack.delta ~baseline:!baseline.Migrate.Pack.p_image
             ~base_digest:digest packed
         with
        | None -> Alcotest.fail "delta encoding impossible"
        | Some (dbytes, stats) ->
          check "delta ships fewer cells than the heap holds" true
            (stats.Migrate.Wire.ds_shipped_cells
            < stats.Migrate.Wire.ds_total_cells);
          (match Migrate.Wire.decode_packet dbytes with
          | Migrate.Wire.Full _ -> Alcotest.fail "delta decoded as full"
          | Migrate.Wire.Delta d ->
            let image =
              Migrate.Wire.apply_delta
                ~baseline:!baseline.Migrate.Pack.p_image d
            in
            (* the strong form: the reconstruction re-encodes to the
               exact bytes a full hop would have carried, so heap cells,
               pointer table and every other field are byte-identical *)
            check
              (Printf.sprintf "seed %d: reconstruction is byte-identical"
                 seed)
              true
              (String.equal
                 (Migrate.Wire.encode image)
                 packed.Migrate.Pack.p_bytes);
            last := Some image));
        baseline := packed
      done;
      (* resuming the delta-reconstructed image yields the same result
         as the process that never left *)
      match !last with
      | None -> Alcotest.fail "no hops ran"
      | Some image -> (
        match
          Migrate.Pack.unpack_image ~arch:Vm.Arch.cisc32
            ~bytes_len:(String.length (Migrate.Wire.encode image))
            image
        with
        | Error m -> Alcotest.failf "unpack of reconstruction: %s" m
        | Ok (proc2, _masm, _linked, _costs) ->
          let local = finish_locally proc in
          let resumed = finish_locally proc2 in
          check_int
            (Printf.sprintf "seed %d: post-resume results agree" seed)
            local resumed))
    [ 1; 2; 7; 42; 20260807 ]

(* The digest a pack keeps ([p_digest]) and the one a delta carries
   for its reconstruction ([d_new_digest]) must both be [image_digest]
   of the packed image, on every image a seeded walk packs, with and
   without a MASM payload. *)
let test_pack_digest_coupling () =
  List.iter
    (fun seed ->
      let rounds = 3 in
      let fir = mutating_worker ~seed ~cells:2000 ~rounds ~writes:40 in
      let proc = Vm.Process.create fir in
      run_to_migration proc;
      let previous = ref None in
      for hop = 1 to rounds do
        (* odd hops carry a MASM payload, even hops ship FIR only *)
        let packed =
          Migrate.Pack.pack_request ~with_binary:(hop mod 2 = 1) proc
        in
        let im = packed.Migrate.Pack.p_image in
        check_str
          (Printf.sprintf "seed %d hop %d: p_digest" seed hop)
          (Migrate.Wire.image_digest im) packed.Migrate.Pack.p_digest;
        (match !previous with
        | None -> ()
        | Some (base : Migrate.Pack.packed) -> (
          match
            Migrate.Pack.delta ~baseline:base.Migrate.Pack.p_image
              ~base_digest:base.Migrate.Pack.p_digest packed
          with
          | None -> Alcotest.fail "delta encoding impossible"
          | Some (dbytes, _) -> (
            match Migrate.Wire.decode_packet dbytes with
            | Migrate.Wire.Full _ -> Alcotest.fail "delta decoded as full"
            | Migrate.Wire.Delta d ->
              check_str
                (Printf.sprintf "seed %d hop %d: d_new_digest" seed hop)
                (Migrate.Wire.image_digest im) d.Migrate.Wire.d_new_digest)));
        previous := Some packed;
        if hop < rounds then begin
          Vm.Process.migration_failed proc;
          run_to_migration proc
        end
      done)
    [ 1; 7; 20260807 ]

(* A heterogeneous hop: the hop-1 image is packed on cisc32 with its
   binary, resumed on risc64, and hop 2 ships as a delta over the cisc32
   baseline.  The reconstruction is the risc64 image (architecture taken
   from the delta) and carries no MASM: cisc32's binary must never ride
   on a risc64 image. *)
let test_cross_arch_delta () =
  let fir = mutating_worker ~seed:5 ~cells:600 ~rounds:2 ~writes:30 in
  let proc = Vm.Process.create ~arch:Vm.Arch.cisc32 fir in
  run_to_migration proc;
  let p1 = Migrate.Pack.pack_request ~with_binary:true proc in
  check "the baseline carries a cisc32 binary" true
    (p1.Migrate.Pack.p_image.Migrate.Wire.i_masm <> None);
  let proc_r =
    match
      Migrate.Pack.unpack ~arch:Vm.Arch.risc64 p1.Migrate.Pack.p_bytes
    with
    | Ok (p, _, _, _) -> p
    | Error m -> Alcotest.failf "unpack on risc64: %s" m
  in
  run_to_migration proc_r;
  let p2 = Migrate.Pack.pack_request ~with_binary:true proc_r in
  let image =
    match
      Migrate.Pack.delta ~baseline:p1.Migrate.Pack.p_image
        ~base_digest:p1.Migrate.Pack.p_digest p2
    with
    | None -> Alcotest.fail "cross-architecture delta refused"
    | Some (dbytes, stats) -> (
      check "the delta ships fewer cells than the heap holds" true
        (stats.Migrate.Wire.ds_shipped_cells
        < stats.Migrate.Wire.ds_total_cells);
      match Migrate.Wire.decode_packet dbytes with
      | Migrate.Wire.Delta d ->
        Migrate.Wire.apply_delta ~baseline:p1.Migrate.Pack.p_image d
      | Migrate.Wire.Full _ -> Alcotest.fail "delta decoded as full")
  in
  check_str "rebuilt on the delta's architecture" "risc64"
    image.Migrate.Wire.i_arch;
  check "the baseline's binary is dropped" true
    (image.Migrate.Wire.i_masm = None);
  check "the rest is the risc64 image, byte for byte" true
    (String.equal
       (Migrate.Wire.encode image)
       (Migrate.Wire.encode
          { p2.Migrate.Pack.p_image with Migrate.Wire.i_masm = None }));
  let local = finish_locally proc_r in
  match
    Migrate.Pack.unpack_image ~arch:Vm.Arch.cisc32
      ~bytes_len:(String.length (Migrate.Wire.encode image))
      image
  with
  | Error m -> Alcotest.failf "unpack of the reconstruction: %s" m
  | Ok (resumed, _, _, _) ->
    check_int "resumed on cisc32, same result" local (finish_locally resumed)

(* ------------------------------------------------------------------ *)
(* Server: baseline cache, negotiation, invalidation                   *)
(* ------------------------------------------------------------------ *)


let pack_pair () =
  let fir = mutating_worker ~seed:9 ~cells:400 ~rounds:2 ~writes:25 in
  let proc = Vm.Process.create fir in
  run_to_migration proc;
  let p1 = Migrate.Pack.pack_request ~with_binary:false proc in
  Vm.Process.migration_failed proc;
  run_to_migration proc;
  let p2 = Migrate.Pack.pack_request ~with_binary:false proc in
  p1, p2

let delta_of_pair (p1 : Migrate.Pack.packed) p2 =
  let digest = Migrate.Wire.image_digest p1.Migrate.Pack.p_image in
  match
    Migrate.Pack.delta ~baseline:p1.Migrate.Pack.p_image ~base_digest:digest
      p2
  with
  | Some (b, _) -> digest, b
  | None -> Alcotest.fail "delta encoding impossible"

let test_server_delta_accept () =
  let p1, p2 = pack_pair () in
  let server = Migrate.Server.(create_cfg Config.default Vm.Arch.cisc32) in
  (match Migrate.Server.handle server p1.Migrate.Pack.p_bytes with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "full image rejected: %s" m);
  let digest, dbytes = delta_of_pair p1 p2 in
  check "an accepted image is not retained" false
    (Migrate.Server.has_baseline server digest);
  (* the daemon that packed p1 is the one that retains it *)
  ignore
    (Migrate.Server.remember_baseline ~digest server p1.Migrate.Pack.p_image);
  check "the delta travels smaller" true
    (String.length dbytes < String.length p2.Migrate.Pack.p_bytes);
  (match Migrate.Server.handle server dbytes with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "delta rejected: %s" m);
  let m = Migrate.Server.metrics server in
  check_int "both hops accepted" 2
    (Obs.Metrics.counter_value m "server.accepted");
  check_int "the delta's bytes ledgered" (String.length dbytes)
    (Obs.Metrics.counter_value m "migrate.bytes_delta");
  check "the reconstruction is not retained either" false
    (Migrate.Server.has_baseline server
       (Migrate.Wire.image_digest p2.Migrate.Pack.p_image))

(* A fresh server that accepted the full p1 but was never handed it as
   a baseline refuses the delta over it, and still serves full images. *)
let test_server_unknown_baseline () =
  let p1, p2 = pack_pair () in
  let server = Migrate.Server.(create_cfg Config.default Vm.Arch.cisc32) in
  (match Migrate.Server.handle server p1.Migrate.Pack.p_bytes with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "full image rejected: %s" m);
  let digest, dbytes = delta_of_pair p1 p2 in
  check "negotiation reports no baseline" false
    (Migrate.Server.has_baseline server digest);
  (match Migrate.Server.handle server dbytes with
  | Ok _ -> Alcotest.fail "delta accepted without its baseline"
  | Error m ->
    check_str "rejection names the missing baseline"
      ("unknown baseline " ^ digest) m);
  (match Migrate.Server.handle server p2.Migrate.Pack.p_bytes with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "full image after the refusal rejected: %s" m);
  let m = Migrate.Server.metrics server in
  check_int "the refusal was counted" 1
    (Obs.Metrics.counter_value m "server.rejected");
  check "full and delta bytes are ledgered separately" true
    (Obs.Metrics.counter_value m "migrate.bytes_full"
     = String.length p1.Migrate.Pack.p_bytes
       + String.length p2.Migrate.Pack.p_bytes
    && Obs.Metrics.counter_value m "migrate.bytes_delta"
       = String.length dbytes);
  (* the server keeps no delta hit/miss ledger: the refusal shows in
     [server.rejected] and [migrate.bytes_delta] only *)
  let rendered = Obs.Metrics.render m in
  List.iter
    (fun name ->
      check (name ^ " not registered") false (contains rendered name))
    [ "migrate.delta_hits"; "migrate.delta_misses"; "migrate.delta_hit_rate" ]

(* Every malformed delta is rejected by reconstruction, and through
   [Server.handle] over the baseline it names comes back as the same
   unknown-baseline rejection as a missing baseline. *)
let test_apply_delta_rejects () =
  let p1, p2 = pack_pair () in
  let baseline = p1.Migrate.Pack.p_image in
  let d =
    match
      Migrate.Pack.delta ~baseline ~base_digest:p1.Migrate.Pack.p_digest p2
    with
    | None -> Alcotest.fail "delta encoding impossible"
    | Some (dbytes, _) -> (
      match Migrate.Wire.decode_packet dbytes with
      | Migrate.Wire.Delta d -> d
      | Migrate.Wire.Full _ -> Alcotest.fail "delta decoded as full")
  in
  (* the untampered delta applies, so each case fails for its own fault *)
  let rebuilt = Migrate.Wire.apply_delta ~baseline d in
  (* the digest an unchecked reconstruction would arrive at: with it, the
     structural checks and not the digest comparison must reject *)
  let forged cells =
    Migrate.Wire.image_digest { rebuilt with Migrate.Wire.i_cells = cells }
  in
  let absent = Array.length baseline.Migrate.Wire.i_ptable + 100 in
  let idx =
    match d.Migrate.Wire.d_blocks with
    | (Migrate.Wire.Dcopy i | Migrate.Wire.Dpatch { idx = i; _ }) :: _ -> i
    | _ -> Alcotest.fail "first block is not inherited from the baseline"
  in
  let size =
    match
      baseline.Migrate.Wire.i_cells.(baseline.Migrate.Wire.i_ptable.(idx)
                                     + Heap.h_size)
    with
    | Value.Vint n -> n
    | _ -> Alcotest.fail "non-integer size header"
  in
  let overrun_cells = Array.copy rebuilt.Migrate.Wire.i_cells in
  overrun_cells.(rebuilt.Migrate.Wire.i_ptable.(idx) + Heap.header_cells
                 + size - 1) <- Value.Vint 0;
  let overrun =
    List.map
      (function
        | Migrate.Wire.Dcopy i | Migrate.Wire.Dpatch { idx = i; _ }
          when i = idx ->
          Migrate.Wire.Dpatch
            { idx; ranges = [ size - 1, [| Value.Vint 0; Value.Vint 0 |] ] }
        | b -> b)
      d.Migrate.Wire.d_blocks
  in
  let cases =
    let open Migrate.Wire in
    [
      ( "copy of an absent block",
        { d with d_blocks = Dcopy absent :: d.d_blocks } );
      ( "patch of an absent block",
        { d with
          d_blocks =
            Dpatch { idx = absent; ranges = [ 0, [| Value.Vint 1 |] ] }
            :: d.d_blocks } );
      ( "patch range overruns its block",
        { d with d_blocks = overrun; d_new_digest = forged overrun_cells } );
      ( "literal block with a bad tag",
        { d with
          d_blocks = Dlit { idx = absent; tag = 9; cells = [||] } :: d.d_blocks;
          d_new_digest =
            forged
              (Array.append
                 [| Value.Vint absent; Value.Vint 9; Value.Vint 0;
                    Value.Vint 0 |]
                 rebuilt.i_cells) } );
      ( "tampered reconstruction digest",
        { d with
          d_new_digest =
            String.map (fun c -> if c = '0' then '1' else '0') d.d_new_digest
        } );
    ]
  in
  let server = Migrate.Server.(create_cfg Config.default Vm.Arch.cisc32) in
  ignore
    (Migrate.Server.remember_baseline ~digest:p1.Migrate.Pack.p_digest server
       baseline);
  List.iter
    (fun (what, bad) ->
      check (what ^ ": reconstruction raises Corrupt") true
        (match Migrate.Wire.apply_delta ~baseline bad with
        | _ -> false
        | exception Migrate.Wire.Corrupt _ -> true);
      match Migrate.Server.handle server (Migrate.Wire.encode_delta bad) with
      | Ok _ -> Alcotest.failf "%s: server accepted it" what
      | Error m ->
        check_str (what ^ ": server answers unknown baseline")
          ("unknown baseline " ^ p1.Migrate.Pack.p_digest) m)
    cases;
  check_int "every refusal counted" (List.length cases)
    (Obs.Metrics.counter_value (Migrate.Server.metrics server)
       "server.rejected")

let test_baseline_lru_bound () =
  let p1, p2 = pack_pair () in
  let server =
    Migrate.Server.(
      create_cfg { Config.default with baseline_cache = 1 } Vm.Arch.cisc32)
  in
  let d1 = Migrate.Server.remember_baseline server p1.Migrate.Pack.p_image in
  check "first baseline held" true (Migrate.Server.has_baseline server d1);
  let d2 = Migrate.Server.remember_baseline server p2.Migrate.Pack.p_image in
  check "bound is enforced: stalest was evicted" false
    (Migrate.Server.has_baseline server d1);
  check "newest survives" true (Migrate.Server.has_baseline server d2);
  let off =
    Migrate.Server.(
      create_cfg { Config.default with baseline_cache = 0 } Vm.Arch.cisc32)
  in
  let d = Migrate.Server.remember_baseline off p1.Migrate.Pack.p_image in
  check "cache 0 retains nothing" false (Migrate.Server.has_baseline off d)

(* A FIFO would pass the capacity-1 test above: at capacity 2,
   remembering a held baseline again must save it from the next
   eviction. *)
let test_baseline_lru_order () =
  let proc =
    Vm.Process.create (mutating_worker ~seed:9 ~cells:400 ~rounds:3 ~writes:25)
  in
  let next_image () =
    run_to_migration proc;
    let p = Migrate.Pack.pack_request ~with_binary:false proc in
    Vm.Process.migration_failed proc;
    p.Migrate.Pack.p_image
  in
  let a = next_image () in
  let b = next_image () in
  let c = next_image () in
  let server =
    Migrate.Server.(
      create_cfg { Config.default with baseline_cache = 2 } Vm.Arch.cisc32)
  in
  let remember im = Migrate.Server.remember_baseline server im in
  let da = remember a in
  let db = remember b in
  ignore (remember a);
  let dc = remember c in
  check "a survives: remembering it again made b the stalest" true
    (Migrate.Server.has_baseline server da);
  check "b was evicted" false (Migrate.Server.has_baseline server db);
  check "c is held" true (Migrate.Server.has_baseline server dc)

(* ------------------------------------------------------------------ *)
(* Cluster: delta shipping end-to-end                                  *)
(* ------------------------------------------------------------------ *)

(* Bounce node0 <-> node1 five times, mutating a slice of a 4000-slot
   array between hops: hop 1 is cold (full), every later hop finds its
   baseline on the other side. *)
let bouncing_worker =
  {|
int main() {
  int n = 4000;
  int *data = alloc_int(n);
  int i;
  for (i = 0; i < n; i = i + 1) data[i] = i * 5;
  int r;
  for (r = 0; r < 5; r = r + 1) {
    for (i = 0; i < 60; i = i + 1) {
      data[(r * 60 + i) % n] = data[(r * 60 + i) % n] + r + 1;
    }
    if (r % 2 == 0) { migrate("mcc://node1"); }
    else { migrate("mcc://node0"); }
  }
  int acc = 0;
  for (i = 0; i < n; i = i + 1) acc = (acc + data[i]) % 1000003;
  return acc;
}
|}

let bounce ?(arches = Net.Cluster.Config.default.Net.Cluster.Config.arches)
    ~delta () =
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with
        node_count = 2;
        seed = 5;
        net = Some (Net.Simnet.create ~latency_us:5.0 ());
        delta;
        arches }
  in
  let pid =
    Net.Cluster.spawn cluster ~node_id:0 (compile_c bouncing_worker)
  in
  let _ = Net.Cluster.run cluster in
  let code =
    Net.Cluster.statuses cluster
    |> List.filter_map (fun (_, _, _, s) ->
           match s with Vm.Process.Exited n when n <> 0 -> Some n | _ -> None)
  in
  ignore pid;
  code, migrate_dones cluster, cluster

(* A counter summed over every node's daemon registry. *)
let daemon_count cluster name =
  List.init (Net.Cluster.node_count cluster) (fun i ->
      Obs.Metrics.counter_value
        (Migrate.Server.metrics (Net.Cluster.node cluster i).Net.Cluster.daemon)
        name)
  |> List.fold_left ( + ) 0

(* A delta is shipped only over a baseline the receiver was seen to
   hold, so no daemon ever refuses one. *)
let check_no_refused_delta cluster =
  check_int "no daemon refused a delta" 0
    (daemon_count cluster "server.rejected")

(* hop 1 is cold (a full image), hops 2..5 are deltas, and the
   receiving daemons accept every hop and every delta byte shipped *)
let check_bounce_hops cluster =
  let m = Net.Cluster.metrics cluster in
  check_int "hop 1 is cold" 1
    (Obs.Metrics.counter_value m "migrate.delta_misses");
  check_int "hop 1 is cold, hops 2..5 are deltas" 4
    (Obs.Metrics.counter_value m "migrate.delta_hits");
  check_no_refused_delta cluster;
  check_int "the daemons accepted every landed hop"
    (Obs.Metrics.counter_value m "cluster.migrations_ok")
    (daemon_count cluster "server.accepted");
  check_int "the daemons received every delta byte shipped"
    (Obs.Metrics.counter_value m "migrate.bytes_delta")
    (daemon_count cluster "migrate.bytes_delta")

let test_cluster_delta_bounce () =
  let code_on, hops_on, c_on = bounce ~delta:true () in
  let code_off, _, c_off = bounce ~delta:false () in
  let m_on = Net.Cluster.metrics c_on and m_off = Net.Cluster.metrics c_off in
  check "delta on and off finish with identical results" true
    (code_on = code_off && code_on <> []);
  check "delta off never ships a delta" true
    (Obs.Metrics.counter_value m_off "migrate.delta_hits" = 0);
  check_bounce_hops c_on;
  (match hops_on with
  | (_, cold, _) :: warm ->
    check_int "four warm hops" 4 (List.length warm);
    List.iter
      (fun (_, bytes, _) ->
        check "every warm delta hop is smaller than the cold hop" true
          (bytes < cold))
      warm
  | [] -> Alcotest.fail "no cold hop");
  check "delta bytes ledgered on the cluster registry" true
    (Obs.Metrics.counter_value m_on "migrate.bytes_delta" > 0
    && Obs.Metrics.counter_value m_off "migrate.bytes_delta" = 0);
  check "hit rate reflects 4/5 delta hops" true
    (let r = Obs.Metrics.gauge_read m_on "migrate.delta_hit_rate" in
     r >= 0.79 && r <= 0.81)

(* The same bounce between a cisc32 and a risc64 node: every hop
   changes architecture, and every warm hop still ships as a delta. *)
let test_cluster_mixed_arch_bounce () =
  let arches = [| Vm.Arch.cisc32; Vm.Arch.risc64 |] in
  let code_on, _, c_on = bounce ~arches ~delta:true () in
  let code_off, _, _ = bounce ~arches ~delta:false () in
  check "delta on and off finish with identical exit codes" true
    (code_on = code_off && code_on <> []);
  check_bounce_hops c_on

(* Lost and duplicated DELTA hops under the fault plan: the retry
   protocol and idempotent receive must keep exactly-once semantics, and
   a retransmitted delta still lands on a daemon that holds its
   baseline. *)
let faulty_delta_bounce seed =
  let plan =
    { Net.Faults.none with
      Net.Faults.f_seed = seed;
      f_loss = 0.3;
      f_dup = 0.25;
      f_retransmit_s = 0.002 }
  in
  let cluster = mk_cluster ~nodes:2 ~seed plan in
  let pid =
    Net.Cluster.spawn cluster ~node_id:0 (compile_c bouncing_worker)
  in
  ignore pid;
  let _ = Net.Cluster.run cluster in
  let exited =
    Net.Cluster.statuses cluster
    |> List.filter_map (fun (_, _, _, s) ->
           match s with
           | Vm.Process.Exited n when n <> 0 -> Some n
           | _ -> None)
  in
  check
    (Printf.sprintf "seed %d: exactly one worker finished" seed)
    true
    (List.length exited = 1);
  check_no_refused_delta cluster;
  exited

let test_faulty_delta_hops () =
  let reference, _, _ = bounce ~delta:true () in
  List.iter
    (fun seed ->
      let exited = faulty_delta_bounce seed in
      check
        (Printf.sprintf "seed %d: result survives lost/dup delta hops"
           seed)
        true
        (exited = reference))
    [ 3; 20260807 ]

(* ------------------------------------------------------------------ *)
(* Incremental checkpoints: chain segments + resurrection replay       *)
(* ------------------------------------------------------------------ *)

let checkpointing_worker =
  {|
int main() {
  int n = 3000;
  int *data = alloc_int(n);
  int i;
  for (i = 0; i < n; i = i + 1) data[i] = i;
  int r;
  for (r = 0; r < 4; r = r + 1) {
    for (i = 0; i < 40; i = i + 1) {
      data[(r * 40 + i) % n] = data[(r * 40 + i) % n] * 2 + 1;
    }
    migrate("checkpoint://ck");
  }
  int acc = 0;
  for (i = 0; i < n; i = i + 1) acc = (acc + data[i]) % 1000003;
  return acc;
}
|}

let test_incremental_checkpoints () =
  let fir = compile_c checkpointing_worker in
  let run ~delta =
    let cluster =
      Net.Cluster.create_cfg
        { Net.Cluster.Config.default with node_count = 2; seed = 5; delta }
    in
    let pid = Net.Cluster.spawn cluster ~node_id:0 fir in
    let _ = Net.Cluster.run cluster in
    let code =
      match Net.Cluster.exit_code cluster pid with
      | Some n -> n
      | None -> Alcotest.fail "worker did not finish"
    in
    cluster, code
  in
  let cluster, code = run ~delta:true in
  let _, code_full = run ~delta:false in
  check_int "delta checkpoints do not change the result" code_full code;
  let st = Net.Cluster.storage cluster in
  check "the base segment exists" true (Net.Storage.exists st "ck");
  check "later checkpoints became chain segments" true
    (Net.Storage.exists st "ck.d1");
  (* delta segments are the checkpoints stored under a [.dN] name *)
  let deltas, full =
    List.partition
      (fun (path, _) ->
        String.starts_with ~prefix:".d" (Filename.extension path))
      (checkpoints cluster)
  in
  check "at least one checkpoint shipped as a delta" true (deltas <> []);
  check "delta segments are smaller than the full checkpoint" true
    (match full with
    | (_, f) :: _ -> List.for_all (fun (_, d) -> d < f) deltas
    | [] -> false);
  (* resurrection replays base + deltas and resumes from the LAST
     checkpoint: the revived worker finishes with the same result *)
  match Net.Cluster.resurrect cluster ~node_id:1 ~path:"ck" with
  | Error m -> Alcotest.failf "resurrect: %s" m
  | Ok pid2 ->
    let _ = Net.Cluster.run cluster in
    (match Net.Cluster.entry_of_pid cluster pid2 with
    | Some e ->
      check "replayed chain resumes and finishes identically" true
        (e.Net.Cluster.proc.Vm.Process.status = Vm.Process.Exited code)
    | None -> Alcotest.fail "resurrected pid lost")

(* Eleven checkpoints to one path walk the chain to its bound and past
   it: checkpoint 1 writes the base image, 2..9 append [ck.d1..ck.d8],
   10 finds the chain full and rewrites [ck] in full (dropping every
   segment), and 11 starts a fresh [ck.d1]. *)
let long_checkpointing_worker =
  {|
int main() {
  int n = 3000;
  int *data = alloc_int(n);
  int i;
  for (i = 0; i < n; i = i + 1) data[i] = i;
  int r;
  for (r = 0; r < 11; r = r + 1) {
    for (i = 0; i < 20; i = i + 1) {
      data[(r * 20 + i) % n] = data[(r * 20 + i) % n] * 3 + r;
    }
    migrate("checkpoint://ck");
  }
  int acc = 0;
  for (i = 0; i < n; i = i + 1) acc = (acc + data[i]) % 1000003;
  return acc;
}
|}

let test_checkpoint_chain_bound () =
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with node_count = 2; seed = 5 }
  in
  let pid =
    Net.Cluster.spawn cluster ~node_id:0 (compile_c long_checkpointing_worker)
  in
  let _ = Net.Cluster.run cluster in
  let code =
    match Net.Cluster.exit_code cluster pid with
    | Some n -> n
    | None -> Alcotest.fail "worker did not finish"
  in
  check "base, eight segments, full rewrite, fresh segment" true
    (List.map fst (checkpoints cluster)
    = ("ck" :: List.init 8 (fun k -> Printf.sprintf "ck.d%d" (k + 1)))
      @ [ "ck"; "ck.d1" ]);
  let st = Net.Cluster.storage cluster in
  check "the store holds the rewritten base and one fresh segment" true
    (Net.Storage.list st = [ "ck"; "ck.d1" ]);
  for k = 2 to 8 do
    check
      (Printf.sprintf "stale segment ck.d%d removed by the full rewrite" k)
      false
      (Net.Storage.exists st (Printf.sprintf "ck.d%d" k))
  done;
  match Net.Cluster.resurrect cluster ~node_id:1 ~path:"ck" with
  | Error m -> Alcotest.failf "resurrect: %s" m
  | Ok pid2 ->
    let _ = Net.Cluster.run cluster in
    check "the rewritten chain resumes and finishes identically" true
      (Net.Cluster.exit_code cluster pid2 = Some code)

(* Three rounds, each dirtying its own 40 cells and then migrating to
   one path: the first two checkpoint to [ck], the third goes to [last]
   (by default a third checkpoint, so the chain is the base image and
   segments ck.d1, ck.d2). *)
let three_checkpoint_worker ?(last = "checkpoint://ck") () =
  Printf.sprintf
    {|
int main() {
  int n = 3000;
  int *data = alloc_int(n);
  int i;
  for (i = 0; i < n; i = i + 1) data[i] = i;
  int r;
  for (r = 0; r < 3; r = r + 1) {
    for (i = 0; i < 40; i = i + 1) data[r * 40 + i] = data[r * 40 + i] + 1;
    if (r < 2) { migrate("checkpoint://ck"); } else { migrate("%s"); }
  }
  return data[0];
}
|}
    last

let run_three_checkpoints ?last () =
  let cluster =
    Net.Cluster.create_cfg
      { Net.Cluster.Config.default with node_count = 2; seed = 5 }
  in
  let _ =
    Net.Cluster.spawn cluster ~node_id:0
      (compile_c (three_checkpoint_worker ?last ()))
  in
  let _ = Net.Cluster.run cluster in
  cluster

let resurrect_error cluster =
  match Net.Cluster.resurrect cluster ~node_id:1 ~path:"ck" with
  | Ok _ -> Alcotest.fail "resurrected a damaged chain"
  | Error m -> m

let stored st path =
  match Net.Storage.read st path with
  | Some (bytes, _) -> bytes
  | None -> Alcotest.failf "%s unreadable" path

(* A chain with a hole: with ck.d1 gone, resurrection must fail naming
   it, not stop at the hole and resume the base image as if it were the
   last checkpoint. *)
let test_chain_hole_fails_resurrection () =
  let cluster = run_three_checkpoints () in
  let st = Net.Cluster.storage cluster in
  check "base plus two segments" true
    (Net.Storage.list st = [ "ck"; "ck.d1"; "ck.d2" ]);
  Net.Storage.remove st "ck.d1";
  Alcotest.(check string) "the error names the segment"
    "checkpoint segment 1 of 2 unreadable" (resurrect_error cluster);
  check "the failed resurrection is traced" true
    (List.exists
       (fun (ev : Obs.Trace.event) ->
         ev.Obs.Trace.kind = Obs.Trace.Resurrect { path = "ck"; ok = false })
       (Obs.Trace.events (Net.Cluster.trace cluster)))

(* A full image where the chain expects a delta segment is refused,
   not resumed in place of the chain's end. *)
let test_chain_full_segment_fails () =
  let cluster = run_three_checkpoints () in
  let st = Net.Cluster.storage cluster in
  ignore (Net.Storage.write st "ck.d1" (stored st "ck"));
  Alcotest.(check string) "the error names the segment"
    "checkpoint segment 1 is not a delta image" (resurrect_error cluster)

(* Segments replayed out of order: ck.d2 does not patch the base image
   into the digest it claims, so the first replayed segment fails. *)
let test_chain_swapped_segments_fail () =
  let cluster = run_three_checkpoints () in
  let st = Net.Cluster.storage cluster in
  let d1 = stored st "ck.d1" and d2 = stored st "ck.d2" in
  ignore (Net.Storage.write st "ck.d1" d2);
  ignore (Net.Storage.write st "ck.d2" d1);
  let m = resurrect_error cluster in
  check ("segment 1 is named: " ^ m) true
    (String.starts_with ~prefix:"checkpoint segment 1: " m)

(* A suspend to a checkpointed path rewrites it as one full image and
   drops the chain's segments; resurrection resumes after the suspend,
   so the revived worker finishes instead of suspending again. *)
let test_suspend_drops_chain () =
  let cluster = run_three_checkpoints ~last:"suspend://ck" () in
  check "one full image, no stale segments" true
    (Net.Storage.list (Net.Cluster.storage cluster) = [ "ck" ]);
  match Net.Cluster.resurrect cluster ~node_id:1 ~path:"ck" with
  | Error m -> Alcotest.failf "resurrect: %s" m
  | Ok pid ->
    let _ = Net.Cluster.run cluster in
    check "the suspended image resumes and finishes" true
      (Net.Cluster.exit_code cluster pid = Some 1)

let suites =
  [
    ( "delta.codec",
      [
        Alcotest.test_case "value codec edges round-trip" `Quick
          test_codec_edges;
        Alcotest.test_case "float cells compare by bit pattern" `Quick
          test_cell_equal_float_bits;
        Alcotest.test_case "wire bytes and digests pinned" `Quick
          test_wire_bytes_pinned;
        Alcotest.test_case "writer matches the Buffer oracle" `Quick
          test_writer_matches_oracle;
        Alcotest.test_case "every single-cell mutation moves the digest"
          `Quick test_digest_cell_mutations;
        Alcotest.test_case "NaN images agree; MASM, epoch, dspec ignored"
          `Quick test_digest_nan_and_metadata;
      ] );
    ( "delta.roundtrip",
      [
        Alcotest.test_case
          "random mutation sequences: delta == full, resume agrees" `Quick
          test_delta_roundtrip_property;
        Alcotest.test_case "p_digest and d_new_digest == image_digest"
          `Quick test_pack_digest_coupling;
        Alcotest.test_case "risc64 delta over a cisc32 baseline" `Quick
          test_cross_arch_delta;
      ] );
    ( "delta.server",
      [
        Alcotest.test_case "full then delta accepted, digest-verified"
          `Quick test_server_delta_accept;
        Alcotest.test_case "unknown baseline rejected, full images still served"
          `Quick test_server_unknown_baseline;
        Alcotest.test_case "malformed deltas rejected as unknown baseline"
          `Quick test_apply_delta_rejects;
        Alcotest.test_case "baseline cache LRU order" `Quick
          test_baseline_lru_order;
        Alcotest.test_case "baseline cache is LRU-bounded" `Quick
          test_baseline_lru_bound;
      ] );
    ( "delta.cluster",
      [
        Alcotest.test_case "bounce ships deltas, same results as full"
          `Quick test_cluster_delta_bounce;
        Alcotest.test_case "cisc32/risc64 bounce ships deltas" `Quick
          test_cluster_mixed_arch_bounce;
        Alcotest.test_case "lost/dup delta hops: no double spawn" `Quick
          test_faulty_delta_hops;
        Alcotest.test_case "incremental checkpoints replay at resurrect"
          `Quick test_incremental_checkpoints;
        Alcotest.test_case "a chain with a hole fails resurrection" `Quick
          test_chain_hole_fails_resurrection;
        Alcotest.test_case "a full image as a segment fails resurrection"
          `Quick test_chain_full_segment_fails;
        Alcotest.test_case "swapped segments fail resurrection" `Quick
          test_chain_swapped_segments_fail;
        Alcotest.test_case "a suspend drops the chain's segments" `Quick
          test_suspend_drops_chain;
        Alcotest.test_case "a chain at its bound is rewritten in full"
          `Quick test_checkpoint_chain_bound;
      ] );
  ]
