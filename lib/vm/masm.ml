(* MASM: the virtual machine instruction set targeted by the code
   generator.

   MASM stands in for the paper's machine-specific assembly (IA32 /
   simulated RISC).  It is a register machine: each function gets the
   target architecture's general-purpose registers plus spill slots in a
   frame; FIR variables are assigned to slots by the code generator.
   Heap access instructions perform the pointer-table validation sequence
   of Section 4.1.1 before touching memory (the emulator enforces it by
   construction — [Heap.read]/[Heap.write] validate).

   A compiled image can be serialized: this is the payload of the paper's
   "binary migration" fast path between machines of the SAME architecture.
   Cross-architecture migration must ship FIR and recompile. *)

type slot = Reg of int | Spill of int

type imm =
  | Iunit
  | Iint of int
  | Ifloat of float
  | Ibool of bool
  | Ienum of int * int
  | Ifun of string
  | Inil

type operand = Slot of slot | Imm of imm

type instr =
  | Mov of slot * operand
  | Cast of slot * Fir.Types.ty * operand (* checked downcast from any *)
  | Unop of Fir.Ast.unop * slot * operand
  | Binop of Fir.Ast.binop * slot * operand * operand
  | Alloc_tuple of slot * operand list
  | Alloc_array of slot * operand * operand (* size, init *)
  | Alloc_string of slot * string
  | Load of slot * operand * operand * int (* dst, ptr, dyn idx, static off *)
  | Store of operand * operand * int * operand (* ptr, dyn idx, static, value *)
  | Ext of slot * string * operand list
  | Jmp of int
  | Jz of operand * int (* branch to target if the operand is false *)
  | Switch of operand * (int * int) list * int (* value cases, default pc *)
  | Tail_call of operand * operand list
  | Exit of operand
  | Migrate of int * operand * operand * operand list
  | Speculate of operand * operand list
  | Commit of operand * operand * operand list
  | Rollback of operand * operand

type fn = {
  fn_name : string;
  fn_params : slot list;
  fn_code : instr array;
  fn_spills : int; (* spill-slot count for the frame *)
}

module String_map = Map.Make (String)

type image = {
  im_arch : string;
  im_main : string;
  im_fns : fn String_map.t;
}

let fn image name = String_map.find_opt name image.im_fns

let fn_exn image name =
  match fn image name with
  | Some f -> f
  | None -> invalid_arg ("Masm.fn_exn: unknown function " ^ name)

let instr_count image =
  String_map.fold (fun _ f acc -> acc + Array.length f.fn_code) image.im_fns 0

(* ------------------------------------------------------------------ *)
(* Pretty-printing (for diagnostics and the CLI's -S flag)             *)
(* ------------------------------------------------------------------ *)

let slot_to_string = function
  | Reg r -> Printf.sprintf "r%d" r
  | Spill s -> Printf.sprintf "[sp+%d]" s

let imm_to_string = function
  | Iunit -> "()"
  | Iint n -> string_of_int n
  | Ifloat f -> Printf.sprintf "%g" f
  | Ibool b -> string_of_bool b
  | Ienum (c, v) -> Printf.sprintf "enum[%d]{%d}" c v
  | Ifun f -> "@" ^ f
  | Inil -> "nil"

let operand_to_string = function
  | Slot s -> slot_to_string s
  | Imm i -> imm_to_string i

let instr_to_string =
  let sl = slot_to_string and op = operand_to_string in
  let ops l = String.concat ", " (List.map operand_to_string l) in
  function
  | Mov (d, a) -> Printf.sprintf "mov   %s, %s" (sl d) (op a)
  | Cast (d, t, a) ->
    Printf.sprintf "cast  %s, %s : %s" (sl d) (op a) (Fir.Types.to_string t)
  | Unop (o, d, a) ->
    Printf.sprintf "un%-4s %s, %s" (Fir.Pp.unop_to_string o) (sl d) (op a)
  | Binop (o, d, a, b) ->
    Printf.sprintf "op%-4s %s, %s, %s" (Fir.Pp.binop_to_string o) (sl d)
      (op a) (op b)
  | Alloc_tuple (d, fields) ->
    Printf.sprintf "tupl  %s, (%s)" (sl d) (ops fields)
  | Alloc_array (d, n, i) ->
    Printf.sprintf "arr   %s, [%s x %s]" (sl d) (op n) (op i)
  | Alloc_string (d, s) -> Printf.sprintf "str   %s, %S" (sl d) s
  | Load (d, p, i, k) ->
    Printf.sprintf "load  %s, %s[%s+%d]" (sl d) (op p) (op i) k
  | Store (p, i, k, v) ->
    Printf.sprintf "store %s[%s+%d], %s" (op p) (op i) k (op v)
  | Ext (d, name, args) ->
    Printf.sprintf "ext   %s, %s(%s)" (sl d) name (ops args)
  | Jmp t -> Printf.sprintf "jmp   L%d" t
  | Jz (c, t) -> Printf.sprintf "jz    %s, L%d" (op c) t
  | Switch (v, cases, d) ->
    Printf.sprintf "swch  %s, {%s}, L%d" (op v)
      (String.concat "; "
         (List.map (fun (n, t) -> Printf.sprintf "%d->L%d" n t) cases))
      d
  | Tail_call (f, args) -> Printf.sprintf "tcall %s(%s)" (op f) (ops args)
  | Exit v -> Printf.sprintf "exit  %s" (op v)
  | Migrate (l, dst, f, args) ->
    Printf.sprintf "migr  [%d, %s] %s(%s)" l (op dst) (op f) (ops args)
  | Speculate (f, args) -> Printf.sprintf "spec  %s(%s)" (op f) (ops args)
  | Commit (l, f, args) ->
    Printf.sprintf "cmit  [%s] %s(%s)" (op l) (op f) (ops args)
  | Rollback (l, c) -> Printf.sprintf "rlbk  [%s, %s]" (op l) (op c)

let pp_fn fmt f =
  Format.fprintf fmt "%s(%s): %d spills@."
    f.fn_name
    (String.concat ", " (List.map slot_to_string f.fn_params))
    f.fn_spills;
  Array.iteri
    (fun pc i -> Format.fprintf fmt "  L%-3d %s@." pc (instr_to_string i))
    f.fn_code

let pp_image fmt image =
  Format.fprintf fmt "; arch %s, main %s@." image.im_arch image.im_main;
  String_map.iter (fun _ f -> pp_fn fmt f) image.im_fns

let image_to_string image = Format.asprintf "%a" pp_image image

(* ------------------------------------------------------------------ *)
(* Static opcode / adjacent-pair histograms                            *)
(* ------------------------------------------------------------------ *)

(* The evidence behind Compile's superinstruction set: which opcodes —
   and which straight-line pairs — actually dominate a compiled image.
   Binops carry their operator (a compare feeding a jz is the fusion
   candidate, an add is not), mirroring the pretty-printer mnemonics. *)
let opcode_name = function
  | Mov _ -> "mov"
  | Cast _ -> "cast"
  | Unop (o, _, _) -> "un" ^ Fir.Pp.unop_to_string o
  | Binop (o, _, _, _) -> "op" ^ Fir.Pp.binop_to_string o
  | Alloc_tuple _ -> "tuple"
  | Alloc_array _ -> "array"
  | Alloc_string _ -> "string"
  | Load _ -> "load"
  | Store _ -> "store"
  | Ext _ -> "ext"
  | Jmp _ -> "jmp"
  | Jz _ -> "jz"
  | Switch _ -> "switch"
  | Tail_call _ -> "tail"
  | Exit _ -> "exit"
  | Migrate _ -> "migrate"
  | Speculate _ -> "speculate"
  | Commit _ -> "commit"
  | Rollback _ -> "rollback"

let stats image =
  let ops = Hashtbl.create 64 and pairs = Hashtbl.create 64 in
  let bump tbl k =
    Hashtbl.replace tbl k
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  String_map.iter
    (fun _ f ->
      let code = f.fn_code in
      Array.iteri
        (fun i instr ->
          let n = opcode_name instr in
          bump ops n;
          if i + 1 < Array.length code then
            bump pairs (n ^ " ; " ^ opcode_name code.(i + 1)))
        code)
    image.im_fns;
  let sorted tbl =
    List.sort
      (fun (ka, a) (kb, b) ->
        if a <> b then Int.compare b a else String.compare ka kb)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  sorted ops, sorted pairs

(* ------------------------------------------------------------------ *)
(* Binary codec: the "binary migration" payload                        *)
(* ------------------------------------------------------------------ *)

open Fir.Serial

exception Corrupt = Fir.Serial.Corrupt

let magic = "MASM"

(* v3: rides on the Serial v4 tagged-stream list encoding *)
let version = 3

let put_slot buf = function
  | Reg r ->
    put_u8 buf 0;
    put_i64 buf r
  | Spill s ->
    put_u8 buf 1;
    put_i64 buf s

let get_slot r =
  match get_u8 r with
  | 0 -> Reg (get_i64 r)
  | 1 -> Spill (get_i64 r)
  | n -> raise (Corrupt (Printf.sprintf "bad slot tag %d" n))

let put_imm buf = function
  | Iunit -> put_u8 buf 0
  | Iint n ->
    put_u8 buf 1;
    put_i64 buf n
  | Ifloat f ->
    put_u8 buf 2;
    put_f64_exact buf f
  | Ibool b ->
    put_u8 buf 3;
    put_bool buf b
  | Ienum (c, v) ->
    put_u8 buf 4;
    put_i64 buf c;
    put_i64 buf v
  | Ifun f ->
    put_u8 buf 5;
    put_string buf f
  | Inil -> put_u8 buf 6

let get_imm r =
  match get_u8 r with
  | 0 -> Iunit
  | 1 -> Iint (get_i64 r)
  | 2 -> Ifloat (get_f64_exact r)
  | 3 -> Ibool (get_bool r)
  | 4 ->
    let c = get_i64 r in
    let v = get_i64 r in
    Ienum (c, v)
  | 5 -> Ifun (get_string r)
  | 6 -> Inil
  | n -> raise (Corrupt (Printf.sprintf "bad imm tag %d" n))

let put_operand buf = function
  | Slot s ->
    put_u8 buf 0;
    put_slot buf s
  | Imm i ->
    put_u8 buf 1;
    put_imm buf i

let get_operand r =
  match get_u8 r with
  | 0 -> Slot (get_slot r)
  | 1 -> Imm (get_imm r)
  | n -> raise (Corrupt (Printf.sprintf "bad operand tag %d" n))

let put_instr buf = function
  | Mov (d, a) ->
    put_u8 buf 0;
    put_slot buf d;
    put_operand buf a
  | Cast (d, t, a) ->
    put_u8 buf 18;
    put_slot buf d;
    put_ty buf t;
    put_operand buf a
  | Unop (o, d, a) ->
    put_u8 buf 1;
    put_u8 buf (unop_code o);
    put_slot buf d;
    put_operand buf a
  | Binop (o, d, a, b) ->
    put_u8 buf 2;
    put_u8 buf (binop_code o);
    put_slot buf d;
    put_operand buf a;
    put_operand buf b
  | Alloc_tuple (d, fields) ->
    put_u8 buf 3;
    put_slot buf d;
    put_list buf put_operand fields
  | Alloc_array (d, n, i) ->
    put_u8 buf 4;
    put_slot buf d;
    put_operand buf n;
    put_operand buf i
  | Alloc_string (d, s) ->
    put_u8 buf 5;
    put_slot buf d;
    put_string buf s
  | Load (d, p, i, k) ->
    put_u8 buf 6;
    put_slot buf d;
    put_operand buf p;
    put_operand buf i;
    put_i64 buf k
  | Store (p, i, k, v) ->
    put_u8 buf 7;
    put_operand buf p;
    put_operand buf i;
    put_i64 buf k;
    put_operand buf v
  | Ext (d, name, args) ->
    put_u8 buf 8;
    put_slot buf d;
    put_string buf name;
    put_list buf put_operand args
  | Jmp t ->
    put_u8 buf 9;
    put_i64 buf t
  | Jz (c, t) ->
    put_u8 buf 10;
    put_operand buf c;
    put_i64 buf t
  | Switch (v, cases, d) ->
    put_u8 buf 11;
    put_operand buf v;
    put_list buf
      (fun buf (n, t) ->
        put_i64 buf n;
        put_i64 buf t)
      cases;
    put_i64 buf d
  | Tail_call (f, args) ->
    put_u8 buf 12;
    put_operand buf f;
    put_list buf put_operand args
  | Exit v ->
    put_u8 buf 13;
    put_operand buf v
  | Migrate (l, dst, f, args) ->
    put_u8 buf 14;
    put_i64 buf l;
    put_operand buf dst;
    put_operand buf f;
    put_list buf put_operand args
  | Speculate (f, args) ->
    put_u8 buf 15;
    put_operand buf f;
    put_list buf put_operand args
  | Commit (l, f, args) ->
    put_u8 buf 16;
    put_operand buf l;
    put_operand buf f;
    put_list buf put_operand args
  | Rollback (l, c) ->
    put_u8 buf 17;
    put_operand buf l;
    put_operand buf c

let get_instr r =
  match get_u8 r with
  | 0 ->
    let d = get_slot r in
    Mov (d, get_operand r)
  | 1 ->
    let o = unop_of_code (get_u8 r) in
    let d = get_slot r in
    Unop (o, d, get_operand r)
  | 2 ->
    let o = binop_of_code (get_u8 r) in
    let d = get_slot r in
    let a = get_operand r in
    let b = get_operand r in
    Binop (o, d, a, b)
  | 3 ->
    let d = get_slot r in
    Alloc_tuple (d, get_list r get_operand)
  | 4 ->
    let d = get_slot r in
    let n = get_operand r in
    let i = get_operand r in
    Alloc_array (d, n, i)
  | 5 ->
    let d = get_slot r in
    Alloc_string (d, get_string r)
  | 6 ->
    let d = get_slot r in
    let p = get_operand r in
    let i = get_operand r in
    let k = get_i64 r in
    Load (d, p, i, k)
  | 7 ->
    let p = get_operand r in
    let i = get_operand r in
    let k = get_i64 r in
    let v = get_operand r in
    Store (p, i, k, v)
  | 8 ->
    let d = get_slot r in
    let name = get_string r in
    Ext (d, name, get_list r get_operand)
  | 9 -> Jmp (get_i64 r)
  | 10 ->
    let c = get_operand r in
    Jz (c, get_i64 r)
  | 11 ->
    let v = get_operand r in
    let cases =
      get_list r (fun r ->
          let n = get_i64 r in
          let t = get_i64 r in
          n, t)
    in
    Switch (v, cases, get_i64 r)
  | 12 ->
    let f = get_operand r in
    Tail_call (f, get_list r get_operand)
  | 13 -> Exit (get_operand r)
  | 14 ->
    let l = get_i64 r in
    let dst = get_operand r in
    let f = get_operand r in
    Migrate (l, dst, f, get_list r get_operand)
  | 15 ->
    let f = get_operand r in
    Speculate (f, get_list r get_operand)
  | 16 ->
    let l = get_operand r in
    let f = get_operand r in
    Commit (l, f, get_list r get_operand)
  | 17 ->
    let l = get_operand r in
    Rollback (l, get_operand r)
  | 18 ->
    let d = get_slot r in
    let t = get_ty r in
    Cast (d, t, get_operand r)
  | n -> raise (Corrupt (Printf.sprintf "bad instruction tag %d" n))

let encode image =
  let w = writer 4096 in
  put_string w image.im_arch;
  put_string w image.im_main;
  let fns = String_map.fold (fun _ f acc -> f :: acc) image.im_fns [] in
  put_list w
    (fun w f ->
      put_string w f.fn_name;
      put_list w put_slot f.fn_params;
      put_i64 w f.fn_spills;
      put_i64 w (Array.length f.fn_code);
      Array.iter (put_instr w) f.fn_code)
    fns;
  finish w ~magic ~version

let decode s =
  let r = unframe ~magic ~version ~what:"MASM" s in
  let im_arch = get_string r in
  let im_main = get_string r in
  let fns =
    get_list r (fun r ->
        let fn_name = get_string r in
        let fn_params = get_list r get_slot in
        let fn_spills = get_i64 r in
        let n = get_i64 r in
        if n < 0 || n > 10_000_000 then raise (Corrupt "bad code length");
        let fn_code = Array.init n (fun _ -> get_instr r) in
        { fn_name; fn_params; fn_spills; fn_code })
  in
  let im_fns =
    List.fold_left
      (fun acc f ->
        if String_map.mem f.fn_name acc then raise (Corrupt "duplicate fn");
        String_map.add f.fn_name f acc)
      String_map.empty fns
  in
  if r.pos <> String.length s then
    raise (Corrupt "trailing garbage in MASM body");
  { im_arch; im_main; im_fns }
