(** MASM: the virtual instruction set targeted by the code generator —
    the stand-in for the paper's machine-specific assembly (IA32 /
    simulated RISC).

    A register machine: each function gets the target's general-purpose
    registers plus numbered spill slots; heap access instructions perform
    the pointer-table validation of Section 4.1.1 by construction.  A
    compiled image serializes — that is the payload of the paper's
    "binary migration" fast path between machines of the SAME
    architecture (cross-architecture migration ships FIR instead). *)

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
  | Cast of slot * Fir.Types.ty * operand
      (** checked downcast from [any] *)
  | Unop of Fir.Ast.unop * slot * operand
  | Binop of Fir.Ast.binop * slot * operand * operand
  | Alloc_tuple of slot * operand list
  | Alloc_array of slot * operand * operand  (** size, init *)
  | Alloc_string of slot * string
  | Load of slot * operand * operand * int
      (** dst, block ptr, dynamic index, static offset *)
  | Store of operand * operand * int * operand
  | Ext of slot * string * operand list
  | Jmp of int
  | Jz of operand * int  (** branch to target if false *)
  | Switch of operand * (int * int) list * int
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
  fn_spills : int;
}

module String_map : Map.S with type key = string

type image = {
  im_arch : string;
  im_main : string;
  im_fns : fn String_map.t;
}

val fn : image -> string -> fn option
val fn_exn : image -> string -> fn
val instr_count : image -> int

(** {2 Pretty-printing (the CLI's [-S] output)} *)

val slot_to_string : slot -> string
val operand_to_string : operand -> string
val instr_to_string : instr -> string
val pp_fn : Format.formatter -> fn -> unit
val pp_image : Format.formatter -> image -> unit
val image_to_string : image -> string

(** {2 Static histograms (the [mcc masm --stats] dump)} *)

val opcode_name : instr -> string
(** Mnemonic used by the histograms; binops carry their operator
    (e.g. ["op<"]) so compare-and-branch pairs are visible. *)

val stats : image -> (string * int) list * (string * int) list
(** [(opcodes, pairs)]: occurrence counts of every opcode and of every
    adjacent instruction pair within a function body, sorted by
    descending count.  The pair histogram is the evidence {!Compile}'s
    superinstruction set is chosen from. *)

(** {2 Binary codec (the binary-migration payload)} *)

exception Corrupt of string

val encode : image -> string
val decode : string -> image
(** @raise Corrupt on bad magic/version/checksum/truncation, bytes after
    the frame, or trailing garbage inside the body. *)
