(** Pre-resolved MASM images: the form {!Compile} translates into
    closures.

    [link] runs a one-time resolution pass over a {!Masm.image} and
    produces a shareable, process-independent representation in which
    every per-instruction lookup the emulator used to perform has been
    paid once:

    - function names are resolved to dense indices into [l_fns] (no
      [String_map.find_opt] per tail call);
    - switch tables are sorted key/target arrays searched by binary
      search (no [List.assoc_opt] walk);
    - immediates are pre-built {!Runtime.Value.t}s (no allocation per
      operand fetch) — function immediates stay symbolic ({!Rfun} /
      {!Rfunname}) because a [Vfun] index is per-process state;
    - the static cycle cost of each instruction (its class cost plus the
      memory cost of every spill slot it touches) is folded into
      [l_cost], so the emulator charges a block with one addition per
      instruction and a single {!Process.charge_cycles} flush.

    A linked image is immutable and carries no process state, so the
    compiled image that embeds it (see [Migrate.Codecache]) is shared by
    every emulator instance executing that program on that
    architecture. *)

open Runtime

(** A pre-resolved operand.  Spill reads are charged statically via
    [l_cost], so the emulator's fetch is a bare array access. *)
type rop =
  | Rreg of int  (** register file slot *)
  | Rspill of int  (** spill slot *)
  | Rval of Value.t  (** pre-built immediate (never a function) *)
  | Rfun of int
      (** function immediate resolved to a linked-function index; the
          emulator maps it to the process's [Vfun] via a per-process
          table built once at creation *)
  | Rfunname of string
      (** function immediate whose name is not in the image (legal: the
          function table can be wider than the compiled image); resolved
          through the process's function table at each use, exactly as
          the unlinked emulator did *)

type rinstr =
  | Lmov of Masm.slot * rop
  | Lcast of Masm.slot * Fir.Types.ty * rop
  | Lunop of Fir.Ast.unop * Masm.slot * rop
  | Lbinop of Fir.Ast.binop * Masm.slot * rop * rop
  | Lalloc_tuple of Masm.slot * rop array
  | Lalloc_array of Masm.slot * rop * rop
  | Lalloc_string of Masm.slot * string
  | Lload of Masm.slot * rop * rop * int
  | Lstore of rop * rop * int * rop
  | Lext of Masm.slot * string * rop array * int
      (** dst, name, args, post-cost: the dst spill cost is charged
          AFTER the extern returns (the extern observes the process's
          cycle counter, so the flush boundary matters) *)
  | Ljmp of int
  | Ljz of rop * int
  | Lswitch of rop * int array * int array * int
      (** scrutinee, sorted case keys, matching targets, default *)
  | Ltail of rop * rop array
  | Lexit of rop
  | Lmigrate of int * rop * rop * rop array
  | Lspeculate of rop * rop array
  | Lcommit of rop * rop * rop array
  | Lrollback of rop * rop

type lfn = {
  l_name : string;
  l_params : Masm.slot array;
  l_spills : int;  (** spill slots this function uses *)
  l_regs_used : int;  (** registers [0, l_regs_used) are live on entry *)
  l_entry_cost : int;
      (** Call_ret plus the memory cost of installing spill parameters *)
  l_code : rinstr array;
  l_cost : int array;
      (** static cycle cost per pc: class cost + spill traffic *)
}

type image = {
  l_fns : lfn array;  (** dense, indexed by linked-function index *)
  l_index : (string, int) Hashtbl.t;
  l_max_spills : int;  (** max [l_spills] over [l_fns] (frame sizing) *)
}

val link : Masm.image -> image
(** Pure resolution pass; [O(instructions)].
    @raise Invalid_argument if the image names an unknown architecture. *)

val instr_count : image -> int
