(** Closure compilation of linked MASM: the third execution tier.

    [compile] translates a {!Link.image} into arrays of OCaml closures —
    one entry closure per straight-line *run* of linked instructions,
    partial-evaluated over every static operand (register/spill indices,
    pre-built immediates, specialized operators, jump targets,
    per-instruction cycle costs).  The emulator's [Compiled] mode then
    executes [while st.pc >= 0 do st.pc <- code.(st.pc) st done].

    Runs are maximal segments broken only at control entry points (pc 0,
    branch/switch targets, the pc after an extern); the run compiler
    performs four optimizations the per-instruction tiers cannot:

    - {b unboxed forwarding}: a producer whose result representation is
      statically known ([op+], comparisons, casts to int…) writes its
      raw result into a scratch array ([itmps]/[ftmps], indexed by
      producer pc) and in-run consumers read it back without boxing or
      coercion checks;
    - {b store elimination}: the boxed destination-slot store is kept
      only if the value can escape the run (liveness at every branch
      target and the fall-through pc; block exits drop the frame);
    - {b checkpointed accounting}: non-trapping instructions defer their
      cycle/instruction-count bookkeeping into compile-time prefix sums
      that are materialized (inclusively) right before any closure that
      can trap, branch, or terminate — so [acc]/[nins] are exact at
      every observable point;
    - {b frame-clear elision}: definite-assignment analysis shrinks the
      per-call register/spill clears to the slots that may actually be
      read before being written;
    - {b pass-through tail calls}: a tail call to a static callee with
      the caller's parameter slots, whose operands are exactly those
      slots in order, in a function that never writes one of them,
      reuses the block's incoming argument list as the continuation and
      marks the {!state}; the next block entry then skips the arity
      check and the parameter install.

    Compiled code is observationally identical to the [Baseline]
    reference mode: same results, same retired-instruction counts,
    same cycle charges at the same observation boundaries, same traps.
    Runs never fuse across observation points ([Lext], the
    migration/speculation pseudo-instructions, block exits), and every
    interior pc of a run is unreachable by construction (it is not a
    branch target), enforced by a raising closure.

    A compiled image captures only static data; all per-process state
    travels in the {!state} record.  It is therefore process-independent
    and is cached in [Migrate.Codecache], so warm migration hops resume
    straight into compiled code. *)

open Runtime

exception Emulator_error of string
(** Raised when the program counter leaves the code array (shared with
    [Emulator], which rebinds it). *)

(** Per-process execution state threaded through every closure; one per
    emulator instance, while the closures are shared across processes. *)
type state = {
  regs : Value.t array;
  spills : Value.t array;
  itmps : int array;
      (** unboxed int/bool scratch, indexed by producer pc; sized by
          [c_tmps] *)
  ftmps : float array;  (** unboxed float scratch, indexed by producer pc *)
  proc : Process.t;
  heap : Heap.t;
  fun_values : Value.t option array;
      (** per-process resolution of the linked image's function names,
          indexed by linked-function index *)
  mutable extern : Process.handler;
      (** the host's externs; switch it with {!set_extern} only *)
  ext_fns : (Process.t -> Value.t list -> Value.t) array;
      (** one slot per [Lext] site of the image ({!ext_slots}): the
          function [extern] bound for the site, filled on the site's
          first call.  Per-host state lives here, never in the shared
          image. *)
  mutable acc : int;  (** pending static cycle charges *)
  mutable nins : int;  (** instructions retired this block *)
  mutable pc : int;
  mutable args_in : Value.t list;
      (** the argument list the current block was entered with *)
  mutable pass_name : string;
      (** the callee name the last pass-through tail stored in
          [proc.cont] *)
  mutable pass_idx : int;
      (** the pass-through mark: that callee's linked index, or [-1].
          Block entry clears it, and skips the parameter install only
          when it is set and [proc.cont] still holds, physically,
          [pass_name] and [args_in] *)
  mutable pass_taken : int;
      (** block entries that took the pass-through path: the dynamic
          count, per executing state, of the sites [c_passthrough]
          counts statically *)
}

type op = state -> int
(** One compiled run: executes, returns the next pc (negative at block
    exit). *)

type cfn = {
  cf_ops : op array;
      (** indexed by pc; run entries execute the whole run, interior pcs
          raise, and index [Array.length l_code] is a raising sentinel so
          falling off the end traps exactly like the interpretive bounds
          check *)
  cf_clear_regs : int array;
      (** registers within [0, l_regs_used) that must be cleared on
          entry (may be read before written) *)
  cf_clear_spills : int array;  (** same for the spill window *)
}

type image = {
  c_linked : Link.image;
  c_fns : cfn array;  (** parallel to [c_linked.l_fns] *)
  c_instrs : int;  (** instructions compiled *)
  c_super : int;  (** run entries covering two or more instructions *)
  c_passthrough : int;  (** tail sites compiled as pass-through *)
  c_ext_sites : int;  (** extern call sites, numbered across the image *)
  c_tmps : int;  (** scratch-array size every executing state needs *)
}

val compile : Link.image -> image
(** Pure translation pass; [O(instructions²)] worst-case for the
    per-function dataflow fixpoints, linear in practice. *)

val compile_masm : Masm.image -> image
(** [compile] after {!Link.link}. *)

val ext_slots : image -> (Process.t -> Value.t list -> Value.t) array
(** Fresh, empty [ext_fns] slots for a state executing [image]. *)

val set_extern : state -> Process.handler -> unit
(** Switch the state's handler and empty every [ext_fns] slot, so each
    site binds again, under the new handler, on its next call. *)
