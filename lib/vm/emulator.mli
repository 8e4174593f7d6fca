(** The MASM emulator — the "native-code runtime" stand-in.

    Executes compiled instruction arrays with a real register file and
    spill slots, charging the architecture's per-class cycle costs.
    Semantically identical to {!Interp} (tested differentially); the
    pseudo-instructions trap to the same {!Process} entry points. *)

exception Emulator_error of string

(** [Compiled] (the default) executes the closure-compiled image (see
    {!Compile}): one partial-evaluated closure per fused instruction
    segment, dispatch loop [st.pc <- code.(st.pc) st].
    [Baseline] is the per-instruction reference loop over the unlinked
    image, so the V1 bench measures before/after from one build and the
    equivalence tests can assert both modes produce identical results
    and identical cycle counts. *)
type mode = Baseline | Compiled

type t

val create :
  ?mode:mode -> ?compiled:Compile.image -> Masm.image -> Process.t -> t
(** [compiled] shares a closure-compiled image of [image] — e.g. from
    the recompilation cache — instead of compiling it here; [Compiled]
    mode compiles on demand when none is given, and [Baseline] ignores
    it.
    @raise Emulator_error if the image's architecture does not match the
    process's (cross-architecture execution requires recompilation). *)

val code : t -> Masm.image * Compile.image option
(** The image this emulator executes and its closure-compiled form
    ([None] exactly in [Baseline] mode) — e.g. to admit them to a
    recompilation cache without compiling them again. *)

val step : ?extern:Process.handler -> t -> unit
val run :
  ?extern:Process.handler -> ?max_steps:int -> t -> Process.status

val instructions : t -> int
(** Emulated instructions retired so far (the V1 MIPS meter). *)

val passthrough_taken : t -> int
(** Blocks entered through a pass-through tail so far, skipping the
    arity check and the parameter install (see {!Compile}); always 0 in
    [Baseline] mode.  The count lives in this emulator's own state, not
    in the compiled image it may share with others. *)

val context_switch_cycles : Arch.t -> int
(** Save + restore one full register file plus scheduler traps — the
    experiment E5 baseline. *)
