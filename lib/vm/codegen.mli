(** FIR -> MASM code generation (paper, Section 3: elaborating the FIR to
    machine-specific assembly, introducing runtime safety checks).

    Register allocation is per-function — parameters then locals into the
    target's general-purpose registers, overflow into spill slots — so
    register pressure shows up in simulated cycle counts. *)

exception Codegen_error of string

val compile : ?arch:Arch.t -> Fir.Ast.program -> Masm.image

(** {2 Simulated compilation costs}

    Calibrated against the paper's reported recompilation times; see
    EXPERIMENTS.md ("Calibration"). *)

val compile_cycles_per_node : int
val simulated_compile_cycles : Fir.Ast.program -> int

val link_cycles_per_instr : int
val simulated_link_cycles : Masm.image -> int
(** Linking the compiled code with the resume stub (paper, Section
    4.2.2) — charged on both migration paths. *)
