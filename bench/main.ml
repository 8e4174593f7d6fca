(* The benchmark harness: regenerates every result in the paper's
   evaluation (Section 5 and Figures 1-2) and runs the perf meters.

     dune exec bench/main.exe            # the default set
     dune exec bench/main.exe e1 e3 f2   # a subset

   Each experiment prints the paper's reported numbers next to ours and
   shape verdicts; the run exits 1 if any verdict failed.

   Rows: (id, key, in the default run, bench).  e2/e3/e4 share one sweep
   under one key. *)

let meter m () = ignore (Bench.Kit.measure m)

let () =
  match Array.to_list Sys.argv with
  | _ :: "sample" :: args -> Sample.main args
  | _ ->
  Bench.Kit.main
    [
      "e1", "e1", true, Migration.e1;
      "e1c", "e1c", true, Migration.e1c;
      "e1d", "e1d", true, Migration.e1d;
      "e2", "e2_e4", true, Speculation.e2_e4;
      "e3", "e2_e4", false, Speculation.e2_e4;
      "e4", "e2_e4", false, Speculation.e2_e4;
      "e5", "e5", true, Speculation.e5;
      "f1", "f1", true, Speculation.f1;
      "f2", "f2", true, Grid.f2;
      "f2b", "f2b", true, Grid.f2b;
      "f3", "f3", true, Grid.f3;
      "f4", "f4", true, Grid.f4;
      "f4s", "f4s", false, Grid.f4s;
      "a1", "a1", true, Migration.a1;
      "a2", "a2", true, Speculation.a2;
      (* mailbox micro-benchmark, not part of the paper reproduction *)
      "m1", "m1", false, Speculation.m1;
      (* the scheduler's cost, gated by a count *)
      "s1", "s1", true, Bench.Meters.s1;
      (* perf meters: BENCH_<id>.json rows, gated by perfcheck *)
      "v1", "v1", true, meter Bench.Meters.v1;
      "t1", "t1", true, meter Bench.Meters.t1;
      "t2", "t2", true, meter Bench.Meters.t2;
      "f5", "f5", true, meter Bench.Meters.f5;
      (* every meter, then each speedup ratio against bench/baselines/ *)
      ( "perfcheck", "perfcheck", false,
        fun () -> Bench.Perfcheck.run Bench.Meters.all );
    ]
