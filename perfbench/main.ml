(* perfbench: the repository benchmark.

     main.exe --workload serve|serve-spec|migrate|grid --seed N
              --seconds S --trace 0|1

   Prints human-readable tables, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with [--trace 0], the per-layer metrics with [--trace 1].  The traced
   run also writes its spans to perfbench/out/.  Exits 1 when any
   correctness check failed, 2 on bad arguments. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload serve|serve-spec|migrate|grid --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match Runner.find !workload, !seed, !seconds, !trace with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0.0 ->
    let o = Runner.run w ~seed ~seconds ~trace () in
    if trace then begin
      let dir = Filename.concat "perfbench" "out" in
      if Sys.file_exists "perfbench" && not (Sys.file_exists dir) then
        Sys.mkdir dir 0o755;
      if Sys.file_exists dir then begin
        let path =
          Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" w.Runner.name seed)
        in
        Spans.write_jsonl path;
        Printf.printf "spans of every traced batch: %s\n" path
      end
    end;
    print_endline
      (Report.json_line ~correct:o.Runner.correct ~attempted:o.Runner.attempted
         ~failed:o.Runner.failed o.Runner.metrics);
    if not o.Runner.correct then exit 1
  | _ -> usage ()
