(* The speedup-ratio regression gate.  Every meter runs once, applies
   its own verdicts and writes BENCH_<id>.json; then each case's ratio
   is compared against the committed bench/baselines/BENCH_<id>.json.
   A ratio below 70 % of the committed one fails, and so does a meter
   with no committed baseline, a committed case the fresh run lacks, or
   a fresh case with no committed ratio. *)

let tolerance = 0.7

(* prints one line per case; true when every case passes *)
let gate (m : Kit.meter) ~committed ~fresh =
  match committed with
  | None ->
    Printf.printf "  %s: no baseline at bench/baselines/BENCH_%s.json [FAIL]\n"
      m.id m.id;
    false
  | Some committed ->
    let base = Kit.ratios m.ratio committed in
    let fresh = Kit.ratios m.ratio fresh in
    let cases =
      List.sort_uniq compare (List.map fst base @ List.map fst fresh)
    in
    List.for_all Fun.id
      (List.map
         (fun case ->
           match List.assoc_opt case base, List.assoc_opt case fresh with
           | Some b, Some x ->
             let ok = x >= tolerance *. b in
             Printf.printf "  %s %s/%s: speedup %.2fx vs committed %.2fx %s\n"
               m.id m.id case x b
               (if ok then "[PASS]" else "[FAIL: regressed > 30%]");
             ok
           | Some _, None ->
             Printf.printf "  %s: case %s/%s missing from fresh run [FAIL]\n"
               m.id m.id case;
             false
           | None, _ ->
             Printf.printf "  %s: case %s/%s has no committed ratio [FAIL]\n"
               m.id m.id case;
             false)
         cases)

let run meters =
  let fresh = List.map (fun m -> m, Kit.measure m) meters in
  Kit.section "PERFCHECK: speedup-ratio regression gate";
  let ok =
    List.for_all Fun.id
      (List.map
         (fun ((m : Kit.meter), fresh) ->
           let path = "bench/baselines/BENCH_" ^ m.id ^ ".json" in
           gate m ~fresh ~committed:(Kit.read_rows path))
         fresh)
  in
  print_newline ();
  Kit.verdict "no perf regression > 30% vs committed baselines" ok
