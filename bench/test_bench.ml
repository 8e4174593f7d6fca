(* The perfcheck ratio gate on synthetic rows, the ratios the committed
   baselines hold, and S1's scheduler visit bound. *)

open Bench

let meter =
  { Kit.id = "x";
    ratio = { Kit.slow = "slow"; fast = "fast"; cost = "wall_s" };
    run = (fun () -> [], []) }

let row case mode cost =
  Kit.[ "bench", str "x"; "case", str case; "mode", str mode;
        "wall_s", num 6 cost ]

(* a case whose fast mode costs 1 s: its ratio is [slow] *)
let case name slow = [ row name "slow" slow; row name "fast" 1.0 ]

let gate ~committed ~fresh =
  Perfcheck.gate meter ~committed ~fresh:(List.concat fresh)

let committed = Some (case "a" 1.0 @ case "b" 2.0)

let test_tolerance () =
  Alcotest.(check bool) "0.71x of committed passes" true
    (gate ~committed ~fresh:[ case "a" 0.71; case "b" 1.42 ]);
  Alcotest.(check bool) "0.69x of committed fails" false
    (gate ~committed ~fresh:[ case "a" 0.69; case "b" 2.0 ])

let test_missing () =
  Alcotest.(check bool) "missing baseline fails" false
    (gate ~committed:None ~fresh:[ case "a" 1.0 ]);
  Alcotest.(check bool) "missing fresh case fails" false
    (gate ~committed ~fresh:[ case "a" 1.0 ]);
  Alcotest.(check bool) "uncommitted fresh case fails" false
    (gate ~committed ~fresh:[ case "a" 1.0; case "b" 2.0; case "c" 1.0 ])

let test_row_round_trip () =
  let r = List.hd (case "a" 0.5) in
  Alcotest.(check string) "line"
    {|{"bench":"x","case":"a","mode":"slow","wall_s":0.500000}|}
    (Kit.line_of_row r);
  Alcotest.(check bool) "parse" true (Kit.row_of_line (Kit.line_of_row r) = r)

(* The committed baselines, next to the test binary: dune copies them
   there on every build (bench/dune), and the binary may run from any
   directory. *)
let baselines =
  Filename.concat (Filename.dirname Sys.executable_name) "baselines"

let test_committed () =
  let got =
    List.concat_map
      (fun (m : Kit.meter) ->
        match Kit.read_rows (Filename.concat baselines ("BENCH_" ^ m.id ^ ".json")) with
        | None -> Alcotest.failf "no committed baseline for %s" m.id
        | Some rows ->
          List.map (fun (case, x) -> Printf.sprintf "%s %s %.2f" m.id case x)
            (Kit.ratios m.ratio rows))
      Meters.all
  in
  Alcotest.(check (list string)) "9 committed ratios"
    [ "v1 branch 2.55"; "v1 compute 3.02"; "v1 memory 2.28";
      "t1 serve-s11 0.93"; "t1 serve-s23 0.99";
      "t2 skew-s11 1.22"; "t2 skew-s23 1.20";
      "f5 spec-s11 0.84"; "f5 spec-s23 0.80" ]
    got;
  (* a baseline no meter reads is stale: perfcheck never gates it *)
  Alcotest.(check (list string)) "every baseline belongs to a meter"
    (List.sort compare
       (List.map (fun (m : Kit.meter) -> "BENCH_" ^ m.id ^ ".json") Meters.all))
    (List.sort compare (Array.to_list (Sys.readdir baselines)))

(* S1's count gate on a small long tail: 47 short ping-pong pairs and
   one 300-round pair on 8 nodes, so 94 entries die early *)
let test_sched_visits () =
  let row, within_bound =
    Meters.s1_row
      { Meters.s1_name = "small"; s1_pairs = 48; s1_nodes = 8;
        s1_rounds_of_pair = (fun p -> if p = 0 then 300 else 8) }
  in
  Alcotest.(check bool) (Kit.line_of_row row) true within_bound

let () =
  Alcotest.run "bench"
    [ ( "perfcheck",
        Alcotest.
          [ test_case "70% tolerance" `Quick test_tolerance;
            test_case "missing and uncommitted cases fail" `Quick test_missing;
            test_case "row format round-trips" `Quick test_row_round_trip;
            test_case "committed baseline ratios" `Quick test_committed ] );
      ( "scheduler",
        Alcotest.
          [ test_case "visits track live entries on a long tail" `Quick
              test_sched_visits ] ) ]
