(* The shared kit of the benchmark harness: printing and verdicts,
   timing, the JSON row format of the BENCH_*.json meters, the bench
   cluster, grid-outcome checks, the meter shape that perfcheck loops
   over, and the id dispatcher.  See DESIGN.md section 3 for the
   experiment index and EXPERIMENTS.md for paper-vs-measured records. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* failed shape checks so far: a run with any exits 1 (see [main]) *)
let failures = ref 0

let verdict name ok =
  if not ok then incr failures;
  Printf.printf "  shape check: %-52s %s\n" name
    (if ok then "[PASS]" else "[FAIL]")

(* nanosecond-resolution monotonic clock (bechamel's C stub); seconds *)
let now_s () = Bechamel.Toolkit.Monotonic_clock.get () /. 1e9

let wall f =
  let t0 = now_s () in
  let r = f () in
  r, now_s () -. t0

(* bechamel's ns/run estimate for a thunk *)
let bechamel_ns ?(quota = 0.3) name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false
      ~quota:(Time.second quota) ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
  | [ r ] -> (
    match Analyze.OLS.estimates r with
    | Some [ ns ] -> ns
    | Some _ | None -> nan)
  | _ -> nan

(* the median sample by [key]: microsecond-scale samples are
   occasionally inflated by host GC pauses or OS jitter, and a single
   outlier would skew a mean *)
let median_by key samples =
  let a = Array.of_list samples in
  Array.stable_sort (fun x y -> compare (key x) (key y)) a;
  a.(Array.length a / 2)

(* median of [iters] samples of [f] (a thunk returning seconds) *)
let time_op ~iters f =
  median_by Fun.id (Array.to_list (Array.init iters (fun _ -> f ())))

(* the median sample by [key] of [iters] runs of [f] after one warm-up
   run *)
let warm_median ?(iters = 3) key f =
  ignore (f ());
  median_by key (List.init iters (fun _ -> f ()))

(* ------------------------------------------------------------------ *)
(* Rows: one flat JSON object per line                                 *)
(* ------------------------------------------------------------------ *)

(* field name -> JSON literal text, in output order; the literal keeps
   each field's number format, which the committed baselines pin *)
type row = (string * string) list

let str s = "\"" ^ s ^ "\""
let int = string_of_int
let num decimals x = Printf.sprintf "%.*f" decimals x

let unquote v =
  let n = String.length v in
  if n >= 2 && v.[0] = '"' then String.sub v 1 (n - 2) else v

let text (row : row) name =
  match List.assoc_opt name row with
  | Some v -> unquote v
  | None -> failwith ("bench: row has no field " ^ name)

let line_of_row (row : row) =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) row)
  ^ "}"

(* reads our own output back: string values never hold ',' or ':' *)
let row_of_line line : row =
  let line = String.trim line in
  String.sub line 1 (String.length line - 2)
  |> String.split_on_char ','
  |> List.map (fun kv ->
         let i = String.index kv ':' in
         ( unquote (String.sub kv 0 i),
           String.sub kv (i + 1) (String.length kv - i - 1) ))

let write_rows path rows =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun r -> output_string oc (line_of_row r ^ "\n")) rows)

let read_rows path =
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map row_of_line
    |> Option.some

(* the rows as an aligned table, every field but "bench" a column *)
let table rows =
  let keys =
    List.fold_left
      (fun ks (row : row) ->
        ks @ List.filter (fun k -> k <> "bench" && not (List.mem k ks))
               (List.map fst row))
      [] rows
  in
  let cell (row : row) k =
    Option.fold ~none:"" ~some:unquote (List.assoc_opt k row)
  in
  let widths =
    List.map
      (fun k ->
        List.fold_left
          (fun w r -> max w (String.length (cell r k)))
          (String.length k) rows)
      keys
  in
  let line cells =
    print_string " ";
    List.iter2 (fun w c -> Printf.printf " %-*s" w c) widths cells;
    print_newline ()
  in
  line keys;
  List.iter (fun r -> line (List.map (cell r) keys)) rows

(* ------------------------------------------------------------------ *)
(* Meters and their speedup ratios                                     *)
(* ------------------------------------------------------------------ *)

(* A meter's speedup ratio per case: the [cost] field ("wall_s" or
   "sim_s") of its [slow]-mode row over that of its [fast]-mode row.
   The ratio is what an optimization owns, and unlike absolute
   throughput it transfers across machines. *)
type ratio = { slow : string; fast : string; cost : string }

(* (case, ratio) for every case that has both modes, sorted by case *)
let ratios r rows =
  let cost case mode =
    List.find_map
      (fun row ->
        if text row "case" = case && text row "mode" = mode then
          Some (float_of_string (text row r.cost))
        else None)
      rows
  in
  List.sort_uniq compare (List.map (fun row -> text row "case") rows)
  |> List.filter_map (fun case ->
         match cost case r.slow, cost case r.fast with
         | Some s, Some f -> Some (case, s /. f)
         | _ -> None)

(* A meter writes its rows to BENCH_<id>.json; [run] prints the
   section, measures, and returns the rows and the meter's verdicts. *)
type meter = {
  id : string;
  ratio : ratio;
  run : unit -> row list * (string * bool) list;
}

let measure m =
  let rows, verdicts = m.run () in
  table rows;
  List.iter
    (fun (case, x) ->
      Printf.printf "  %s %s/%s (%s): %.2fx\n" case m.ratio.slow m.ratio.fast
        m.ratio.cost x)
    (ratios m.ratio rows);
  let path = "BENCH_" ^ m.id ^ ".json" in
  write_rows path rows;
  Printf.printf "\n  wrote %s\n\n" path;
  List.iter (fun (name, ok) -> verdict name ok) verdicts;
  rows

(* ------------------------------------------------------------------ *)
(* Clusters and grid outcomes                                          *)
(* ------------------------------------------------------------------ *)

(* every bench cluster: a 5 us-latency Simnet; [tweak] sets the rest *)
let cluster ?(nodes = 5) ?(seed = 1) ?(faults = Net.Faults.none)
    ?(tweak = Fun.id) () =
  Net.Cluster.create_cfg
    (tweak
       { Net.Cluster.Config.default with
         node_count = nodes;
         seed;
         net = Some (Net.Simnet.create ~latency_us:5.0 ());
         faults })

(* A finished grid deployment against the golden model: how many ranks
   finished golden, and how many finished with a WRONG checksum.  The
   rest never finished: they wedged. *)
let golden_ranks d config =
  let golden = Mcc.Gridapp.golden_checksums config in
  let sums = Mcc.Gridapp.checksums d in
  let completed = ref 0 and wrong = ref 0 in
  Array.iteri
    (fun r s ->
      match s with
      | Some n when n = golden.(r) -> incr completed
      | Some _ -> incr wrong
      | None -> ())
    sums;
  !completed, !wrong

(* terminated copies of each rank: more than one means a zombie also ran
   to completion *)
let rank_copies cluster ranks =
  let copies = Array.make ranks 0 in
  List.iter
    (fun (_, rank, _, status) ->
      match rank, status with
      | Some r, Vm.Process.Exited _ when r >= 0 && r < ranks ->
        copies.(r) <- copies.(r) + 1
      | _ -> ())
    (Net.Cluster.statuses cluster);
  copies

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* [table]: (id, key, in the default run, bench).  Ids sharing a key
   share one run; no ids runs the default set.  Exits 1 if any shape
   check failed. *)
let main table =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ ->
      List.filter_map
        (fun (id, _, default, _) -> if default then Some id else None)
        table
  in
  print_endline
    "Mojave Compiler reproduction — benchmark harness (paper: Smith, \
     Tapus, Hickey, IPPS 2007)";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun id ->
      match List.find_opt (fun (i, _, _, _) -> i = id) table with
      | Some (_, key, _, f) ->
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          f ()
        end
      | None -> Printf.eprintf "unknown experiment %s\n" id)
    requested;
  print_newline ();
  if !failures > 0 then begin
    Printf.eprintf "%d shape check(s) failed\n" !failures;
    exit 1
  end
