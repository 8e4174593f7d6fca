(* The metrics registry: named counters, gauges and histograms.

   The only counters in the tree: Simnet traffic, Codecache / Server hit
   counters, the speculation engine's operation counts and the
   collector's totals all live in registries, and every consumer — the
   tests, `mcc serve --metrics`, the benchmark harness, the cluster's
   experiment tables — reads them through one uniform interface.

   Design constraints, in order:
   - recording must be cheap: a counter bump is one field update, a
     histogram observation is a binary-search-free linear bucket scan
     over a few dozen bounds (the registries sit on scheduler and
     migration hot paths);
   - registration is idempotent: asking for an existing name returns the
     existing metric, so instrument-at-use-site code needs no separate
     setup phase;
   - quantiles are bucket estimates (p50/p90/p99 from fixed bucket upper
     bounds), which is exactly the fidelity the experiment tables need
     and costs O(buckets) with no sample retention. *)

type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

type histogram = {
  bounds : float array; (* strictly increasing bucket upper bounds *)
  counts : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

type t = {
  table : (string, metric) Hashtbl.t;
  mutable order : string list; (* registration order, newest first *)
}

let create () = { table = Hashtbl.create 32; order = [] }

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let register t name make =
  match Hashtbl.find_opt t.table name with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.add t.table name m;
    t.order <- name :: t.order;
    m

let wrong_kind name want got =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name got)
       want)

let counter t name =
  match register t name (fun () -> M_counter { c_value = 0 }) with
  | M_counter c -> c
  | m -> wrong_kind name "counter" m

let gauge t name =
  match register t name (fun () -> M_gauge { g_value = 0.0 }) with
  | M_gauge g -> g
  | m -> wrong_kind name "gauge" m

(* Default buckets: a half-decade geometric grid from 1e-6 to 1e9, wide
   enough for seconds, bytes, cycles and cell counts alike. *)
let default_buckets =
  Array.init 31 (fun k -> 10.0 ** (float_of_int (k - 12) /. 2.0))

let histogram ?(buckets = default_buckets) t name =
  let make () =
    Array.iteri
      (fun i b ->
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Metrics.histogram: buckets must be increasing")
      buckets;
    M_histogram
      {
        bounds = Array.copy buckets;
        counts = Array.make (Array.length buckets + 1) 0;
        h_count = 0;
        h_sum = 0.0;
        h_min = infinity;
        h_max = neg_infinity;
      }
  in
  match register t name make with
  | M_histogram h -> h
  | m -> wrong_kind name "histogram" m

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let count c = c.c_value
let set g v = g.g_value <- v
let gauge_value g = g.g_value

let observe h v =
  let n = Array.length h.bounds in
  let rec slot i = if i >= n || v <= h.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_mean h = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count
let hist_max h = if h.h_count = 0 then 0.0 else h.h_max
let hist_min h = if h.h_count = 0 then 0.0 else h.h_min

(* Bucket-estimate quantile: the upper bound of the bucket holding the
   q-th observation, clamped to the observed extrema so tiny samples
   don't report a bucket ceiling nothing ever reached. *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let n = Array.length h.bounds in
    let rec walk i cum =
      if i >= n then h.h_max
      else
        let cum = cum + h.counts.(i) in
        if cum >= rank then min h.bounds.(i) h.h_max else walk (i + 1) cum
    in
    max h.h_min (walk 0 0)
  end

(* ------------------------------------------------------------------ *)
(* Registry-level queries                                              *)
(* ------------------------------------------------------------------ *)

let names t = List.rev t.order
let mem t name = Hashtbl.mem t.table name

let counter_value t name =
  match Hashtbl.find_opt t.table name with
  | Some (M_counter c) -> c.c_value
  | Some m -> wrong_kind name "counter" m
  | None -> 0

let gauge_read t name =
  match Hashtbl.find_opt t.table name with
  | Some (M_gauge g) -> g.g_value
  | Some m -> wrong_kind name "gauge" m
  | None -> 0.0

let find_histogram t name =
  match Hashtbl.find_opt t.table name with
  | Some (M_histogram h) -> Some h
  | Some m -> wrong_kind name "histogram" m
  | None -> None

let hist_sum_of t name =
  match find_histogram t name with Some h -> h.h_sum | None -> 0.0

(* One human-readable line per metric, in registration order. *)
let render t =
  let buf = Buffer.create 256 in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.table name with
      | None -> ()
      | Some (M_counter c) ->
        Printf.bprintf buf "%-32s %d\n" name c.c_value
      | Some (M_gauge g) ->
        Printf.bprintf buf "%-32s %g\n" name g.g_value
      | Some (M_histogram h) ->
        Printf.bprintf buf
          "%-32s count=%d sum=%g mean=%g p50=%g p90=%g p99=%g max=%g\n"
          name h.h_count h.h_sum (hist_mean h) (quantile h 0.5)
          (quantile h 0.9) (quantile h 0.99) (hist_max h))
    (names t);
  Buffer.contents buf
