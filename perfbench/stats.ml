(* Order statistics over host-time samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* 0 when empty: a layer that was never called reads 0. *)
let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile: the smallest sample with at least [p] % of
   the samples at or below it.  [p] in (0, 100]. *)
let rank ~p n = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentile ~p xs =
  match sorted xs with
  | [||] -> nan
  | a -> a.(rank ~p (Array.length a) - 1)

(* Samples strictly above the [p]-th percentile's rank. *)
let beyond ~p n = n - rank ~p n

(* A tail percentile is only reported when at least [min_beyond]
   samples lie beyond it; with fewer, one slow sample decides it. *)
let min_beyond = 10

let resolved ~p n = n > 0 && beyond ~p n >= min_beyond

let percentile_resolved ~p xs =
  if resolved ~p (List.length xs) then Some (percentile ~p xs) else None

(* The highest of the usual tail percentiles the sample count resolves:
   [(p, value)], or [None] below 11 samples (not even the median has ten
   samples beyond it). *)
let highest_resolved xs =
  let n = List.length xs in
  List.find_opt (fun p -> resolved ~p n) [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]
  |> Option.map (fun p -> p, percentile ~p xs)
