(* Host wall clock: monotonic, nanosecond resolution (bechamel's C
   stub).  Never fed into simulated time. *)

let now_s () = Bechamel.Toolkit.Monotonic_clock.get () /. 1e9

let time f =
  let t0 = now_s () in
  let r = f () in
  r, now_s () -. t0

(* Host-speed calibration.

   On a shared machine the speed available to one process swings by up
   to 2x within seconds (identical grid batches took 5.6 - 12.7 ms per
   timestep in one run).  So every timed region is bracketed by timings
   of a fixed reference computation (allocation, hashing, sorting; no
   repository code), and host times are reported in reference seconds:
   measured seconds x [reference_s] / the reference's measured time,
   averaged over the timings before and after the region.  Over eight
   runs of [grid] (and [serve-spec]) the quartile distance over the
   median of the throughput was 44 % (16 %) raw, 8.6 % (6.0 %) against
   the timing before, and 4.7 % (5.7 %) against both.  On a machine
   where the reference takes [reference_s], reference seconds are
   seconds. *)
let reference_s = 0.08

let reference_work () =
  let h = Hashtbl.create 1024 in
  let l = ref [] in
  for i = 0 to 100_000 do
    let k = i * 7919 mod 100_003 in
    Hashtbl.replace h k i;
    l := float_of_int k :: !l
  done;
  ignore (Sys.opaque_identity (List.sort Float.compare !l, Hashtbl.length h))

(* A reference timing younger than this is reused rather than taken
   again, so back-to-back regions share the one between them. *)
let reuse_s = 0.05

(* (taken at, host seconds -> reference seconds) of the last timing. *)
let last = ref (neg_infinity, 1.0)

let factor () =
  let at, f = !last in
  if now_s () -. at < reuse_s then f
  else begin
    let (), t = time reference_work in
    let f = reference_s /. t in
    last := now_s (), f;
    f
  end

(* [f ()] and its duration in reference seconds. *)
let time_ref f =
  let before = factor () in
  let r, t = time f in
  r, t *. (before +. factor ()) /. 2.0
