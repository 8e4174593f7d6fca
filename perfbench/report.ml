(* What one workload run reports, and the one-line JSON result the
   benchmark prints last. *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* One fresh deployment of a workload, set up, driven to completion and
   checked.  Its simulated outputs are a function of its seed alone.
   Host times are in reference seconds (see {!Clock}). *)
type batch = {
  setup_s : float;  (** host: compile + deploy/spawn *)
  run_s : float;  (** host: the timed phase *)
  ops : int;  (** units of work completed: requests, hops or timesteps *)
  op_times : float list;
      (** host time per unit of work: one sample per hop where hops are
          timed alone, else the batch's mean *)
  attempted : int;  (** requests, hops or ranks whose result was checked *)
  failed : int;
  sim_s : float;  (** simulated seconds of the timed phase *)
  sim_op_ms : float;  (** mean simulated ms per unit of work *)
  fingerprint : string;
      (** the simulated outputs; the traced rebuild of the run loop
          must reproduce them exactly *)
  samples : (string * float) list;
      (** workload-specific host-time samples (e.g. one per hop) *)
  layer : (string * float) list;
      (** per-layer readings: registry counters and, when traced, span
          totals for this batch *)
}

(* Every digit of the measurement; JSON has no NaN or infinity, so a
   metric that could not be measured is a bug caught here. *)
let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Report.number: non-finite metric value"

let json_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
          (number x.value) x.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-24s %16.6g %s\n" x.name x.value x.unit_)
    metrics
