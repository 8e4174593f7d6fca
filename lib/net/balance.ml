(* Placement policy engine: gauges + affinity + InfotonOpt-style
   scorer.  Pure planning; Cluster executes proposals via Move. *)

(* The policy's tunables, fixed (documented in balance.mli). *)
let period_s = 0.002
let tolerance = 0.25
let move_budget = 2
let affinity_decay = 0.5

type node_load = {
  nl_node : int;
  nl_alive : bool;
  nl_runnable : int;
  nl_cycles_per_s : float;
  nl_mailbox : int;
}

type candidate = { cd_pid : int; cd_node : int; cd_load : float }
type proposal = { pr_pid : int; pr_from : int; pr_to : int; pr_gain : float }

type t = {
  aff : (int, (int, float) Hashtbl.t) Hashtbl.t;
      (* pid -> peer rank -> decayed message count *)
}

let create () = { aff = Hashtbl.create 64 }

let w_runnable = 0.05
let w_mailbox = 0.005

let load_of nl =
  nl.nl_cycles_per_s
  +. (w_runnable *. float_of_int nl.nl_runnable)
  +. (w_mailbox *. float_of_int nl.nl_mailbox)

(* The candidate's mass must be measured in the same units as [load_of]
   INCLUDING its runnable slot and mailbox terms: both travel with the
   process.  Price either one as zero and a lone process on its own
   node looks cheaper to move than the load it leaves behind — the
   planner then relocates it to an empty node every period (churn that
   relocates the queue without ever shrinking the spread). *)
let candidate_load ~cycles_per_s ~mailbox =
  cycles_per_s +. w_runnable +. (w_mailbox *. float_of_int mailbox)

(* ---------- affinity matrix ---------- *)

let row t pid =
  match Hashtbl.find_opt t.aff pid with
  | Some r -> r
  | None ->
      let r = Hashtbl.create 8 in
      Hashtbl.replace t.aff pid r;
      r

let note_comm t ~pid ~peer_rank =
  let r = row t pid in
  let v = match Hashtbl.find_opt r peer_rank with Some v -> v | None -> 0. in
  Hashtbl.replace r peer_rank (v +. 1.)

let decay t =
  let dead = ref [] in
  Hashtbl.iter
    (fun pid r ->
      let drop = ref [] in
      Hashtbl.iter
        (fun peer v ->
          let v' = v *. affinity_decay in
          if v' < 1e-6 then drop := peer :: !drop
          else Hashtbl.replace r peer v')
        r;
      List.iter (Hashtbl.remove r) !drop;
      if Hashtbl.length r = 0 then dead := pid :: !dead)
    t.aff;
  List.iter (Hashtbl.remove t.aff) !dead

let rekey t ~old_pid ~new_pid =
  match Hashtbl.find_opt t.aff old_pid with
  | None -> ()
  | Some r ->
      Hashtbl.remove t.aff old_pid;
      Hashtbl.replace t.aff new_pid r

let affinity t ~pid =
  match Hashtbl.find_opt t.aff pid with
  | None -> []
  | Some r ->
      Hashtbl.fold (fun peer v acc -> (peer, v) :: acc) r []
      |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Affinity mass from [pid] toward processes resident on [node].
   Summed in sorted-rank order so the float sum is deterministic
   regardless of hash-table iteration order. *)
let attraction t ~pid ~node ~node_of_rank =
  match Hashtbl.find_opt t.aff pid with
  | None -> 0.
  | Some r ->
      Hashtbl.fold (fun peer v acc -> (peer, v) :: acc) r []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.fold_left
           (fun acc (peer, v) ->
             match node_of_rank peer with
             | Some n when n = node -> acc +. v
             | _ -> acc)
           0.

(* ---------- planning ---------- *)

let spread _t ~loads =
  let alive = Array.to_list loads |> List.filter (fun nl -> nl.nl_alive) in
  match alive with
  | [] | [ _ ] -> (0., 0.)
  | _ ->
      let ls = List.map load_of alive in
      let mx = List.fold_left Float.max neg_infinity ls in
      let mn = List.fold_left Float.min infinity ls in
      let mean = List.fold_left ( +. ) 0. ls /. float_of_int (List.length ls) in
      (mx -. mn, mean)

let plan t ~loads ~candidates ~node_of_rank =
  let n = Array.length loads in
  if n < 2 then []
  else begin
    let alive = Array.map (fun nl -> nl.nl_alive) loads in
    let alive_count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 alive in
    if alive_count < 2 then []
    else begin
      (* working copy of node loads, updated as proposals are emitted *)
      let eff = Array.map load_of loads in
      let band_spread, mean = spread t ~loads in
      if band_spread <= tolerance *. Float.max mean 1e-9 then []
      else begin
        let out_budget = Array.make n move_budget in
        let in_budget = Array.make n move_budget in
        (* sources: most loaded alive nodes first, node id breaks ties *)
        let sources =
          Array.to_list loads
          |> List.filter (fun nl -> nl.nl_alive)
          |> List.map (fun nl -> nl.nl_node)
          |> List.sort (fun a b ->
                 match compare eff.(b) eff.(a) with
                 | 0 -> compare a b
                 | c -> c)
        in
        let by_node src =
          List.filter (fun c -> c.cd_node = src && c.cd_load > 0.) candidates
          |> List.sort (fun a b ->
                 match compare b.cd_load a.cd_load with
                 | 0 -> compare a.cd_pid b.cd_pid
                 | c -> c)
        in
        let proposals = ref [] in
        List.iter
          (fun src ->
            List.iter
              (fun c ->
                if out_budget.(src) > 0 && eff.(src) > mean then begin
                  (* destinations clearing the repulsion bound *)
                  let dests = ref [] in
                  for d = 0 to n - 1 do
                    if
                      d <> src && alive.(d)
                      && in_budget.(d) > 0
                      && eff.(d) +. (c.cd_load *. (1. +. tolerance))
                         <= eff.(src)
                    then dests := d :: !dests
                  done;
                  match !dests with
                  | [] -> ()
                  | ds ->
                      (* attraction first, then lower load, then node id *)
                      let scored =
                        List.map
                          (fun d ->
                            ( attraction t ~pid:c.cd_pid ~node:d ~node_of_rank,
                              d ))
                          ds
                      in
                      let best =
                        List.sort
                          (fun (a1, d1) (a2, d2) ->
                            match compare a2 a1 with
                            | 0 -> (
                                match compare eff.(d1) eff.(d2) with
                                | 0 -> compare d1 d2
                                | c -> c)
                            | c -> c)
                          scored
                        |> List.hd |> snd
                      in
                      proposals :=
                        {
                          pr_pid = c.cd_pid;
                          pr_from = src;
                          pr_to = best;
                          pr_gain = eff.(src) -. (eff.(best) +. c.cd_load);
                        }
                        :: !proposals;
                      eff.(src) <- eff.(src) -. c.cd_load;
                      eff.(best) <- eff.(best) +. c.cd_load;
                      out_budget.(src) <- out_budget.(src) - 1;
                      in_budget.(best) <- in_budget.(best) - 1
                end)
              (by_node src))
          sources;
        List.rev !proposals
      end
    end
  end
