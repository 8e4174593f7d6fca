(* The types every part of the simulated cluster shares: the processes
   placed on nodes, the nodes, what a migration reports, and the unified
   move request.  [Cluster] re-exports them with one [include]; their
   fields are documented in cluster.mli. *)

open Vm

type entry = {
  proc : Process.t;
  mutable emu : Emulator.t;
  node_id : int;
  mailbox : Mpi.mailbox;
  rank : int option;
  mutable epoch : int;
  start_at : float;
  mutable parked_on : (Mpi.source * int) option;
  mutable baseline : (string * Migrate.Wire.image) option;
  bindings : (int, int) Hashtbl.t;
  mutable notices : (float * int * int) list;
}

type node = {
  node_id : int;
  node_name : string;
  node_arch : Arch.t;
  mutable alive : bool;
  daemon : Migrate.Server.t;
  mutable busy_seconds : float;
  mutable clock : float;
  mutable residents : entry list;
}

type migration_report = {
  rep_pid : int;
  rep_attempts : int;
  rep_retries : int;
  rep_backoff_s : float;
  rep_elapsed_s : float;
  rep_bytes : int;
  rep_cache_hit : bool;
  rep_delta : bool;
}

type migration_error =
  | No_such_process of int
  | Not_running
  | Target_down
  | Already_there
  | Unreachable of { attempts : int; reason : string }
  | Rejected of string
  | Fenced of { rank : int; stale : int; current : int }
  | Resurrect_failed of string
  | Cutover_pending of { dest : int; ready_at : float }

type cutover =
  | Compiling of { dest : int; ready_at : float }
  | Landed of migration_report
  | Abandoned of migration_error

(* The unified move request (documented in cluster.mli): every
   initiator builds one and calls [Recovery.move]. *)
module Move = struct
  type reason = Explicit | Policy | Resurrect | Rehome

  type subject =
    | Running of int
    | Image of { path : string; rank : int option }

  type request = { mv_subject : subject; mv_dest : int; mv_reason : reason }

  (* written by the shipping layer when the cut-over lands or is
     abandoned; read-only to everyone else *)
  type ticket = cutover ref

  type outcome = {
    mv_pid : int;
    mv_report : migration_report option;
    mv_cutover : ticket option;
  }

  let cutover (t : ticket) = !t

  let request ~reason subject ~dest =
    { mv_subject = subject; mv_dest = dest; mv_reason = reason }
end
