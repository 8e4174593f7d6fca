(* Migration protocols and target strings (paper, Section 4.2.1).

   The string argument of the [migrate] pseudo-instruction selects one of
   three protocols:

   - "mcc://host"          migrate: ship the process to a migration server
                           for immediate execution; terminate the source on
                           success, continue locally on failure.
   - "suspend://path"      suspend: write the process image to a file and
                           terminate if the write succeeds.
   - "checkpoint://path"   checkpoint: write the image and KEEP RUNNING.

   Checkpoint files are "executable" in the paper's sense: they are
   self-contained resumable images (see Pack.unpack / bin/mcc resume). *)

type t =
  | Migrate_to of string (* host name *)
  | Suspend_to of string (* file / storage path *)
  | Checkpoint_to of string

exception Bad_target of string

let parse s =
  let split_scheme s =
    match String.index_opt s ':' with
    | Some i
      when i + 2 < String.length s
           && s.[i + 1] = '/'
           && s.[i + 2] = '/' ->
      Some
        ( String.sub s 0 i,
          String.sub s (i + 3) (String.length s - i - 3) )
    | Some _ | None -> None
  in
  match split_scheme s with
  | Some ("mcc", host) when host <> "" -> Migrate_to host
  | Some ("suspend", path) when path <> "" -> Suspend_to path
  | Some (("checkpoint" | "ckpt"), path) when path <> "" ->
    Checkpoint_to path
  | Some _ | None ->
    raise (Bad_target (Printf.sprintf "unparseable migration target %S" s))

let to_string = function
  | Migrate_to host -> "mcc://" ^ host
  | Suspend_to path -> "suspend://" ^ path
  | Checkpoint_to path -> "checkpoint://" ^ path
