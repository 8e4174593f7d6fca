(** The cluster's extern table: the base runtime's entries
    ({!Vm.Extern.entries}) plus rank- and laddr-addressed sends,
    directed and wildcard receives, the registry's resolve and moved
    notices, the fault-injected object store (Figure 1), MojaveFS-lite
    files on the shared store, the request-latency probe, and the
    distributed-speculation commit protocol ([dspec_open],
    [dspec_commit], [spec_pending]).  One entry per name, built once;
    the typechecker hook and the handler read the same table.

    A negative length or buffer size, or a length past the end of its
    buffer, traps the process with the extern's own cause; it never
    reaches the host. *)

open Vm

type t

val create : Cluster_core.t -> Spec_graph.t -> t

val extern_signatures : Fir.Typecheck.extern_lookup
val extern_names : string list

val msg_moved : int
(** svc_send's typed "recipient moved" code (-3). *)

val set_object_failure_probability : t -> float -> unit

val handler : t -> Process.handler
(** The cluster table's handler; build it once per cluster.  Calls act
    for {!Cluster_core.t.running}, the entry whose quantum is executing. *)
