(** The externs cluster processes call: rank- and laddr-addressed sends,
    directed and wildcard receives, the registry's resolve and moved
    notices, the fault-injected object store (Figure 1), MojaveFS-lite
    files on the shared store, the request-latency probe, and the
    distributed-speculation commit protocol ([dspec_open],
    [dspec_commit], [spec_pending]).

    A negative length or buffer size traps the calling process
    ([Process.Extern_failure]); it never reaches the host. *)

open Vm
open Cluster_types

type t

val create : Cluster_core.t -> Spec_graph.t -> t

val extern_signatures : Fir.Typecheck.extern_lookup
(** The cluster's extern set on top of the base runtime's. *)

val msg_moved : int
(** svc_send's typed "recipient moved" code (-3). *)

val set_object_failure_probability : t -> float -> unit

val handler : t -> entry -> Process.handler
(** The handler a quantum of [entry]'s process runs under: these externs,
    falling back to the base runtime's for names they do not define
    ({!Vm.Extern.combine}).  A failure of one of these externs traps
    with its own message. *)
