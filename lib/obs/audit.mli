(** Invariant audits over a recorded event trace. *)

val partial_commits : Trace.event list -> (unit, string) result
(** The zero-partial-commit audit of distributed speculation:
    - no transaction both commits and aborts;
    - every abort decided by a live coordinator (reason ["fence"] or
      ["crash_in_commit"]) is followed, at the same or a later time, by
      that coordinator's own region rollback;
    - every such abort has its mailbox compensation in the trace.

    [Error] names the first violating transaction, in event order.
    Cost is linear in the number of events. *)
