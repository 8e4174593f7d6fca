(* The process registry: stable logical addresses over mobile ranks
   (cf. the Milanés et al. survey's "communication redirection" and
   DCESH's location-transparent computations).

   A LOGICAL ADDRESS (laddr) names a long-lived service process
   independently of where it currently runs.  The registry maps each
   laddr to the rank currently serving it; when a registered service
   migrates, the cluster allocates the successor a FRESH rank, rebinds
   the laddr, and installs a bounded-TTL FORWARDER on the old rank.  A
   send that still resolves to the old rank is relayed one hop to the
   new one (paying the extra network latency) and the sender is owed a
   Recipient_moved notice so it rebinds; once every sender has rebound
   the forwarder goes quiet and may expire.  A send that arrives AFTER
   expiry gets a typed [`Expired] — never a silent drop — and the
   caller re-resolves authoritatively.

   A forwarder names the LADDR its rank served, not a rank: resolving
   through it reads the laddr's current binding, so after A -> B -> C
   both A and B relay straight to C, and a move installs one forwarder
   and touches no other.

   Epoch fencing is orthogonal and unchanged: the registry moves
   ranks around, the cluster still stamps every send with the sender's
   incarnation epoch and fences stale ones.  The laddr of a service
   survives resurrection exactly because it names (pid lineage +
   epoch), not a mailbox. *)

type forwarder = {
  laddr : int; (* the laddr the vacated rank served *)
  expires : float; (* absolute simulated time *)
}

type t = {
  bindings : (int, int) Hashtbl.t; (* laddr -> current rank *)
  by_rank : (int, int) Hashtbl.t; (* current rank -> laddr *)
  forwarders : (int, forwarder) Hashtbl.t; (* vacated rank -> forwarder *)
  mutable next_laddr : int;
  moves : Obs.Metrics.counter; (* registry.moves *)
  expired : Obs.Metrics.counter; (* registry.expired *)
  mutable forwarded : int;
}

let create ?(metrics = Obs.Metrics.create ()) () =
  (* registered in this order: a registry renders in registration order *)
  let moves = Obs.Metrics.counter metrics "registry.moves" in
  let expired = Obs.Metrics.counter metrics "registry.expired" in
  {
    bindings = Hashtbl.create 8;
    by_rank = Hashtbl.create 8;
    forwarders = Hashtbl.create 8;
    next_laddr = 1;
    moves;
    expired;
    forwarded = 0;
  }

(* A rank serving a second laddr would keep the first's binding when
   the process moves (a move rebinds the laddr the rank serves), and a
   vacated rank would forward as well as serve. *)
let register t ~rank =
  if Hashtbl.mem t.by_rank rank || Hashtbl.mem t.forwarders rank then
    invalid_arg "Registry.register: rank serves or forwards a laddr";
  let laddr = t.next_laddr in
  t.next_laddr <- t.next_laddr + 1;
  Hashtbl.replace t.bindings laddr rank;
  Hashtbl.replace t.by_rank rank laddr;
  laddr

let lookup t laddr = Hashtbl.find_opt t.bindings laddr

let laddr_of_rank t rank = Hashtbl.find_opt t.by_rank rank

(* Rebind [laddr] to [new_rank]; the old rank gets a forwarder that
   relays to the laddr's binding until [now + ttl]. *)
let rebind t ~laddr ~new_rank ~now ~ttl =
  match Hashtbl.find_opt t.bindings laddr with
  | None -> invalid_arg "Registry.rebind: unknown laddr"
  | Some old_rank ->
    if old_rank <> new_rank then begin
      Hashtbl.replace t.bindings laddr new_rank;
      Hashtbl.remove t.by_rank old_rank;
      Hashtbl.replace t.by_rank new_rank laddr;
      Hashtbl.replace t.forwarders old_rank { laddr; expires = now +. ttl };
      Obs.Metrics.incr t.moves
    end

type resolution =
  | Direct of int
  | Forwarded of int
  | Expired of int

let resolve t ~now rank =
  match Hashtbl.find_opt t.forwarders rank with
  | None -> Direct rank
  | Some fw when now > fw.expires ->
    Obs.Metrics.incr t.expired;
    Expired rank
  | Some fw ->
    t.forwarded <- t.forwarded + 1;
    Forwarded (Hashtbl.find t.bindings fw.laddr)

(* Drop forwarders whose TTL has passed (housekeeping; resolution
   through one already fails typed). *)
let expire t ~now =
  let dead =
    Hashtbl.fold
      (fun r fw acc -> if now > fw.expires then r :: acc else acc)
      t.forwarders []
  in
  List.iter (Hashtbl.remove t.forwarders) dead;
  List.length dead

let forwarded t = t.forwarded
let expired_count t = Obs.Metrics.count t.expired
