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

   Forwarding chains (A -> B -> C after a double migration) are
   path-compressed on both sides: [rebind] re-points every forwarder
   whose next hop was the old rank, and [resolve] re-points the entry
   forwarder at the final rank it just walked to.  Each message
   therefore pays at most the chain length ONCE; afterwards the chain
   is flat.

   Epoch fencing is orthogonal and unchanged: the registry moves
   ranks around, the cluster still stamps every send with the sender's
   incarnation epoch and fences stale ones.  The laddr of a service
   survives resurrection exactly because it names (pid lineage +
   epoch), not a mailbox. *)

type forwarder = {
  mutable fw_next : int; (* next hop (path-compressed) *)
  fw_expires : float; (* absolute simulated time *)
}

type t = {
  bindings : (int, int ref) Hashtbl.t; (* laddr -> current rank *)
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

let register t ~rank =
  let laddr = t.next_laddr in
  t.next_laddr <- t.next_laddr + 1;
  Hashtbl.replace t.bindings laddr (ref rank);
  Hashtbl.replace t.by_rank rank laddr;
  laddr

let lookup t laddr = Option.map ( ! ) (Hashtbl.find_opt t.bindings laddr)

let laddr_of_rank t rank = Hashtbl.find_opt t.by_rank rank

(* Rebind [laddr] to [new_rank]; the old rank gets a forwarder that
   relays until [now + ttl].  Existing forwarders pointing AT the old
   rank are re-pointed at the new one (chain collapse on the write
   side: after A->B->C, A forwards straight to C). *)
let rebind t ~laddr ~new_rank ~now ~ttl =
  match Hashtbl.find_opt t.bindings laddr with
  | None -> invalid_arg "Registry.rebind: unknown laddr"
  | Some cur ->
    let old_rank = !cur in
    if old_rank <> new_rank then begin
      cur := new_rank;
      Hashtbl.remove t.by_rank old_rank;
      Hashtbl.replace t.by_rank new_rank laddr;
      Hashtbl.replace t.forwarders old_rank
        { fw_next = new_rank; fw_expires = now +. ttl };
      Hashtbl.iter
        (fun _ fw -> if fw.fw_next = old_rank then fw.fw_next <- new_rank)
        t.forwarders;
      Obs.Metrics.incr t.moves
    end

type resolution =
  | Direct of int
  | Forwarded of { final : int; hops : int }
  | Expired of int

(* Follow the forwarder chain from a (possibly stale) rank.  Any LIVE
   forwarder on the walk relays; an expired one ends the walk with a
   typed error.  The entry forwarder is path-compressed to the final
   rank so the next sender through it pays one hop. *)
let resolve t ~now rank =
  match Hashtbl.find_opt t.forwarders rank with
  | None -> Direct rank
  | Some first ->
    if now > first.fw_expires then begin
      Obs.Metrics.incr t.expired;
      Expired rank
    end
    else begin
      let rec walk r hops =
        match Hashtbl.find_opt t.forwarders r with
        | Some fw when now <= fw.fw_expires -> walk fw.fw_next (hops + 1)
        | Some _ | None -> (r, hops)
      in
      let final, hops = walk rank 0 in
      first.fw_next <- final;
      t.forwarded <- t.forwarded + 1;
      Forwarded { final; hops }
    end

(* Drop forwarders whose TTL has passed (housekeeping; resolution
   through one already fails typed). *)
let expire t ~now =
  let dead =
    Hashtbl.fold
      (fun r fw acc -> if now > fw.fw_expires then r :: acc else acc)
      t.forwarders []
  in
  List.iter (Hashtbl.remove t.forwarders) dead;
  List.length dead

let forwarded t = t.forwarded
let expired_count t = Obs.Metrics.count t.expired
