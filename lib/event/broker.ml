module Engine = Oasis_sim.Engine
module Ident = Oasis_util.Ident
module Obs = Oasis_obs.Obs

type topic = string

type 'a sub = {
  id : int;
  sub_topic : topic;
  owner : Ident.t;
  callback : topic -> 'a -> unit;
  mutable active : bool;
  (* The broker-wide publish count at unsubscribe time: lets a batched
     delivery decide whether this subscriber was still active when the
     publish it carries was issued (counts as suppressed) or had already
     left (not addressed at all). *)
  mutable unsub_pub : int;
}

(* Subscribers per topic in a growable array, appended in subscription
   order. Unsubscribe only flags the entry (O(1)); flagged entries are
   swept out by rebuilding the array once they outnumber the live ones.
   In-flight deliveries keep the array they snapshotted — rebuilds install
   a fresh array, never mutate the old one — so a publish's audience is
   fixed at publish time without allocating a list copy. *)
type 'a bucket = {
  mutable arr : 'a sub array;
  mutable blen : int;
  mutable dead : int;
}

type subscription = { unsub : unit -> unit }

type 'a t = {
  engine : Engine.t;
  obs : Obs.t;
  latency : float;
  subs : (topic, 'a bucket) Hashtbl.t;
  mutable next_id : int;
  mutable pub_count : int;
  (* Delivery filter consulted for every publish's source; the world wires
     this to [Fault.is_cut] so named partitions sever event channels
     exactly as they sever the network. *)
  mutable filter : (publisher:Ident.t -> owner:Ident.t -> bool) option;
  c_published : Obs.Counter.t;
  c_notified : Obs.Counter.t;
  c_suppressed : Obs.Counter.t;
  c_suppressed_part : Obs.Counter.t;
}

let create engine ~notify_latency ?obs () =
  let obs =
    match obs with
    | Some obs -> obs
    | None -> Obs.create ~now:(fun () -> Engine.now engine) ()
  in
  {
    engine;
    obs;
    latency = notify_latency;
    subs = Hashtbl.create 64;
    next_id = 0;
    pub_count = 0;
    filter = None;
    c_published = Obs.counter obs "broker.published";
    c_notified = Obs.counter obs "broker.notified";
    c_suppressed = Obs.counter obs "broker.suppressed" ~labels:[ ("cause", "unsubscribed") ];
    c_suppressed_part = Obs.counter obs "broker.suppressed" ~labels:[ ("cause", "partitioned") ];
  }

let obs t = t.obs

let dummy_owner = Ident.make "sub" (-1)

let dummy_sub : unit -> 'a sub =
 fun () ->
  {
    id = -1;
    sub_topic = "";
    owner = dummy_owner;
    callback = (fun _ _ -> ());
    active = false;
    unsub_pub = 0;
  }

let bucket t topic =
  match Hashtbl.find_opt t.subs topic with
  | Some b -> b
  | None ->
      let b = { arr = [||]; blen = 0; dead = 0 } in
      Hashtbl.replace t.subs topic b;
      b

let bucket_push b sub =
  let cap = Array.length b.arr in
  if b.blen = cap then begin
    let narr = Array.make (max 4 (2 * cap)) (dummy_sub ()) in
    Array.blit b.arr 0 narr 0 b.blen;
    b.arr <- narr
  end;
  b.arr.(b.blen) <- sub;
  b.blen <- b.blen + 1

(* Rebuild with only the live subscribers (fresh array: snapshots held by
   in-flight deliveries must not shift under them). An emptied bucket is
   dropped from the table entirely, so a topic nobody watches any more
   costs nothing. *)
let compact_bucket t topic b =
  let live = b.blen - b.dead in
  if live = 0 then Hashtbl.remove t.subs topic
  else begin
    let narr = Array.make (max 4 live) (dummy_sub ()) in
    let j = ref 0 in
    for i = 0 to b.blen - 1 do
      if b.arr.(i).active then begin
        narr.(!j) <- b.arr.(i);
        incr j
      end
    done;
    b.arr <- narr;
    b.blen <- live;
    b.dead <- 0
  end

let unsubscribe _t subscription = subscription.unsub ()

let set_filter t filter = t.filter <- filter

(* Whether delivery from [src] to [sub] is cut right now. *)
let cut t src sub =
  match t.filter with Some f -> f ~publisher:src ~owner:sub.owner | None -> false

(* The at-delivery-time body for one subscriber: partition filtering,
   accounting, callback. The caller has already established that the
   subscriber was active when the publish was issued. *)
let deliver t src sub payload =
  if not sub.active then
    (* The subscriber unsubscribed while this notification was in flight.
       Account for it so published × subscribers = notified + suppressed
       always holds. *)
    Obs.Counter.inc t.c_suppressed
  else if cut t src sub then begin
    (* Partitioned at delivery time: the channel is cut, the
       notification is lost like a network message. *)
    Obs.Counter.inc t.c_suppressed_part;
    if Obs.tracing t.obs then
      Obs.event t.obs "broker.suppress"
        ~labels:
          [
            ("cause", "partitioned");
            ("topic", sub.sub_topic);
            ("owner", Ident.to_string sub.owner);
          ]
  end
  else begin
    Obs.Counter.inc t.c_notified;
    if Obs.tracing t.obs then
      Obs.event t.obs "broker.notify"
        ~labels:[ ("topic", sub.sub_topic); ("owner", Ident.to_string sub.owner) ];
    sub.callback sub.sub_topic payload
  end

let subscribe t topic ~owner callback =
  let sub =
    { id = t.next_id; sub_topic = topic; owner; callback; active = true; unsub_pub = 0 }
  in
  t.next_id <- t.next_id + 1;
  let b = bucket t topic in
  bucket_push b sub;
  {
    unsub =
      (fun () ->
        if sub.active then begin
          sub.active <- false;
          sub.unsub_pub <- t.pub_count;
          b.dead <- b.dead + 1;
          if b.dead >= 8 && 2 * b.dead > b.blen then compact_bucket t topic b
        end);
  }

let publish ~src t topic payload =
  Obs.Counter.inc t.c_published;
  t.pub_count <- t.pub_count + 1;
  if Obs.tracing t.obs then Obs.event t.obs "broker.publish" ~labels:[ ("topic", topic) ];
  match Hashtbl.find_opt t.subs topic with
  | None -> ()
  | Some b ->
      (* The audience is the bucket prefix [0, blen) as of now; a subscriber
         added after this publish must not see it, and rebuilds never touch
         a snapshotted array. *)
      let arr = b.arr and n = b.blen in
      if n > 0 then begin
        (* All deliveries land at the same instant, so the fan-out rides
           one engine event instead of one per subscriber. *)
        let pub_id = t.pub_count in
        ignore
          (Engine.schedule t.engine ~after:t.latency (fun () ->
               for i = 0 to n - 1 do
                 let sub = arr.(i) in
                 if sub.active then deliver t src sub payload
                 else if sub.unsub_pub >= pub_id then
                   (* Active when published, gone now: suppressed in
                      flight. (If it left before this publish, it was
                      never addressed.) *)
                   Obs.Counter.inc t.c_suppressed
               done))
      end
