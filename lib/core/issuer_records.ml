module Ident = Oasis_util.Ident
module Engine = Oasis_sim.Engine
module Broker = Oasis_event.Broker
module Heartbeat = Oasis_event.Heartbeat
module Cr = Oasis_cert.Credential_record

type t = {
  world : World.t;
  issuer : Ident.t;
  is_down : unit -> bool;
  store : Cr.store;
  beats : Heartbeat.emitter Ident.Tbl.t array;
      (* live emitters of valid records, in 16 shards: with one table,
         whose bucket array grows huge at 5*10^4 emitters, the perf [scale]
         workload's peak heap was 24 % higher. The shard is picked by the
         id's sequence number, not by [Ident.hash], whose low bits each
         shard's table indexes by: sharing them would leave 15/16 of every
         shard's buckets empty and its chains 16 times longer. *)
  expiries : (float * (unit -> unit)) Ident.Tbl.t;
      (* valid records with a deadline: when, and the caller's revoke *)
}

let create world ~issuer ~is_down =
  {
    world;
    issuer;
    is_down;
    store = Cr.create_store ();
    beats = Array.init 16 (fun _ -> Ident.Tbl.create 16);
    expiries = Ident.Tbl.create 16;
  }

let beats t cert_id = t.beats.(Ident.number cert_id land (Array.length t.beats - 1))

let start_beats t (record : Cr.t) =
  match World.monitoring t.world with
  | Change_events -> ()
  | Heartbeats { period; _ } ->
      Ident.Tbl.replace (beats t record.cert_id) record.cert_id
        (Heartbeat.start_emitter ~src:t.issuer (World.broker t.world) (World.engine t.world)
           ~topic:(Cr.topic record) ~period
           ~beat:(Protocol.Beat { issuer = t.issuer; cert_id = record.cert_id }))

let stop_beats t cert_id =
  let shard = beats t cert_id in
  match Ident.Tbl.find_opt shard cert_id with
  | Some emitter ->
      Heartbeat.stop_emitter emitter;
      Ident.Tbl.remove shard cert_id
  | None -> ()

let add t ~cert_id ~kind ~principal ~name ~args ?expiry () =
  let now = World.now t.world in
  let record =
    Cr.add t.store ~cert_id ~issuer:t.issuer ~kind ~principal ~name ~args ~issued_at:now
  in
  start_beats t record;
  (match expiry with
  | Some ((at, expire) as due) when at > now ->
      Ident.Tbl.replace t.expiries cert_id due;
      ignore
        (Engine.schedule_at (World.engine t.world) ~at (fun () ->
             if not (t.is_down ()) then expire ()))
  | Some _ | None -> ());
  record

let revoke t cert_id ~reason ~bookkeeping =
  match Cr.revoke t.store cert_id ~at:(World.now t.world) ~reason with
  | None -> false
  | Some record ->
      Ident.Tbl.remove t.expiries cert_id;
      bookkeeping record;
      stop_beats t cert_id;
      (* Retained: a revocation is true forever, and offline verification
         needs late dependency watches to find the tombstone on the
         channel. *)
      Broker.publish ~src:t.issuer ~retain:true (World.broker t.world) (Cr.topic record)
        (Protocol.Invalidated { issuer = t.issuer; cert_id; reason });
      true

let find t cert_id = Cr.find t.store cert_id
let is_valid t cert_id = match find t cert_id with Some record -> Cr.is_valid record | None -> false
let find_named t ~name = Cr.find_named t.store ~issuer:t.issuer ~name

let valid_appointments t =
  let ids = ref [] in
  Cr.iter t.store (fun record ->
      if record.Cr.kind = Cr.Kind_appointment && Cr.is_valid record then
        ids := record.Cr.cert_id :: !ids);
  List.sort Ident.compare !ids

let stop_emitters t =
  Array.iter
    (fun shard ->
      Ident.Tbl.iter (fun _ emitter -> Heartbeat.stop_emitter emitter) shard;
      Ident.Tbl.reset shard)
    t.beats

let resume t =
  if not (t.is_down ()) then begin
    (* Expiries that fell due while the issuer was down, oldest first. Each
       [expire] revokes, which drops its entry, so take a snapshot. *)
    let now = World.now t.world in
    Ident.Tbl.fold (fun id (at, expire) acc -> if at <= now then (at, id, expire) :: acc else acc)
      t.expiries []
    |> List.sort (fun (a, x, _) (b, y, _) -> compare (a, Ident.number x) (b, Ident.number y))
    |> List.iter (fun (_, _, expire) -> expire ());
    Cr.iter t.store (fun record ->
        if Cr.is_valid record && not (Ident.Tbl.mem (beats t record.Cr.cert_id) record.Cr.cert_id)
        then
          start_beats t record)
  end
