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
  mutable emitter : Heartbeat.emitter option; (* under heartbeats, from the first record on *)
  mutable epoch : int; (* beats since the emitter last started *)
  mutable revoked : Ident.t list; (* revoked since the last beat, newest first *)
  expiries : (float * (unit -> unit)) Ident.Tbl.t;
      (* valid records with a deadline: when, and the caller's revoke *)
}

let beat_topic issuer = "hb:" ^ Ident.to_string issuer

let create ?is_down world ~issuer =
  let is_down =
    match is_down with
    | Some is_down -> is_down
    | None -> fun () -> Oasis_sim.Fault.is_crashed (World.fault world) issuer
  in
  {
    world;
    issuer;
    is_down;
    store = Cr.create_store ();
    emitter = None;
    epoch = 0;
    revoked = [];
    expiries = Ident.Tbl.create 16;
  }

(* Each tick numbers the beat and hands over the revocations since the
   previous one. *)
let next_beat t () =
  t.epoch <- t.epoch + 1;
  let revoked = List.rev t.revoked in
  t.revoked <- [];
  Protocol.Beat { issuer = t.issuer; epoch = t.epoch; revoked }

let start_beats t =
  match (World.monitoring t.world, t.emitter) with
  | Heartbeats { period; _ }, None ->
      t.emitter <-
        Some
          (Heartbeat.start_emitter ~src:t.issuer (World.broker t.world) (World.engine t.world)
             ~topic:(beat_topic t.issuer) ~period ~beat:(next_beat t))
  | Heartbeats _, Some _ | Change_events, _ -> ()

let add t ~cert_id ~kind ~principal ~name ~args ?expiry () =
  let now = World.now t.world in
  let record =
    Cr.add t.store ~cert_id ~issuer:t.issuer ~kind ~principal ~name ~args ~issued_at:now
  in
  start_beats t;
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
      (match World.monitoring t.world with
      | Heartbeats _ -> t.revoked <- cert_id :: t.revoked
      | Change_events -> ());
      (* Retained: a revocation is true forever, and offline verification
         and late watches, under either monitoring mode, read the tombstone
         off the channel. *)
      Broker.publish ~src:t.issuer ~retain:true (World.broker t.world) (Cr.topic record)
        (Protocol.Invalidated { issuer = t.issuer; cert_id; reason });
      true

let find t cert_id = Cr.find t.store cert_id
let is_valid t cert_id = match find t cert_id with Some record -> Cr.is_valid record | None -> false

let valid_appointments t =
  let ids = ref [] in
  Cr.iter t.store (fun record ->
      if record.Cr.kind = Cr.Kind_appointment && Cr.is_valid record then
        ids := record.Cr.cert_id :: !ids);
  List.sort Ident.compare !ids

(* The epoch and the pending revocations are the emitter's volatile state:
   a restarted issuer counts from 1 again, and its dependants, seeing the
   epoch go backwards, read the tombstones of everything they watch. *)
let stop_emitters t =
  Option.iter Heartbeat.stop_emitter t.emitter;
  t.emitter <- None;
  t.epoch <- 0;
  t.revoked <- []

let resume t =
  if not (t.is_down ()) then begin
    (* Expiries that fell due while the issuer was down, oldest first. Each
       [expire] revokes, which drops its entry, so take a snapshot. *)
    let now = World.now t.world in
    Ident.Tbl.fold (fun id (at, expire) acc -> if at <= now then (at, id, expire) :: acc else acc)
      t.expiries []
    |> List.sort (fun (a, x, _) (b, y, _) -> compare (a, Ident.number x) (b, Ident.number y))
    |> List.iter (fun (_, _, expire) -> expire ());
    if Cr.count t.store > 0 then start_beats t
  end
