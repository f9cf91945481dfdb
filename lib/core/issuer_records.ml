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
  mutable epoch : int;
      (* beats since the emitter last started; with no period, beats ever *)
  mutable revoked : Ident.t list; (* revoked since the last beat, newest first *)
  mutable last_beat : Protocol.event option; (* with no period: re-sent to repair a loss *)
  expiries : (float * (unit -> unit)) Ident.Tbl.t;
      (* valid records with a deadline: when, and the caller's revoke *)
}

let beat_topic issuer = "hb:" ^ Ident.to_string issuer

(* Each beat numbers itself and hands over the revocations since the
   previous one. *)
let next_beat t () =
  t.epoch <- t.epoch + 1;
  let revoked = List.rev t.revoked in
  t.revoked <- [];
  { Protocol.epoch = t.epoch; revoked }

let publish t beat =
  t.last_beat <- Some beat;
  Broker.publish ~src:t.issuer (World.broker t.world) (beat_topic t.issuer) beat

(* A feed with no period has nothing to fill a lost beat's gap, so the
   issuer sends its latest beat again whenever a loss may have been
   repaired: after a partition that named it heals and when it is back
   from a crash. A dependant that missed any beat then sees an epoch that
   is not the next one and reads its tombstones; one that missed none sees
   a repeat and reads them too. Under heartbeats there is no latest beat
   to re-send: the next periodic one does the same. *)
let resend t = if not (t.is_down ()) then Option.iter (publish t) t.last_beat

let create ?is_down world ~issuer =
  let is_down =
    match is_down with
    | Some is_down -> is_down
    | None -> fun () -> Oasis_sim.Fault.is_crashed (World.fault world) issuer
  in
  let t =
    {
      world;
      issuer;
      is_down;
      store = Cr.create_store ();
      emitter = None;
      epoch = 0;
      revoked = [];
      last_beat = None;
      expiries = Ident.Tbl.create 16;
    }
  in
  World.register_issuer world issuer
    {
      records = t.store;
      (* A restarted emitter counts from 1 again, so until its first beat
         its epoch could be mistaken for one from before the crash. *)
      epoch =
        (fun () -> match t.emitter with Some _ when t.epoch = 0 -> None | _ -> Some t.epoch);
      on_heal = (fun () -> resend t);
    };
  t

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
      t.revoked <- cert_id :: t.revoked;
      (* With no period the beat goes out now, naming this revocation; the
         revoked record itself is the tombstone others read. *)
      (match World.monitoring t.world with
      | Change_events -> publish t (next_beat t ())
      | Heartbeats _ -> ());
      true

let find t cert_id = Cr.find t.store cert_id
let is_valid t cert_id = match find t cert_id with Some record -> Cr.is_valid record | None -> false

let verify_appointment t key (appt : Oasis_cert.Appointment.t) =
  Oasis_cert.Issuer_key.verify_appointment key ~now:(World.now t.world) appt
  && is_valid t appt.id

let valid_appointments t =
  let ids = ref [] in
  Cr.iter t.store (fun record ->
      if record.Cr.kind = Cr.Kind_appointment && Cr.is_valid record then
        ids := record.Cr.cert_id :: !ids);
  List.sort Ident.compare !ids

(* The epoch and the pending revocations are the emitter's volatile state:
   a restarted issuer counts from 1 again, and its dependants, seeing the
   epoch go backwards, read the tombstones of everything they watch. With
   no period there is no emitter: the epoch counts revocations, which are
   durable, and goes on from where it was, so the re-sent beat shows a
   dependant exactly whether it missed one. *)
let stop_emitters t =
  match t.emitter with
  | None -> ()
  | Some emitter ->
      Heartbeat.stop_emitter emitter;
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
    if Cr.count t.store > 0 then start_beats t;
    resend t
  end
