module Ident = Oasis_util.Ident
module Engine = Oasis_sim.Engine
module Broker = Oasis_event.Broker
module Obs = Oasis_obs.Obs
module Cr = Oasis_cert.Credential_record
module Issuer_key = Oasis_cert.Issuer_key
module Appointment = Oasis_cert.Appointment
module Vcache = Oasis_cert.Validation_cache

(* A certificate this issuer issued, as it issued it, beside its record. *)
type issued = { record : Cr.t; cert : Vcache.presented }

type t = {
  world : World.t;
  issuer : Ident.t;
  key : Issuer_key.t;
  is_down : unit -> bool;
  store : Cr.store;
  issued : issued Ident.Tbl.t;
  mutable emitter : Engine.cancel option;
      (* under heartbeats, from the first record on: the beat timer *)
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

let create ?is_down world key =
  let issuer = Issuer_key.subject key in
  let is_down =
    match is_down with
    | Some is_down -> is_down
    | None -> fun () -> Oasis_sim.Fault.is_crashed (World.fault world) issuer
  in
  let t =
    {
      world;
      issuer;
      key;
      is_down;
      store = Cr.create_store ();
      issued = Ident.Tbl.create 64;
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

(* Under heartbeats the issuer beats once per period, the first beat one
   period after the start, until [stop_emitters]. A periodic beat is not
   kept for [resend]: the next one repairs a loss. *)
let start_beats t =
  match (World.monitoring t.world, t.emitter) with
  | Heartbeats { period; _ }, None ->
      let beats = Obs.counter (World.obs t.world) "hb.beats" in
      t.emitter <-
        Some
          (Engine.every (World.engine t.world) ~period (fun () ->
               Obs.Counter.inc beats;
               Broker.publish ~src:t.issuer (World.broker t.world) (beat_topic t.issuer)
                 (next_beat t ());
               true))
  | Heartbeats _, Some _ | Change_events, _ -> ()

type _ order =
  | Rmc : { session_key : string } -> Oasis_cert.Rmc.t order
  | Appointment : { holder_key : string; expires_at : float option; expire : Ident.t -> unit }
      -> Appointment.t order

let issue (type cert) t ~principal ~name ~args (order : cert order) : cert * Cr.t =
  let cert_id = World.fresh_cert_id t.world in
  let now = World.now t.world in
  let (cert : cert), presented, kind, expiry =
    match order with
    | Rmc { session_key } ->
        let rmc =
          Issuer_key.issue_rmc t.key ~principal_key:session_key ~id:cert_id ~role:name ~args
            ~issued_at:now
        in
        (rmc, Vcache.Rmc (rmc, session_key), Cr.Kind_rmc, None)
    | Appointment { holder_key; expires_at; expire } ->
        let appt =
          Issuer_key.issue_appointment t.key ~id:cert_id ~kind:name ~args ~holder:holder_key
            ~issued_at:now ?expires_at ()
        in
        let expiry = Option.map (fun at -> (at, expire)) expires_at in
        (appt, Vcache.Appointment appt, Cr.Kind_appointment, expiry)
  in
  let record =
    Cr.add t.store ~cert_id ~issuer:t.issuer ~kind ~principal ~name ~args ~issued_at:now
  in
  Ident.Tbl.replace t.issued cert_id { record; cert = presented };
  start_beats t;
  (match expiry with
  | Some (at, expire) when at > now ->
      let expire () = expire cert_id in
      Ident.Tbl.replace t.expiries cert_id (at, expire);
      ignore
        (Engine.schedule_at (World.engine t.world) ~at (fun () ->
             if not (t.is_down ()) then expire ()))
  | Some _ | None -> ());
  (cert, record)

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

let is_valid t cert_id =
  match Cr.find t.store cert_id with Some record -> Cr.is_valid record | None -> false

let certificate t cert_id = Option.map (fun i -> i.cert) (Ident.Tbl.find_opt t.issued cert_id)

(* No signature is checked. The expiry test stays: an expiry that falls
   due while the issuer is down is revoked only when it is back. *)
let issued t presented =
  match Ident.Tbl.find_opt t.issued (Vcache.presented_id presented) with
  | Some { record; cert } when Cr.is_valid record && Vcache.same cert presented -> (
      match presented with
      | Vcache.Appointment appt when Appointment.expired ~now:(World.now t.world) appt -> None
      | Vcache.Rmc _ | Vcache.Appointment _ -> Some record)
  | Some _ | None -> None

let check t presented =
  Option.is_some (issued t presented)
  &&
  match presented with
  | Vcache.Appointment appt -> appt.epoch = Issuer_key.epoch t.key
  | Vcache.Rmc _ -> true

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
  | Some timer ->
      Engine.cancel (World.engine t.world) timer;
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

let rotate_key t = Issuer_key.rotate t.key ~now:(World.now t.world)
let withdraw_key t = Issuer_key.withdraw t.key
