module Ident = Oasis_util.Ident
module Obs = Oasis_obs.Obs

type verdict = Valid | Invalid

type presented = Rmc of Rmc.t * string | Appointment of Appointment.t

let presented_id = function Rmc (rmc, _) -> rmc.Rmc.id | Appointment appt -> appt.Appointment.id

let same a b =
  match (a, b) with
  | Rmc (rmc, key), Rmc (rmc', key') -> String.equal key key' && Rmc.identical rmc rmc'
  | Appointment appt, Appointment appt' -> Appointment.identical appt appt'
  | Rmc _, Appointment _ | Appointment _, Rmc _ -> false

(* One table per service, keyed by certificate id: a negative verdict; a
   positive callback verdict with the presentation it answered; or the
   record of an offline signature check that succeeded — the presentation
   and the key certificate it verified under. A negative verdict replaces
   the others, and {!clear} drops everything. *)
type entry =
  | Revoked
  | Confirmed of presented
  | Signature_seen of { presented : presented; under : Signed.key_cert }

type t = {
  table : entry Ident.Tbl.t;
  c_hits : Obs.Counter.t;
  c_negative_hits : Obs.Counter.t;
  c_misses : Obs.Counter.t;
  c_invalidations : Obs.Counter.t;
}

let create ?obs ?(labels = []) () =
  let obs = match obs with Some obs -> obs | None -> Obs.create () in
  let counter name = Obs.counter obs name ~labels in
  {
    table = Ident.Tbl.create 64;
    c_hits = counter "vcache.hits";
    c_negative_hits = counter "vcache.negative_hits";
    c_misses = counter "vcache.misses";
    c_invalidations = counter "vcache.invalidations";
  }

let cache_valid t presented =
  Ident.Tbl.replace t.table (presented_id presented) (Confirmed presented)

let lookup t presented =
  match Ident.Tbl.find_opt t.table (presented_id presented) with
  | Some Revoked ->
      Obs.Counter.inc t.c_negative_hits;
      Some Invalid
  | Some (Confirmed answered) when same answered presented ->
      Obs.Counter.inc t.c_hits;
      Some Valid
  | Some (Confirmed _ | Signature_seen _) | None ->
      Obs.Counter.inc t.c_misses;
      None

let is_poisoned t cert_id =
  match Ident.Tbl.find_opt t.table cert_id with
  | Some Revoked ->
      Obs.Counter.inc t.c_negative_hits;
      true
  | Some (Confirmed _ | Signature_seen _) | None -> false

let verify t ~address ~chain ~now presented =
  let under = chain.Signed.cert and id = presented_id presented in
  let found = Ident.Tbl.find_opt t.table id in
  let signature_seen =
    match found with
    | Some (Signature_seen seen) -> seen.under == under && same seen.presented presented
    | Some (Revoked | Confirmed _) | None -> false
  in
  let ok =
    match presented with
    | Rmc (rmc, principal_key) ->
        Signed.verify_rmc ~signature_seen ~address ~chain ~principal_key rmc
    | Appointment appt -> Signed.verify_appointment ~signature_seen ~address ~chain ~now appt
  in
  (* Only a success is remembered, so a failure costs the full check every
     time and can never be served from the table; and a negative verdict
     stays, since a signature says nothing about revocation. *)
  (match found with
  | Some Revoked -> ()
  | Some (Confirmed _ | Signature_seen _) | None ->
      if ok && not signature_seen then
        Ident.Tbl.replace t.table id (Signature_seen { presented; under }));
  ok

let invalidate t cert_id =
  match Ident.Tbl.find_opt t.table cert_id with
  | Some Revoked -> ()
  | Some (Confirmed _ | Signature_seen _) | None ->
      (* Revocation is permanent (the issuer never resurrects a certificate
         id), so the invalidation event is itself a cachable negative
         verdict: later presentations of the dead certificate answer [false]
         locally instead of re-issuing the callback. *)
      Ident.Tbl.replace t.table cert_id Revoked;
      Obs.Counter.inc t.c_invalidations

let drop t cert_id =
  match Ident.Tbl.find_opt t.table cert_id with
  | Some (Confirmed _) -> Ident.Tbl.remove t.table cert_id
  | Some (Revoked | Signature_seen _) | None -> ()

let clear t = Ident.Tbl.reset t.table
