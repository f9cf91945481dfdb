module Ident = Oasis_util.Ident
module Network = Oasis_sim.Network
module Fault = Oasis_sim.Fault
module Appointment = Oasis_cert.Appointment
module Cr = Oasis_cert.Credential_record
module Issuer_key = Oasis_cert.Issuer_key
module World = Oasis_core.World
module Issuer_records = Oasis_core.Issuer_records
module Protocol = Oasis_core.Protocol
module Obs = Oasis_obs.Obs

exception Primary_unavailable

type replica = { node : Ident.t; mutable served : int }

type t = {
  world : World.t;
  router : Ident.t;
  audit : Oasis_trust.Registrar.t;
  key : Issuer_key.t;
  records : Issuer_records.t;
  replicas : replica array;
  mutable rr : int;
  (* Audit certificates issued but not yet filed into both parties'
     wallets — the window a mid-issuance crash leaves open. Restart
     anti-entropy drains it (re-delivery is idempotent wallet-side). *)
  mutable pending_filings : Oasis_trust.Audit.t list;
  (* Counters in the world's registry, labelled [civ=<name>]. *)
  c_issues : Obs.Counter.t;
  c_revocations : Obs.Counter.t;
  c_failovers : Obs.Counter.t;
  c_exhausted : Obs.Counter.t;
  c_reconciled : Obs.Counter.t;
}

let id t = t.router

let current_epoch t = Issuer_key.epoch t.key

(* Writes need the primary (replica 0) up and the router not crashed. *)
let primary_down_at world ~router ~primary =
  Network.is_down (World.network world) primary || Fault.is_crashed (World.fault world) router

let primary_down t = primary_down_at t.world ~router:t.router ~primary:t.replicas.(0).node
let is_valid t cert_id = Issuer_records.is_valid t.records cert_id

(* ------------------------------------------------------------------ *)
(* Validation, replica side                                           *)
(* ------------------------------------------------------------------ *)

(* A replica answers as any issuer answers for its own appointment, from
   the cluster's one record store: a revocation or an issue is seen by
   every replica the moment the primary writes it. *)
let replica_validate t replica appt =
  replica.served <- replica.served + 1;
  Issuer_records.verify_appointment t.records t.key appt

let replica_handler t replica ~src:_ = function
  | Protocol.Validate_appt { appt } ->
      Protocol.Validate_result
        (Ident.equal appt.Appointment.issuer t.router && replica_validate t replica appt)
  | Protocol.Validate_rmc _ ->
      (* A CIV issues appointment certificates only. *)
      Protocol.Validate_result false
  | _ -> Protocol.Denied (Protocol.Bad_request "CIV replicas only validate")

(* ------------------------------------------------------------------ *)
(* Router: round-robin with failover                                  *)
(* ------------------------------------------------------------------ *)

let route t msg =
  let n = Array.length t.replicas in
  let start = t.rr in
  t.rr <- (t.rr + 1) mod n;
  let rec try_from attempt =
    if attempt >= n then begin
      Obs.Counter.inc t.c_exhausted;
      Protocol.Validate_result false
    end
    else
      let replica = t.replicas.((start + attempt) mod n) in
      match Network.rpc (World.network t.world) ~src:t.router ~dst:replica.node msg with
      | reply -> reply
      | exception Network.Rpc_dropped ->
          Obs.Counter.inc t.c_failovers;
          try_from (attempt + 1)
  in
  try_from 0

let router_handler t ~src:_ msg =
  match msg with
  | Protocol.Validate_appt _ | Protocol.Validate_rmc _ -> route t msg
  | Protocol.Check_cr { cert_id } ->
      (* Anti-entropy status check: answered from the authoritative store.
         With the primary down the truth is unreachable, so the handler
         fails the RPC — "could not determine" must never read as
         "revoked". *)
      if primary_down t then raise Primary_unavailable
      else Protocol.Cr_status { valid = is_valid t cert_id }
  | _ -> Protocol.Denied (Protocol.Bad_request "CIV router only validates")

(* Anti-entropy after a registrar crash: any certificate that did not
   reach both wallets is re-delivered to both parties. Wallet filing is
   idempotent (dedup by certificate id), so completing the already-filed
   half changes nothing; the missing half lands and notifies its party. *)
let reconcile_filings t =
  let pending = t.pending_filings in
  t.pending_filings <- [];
  List.iter
    (fun (cert : Oasis_trust.Audit.t) ->
      Obs.Counter.inc t.c_reconciled;
      ignore (World.file_audit_certificate t.world cert ~party:cert.Oasis_trust.Audit.client : bool);
      ignore (World.file_audit_certificate t.world cert ~party:cert.Oasis_trust.Audit.server : bool))
    pending

let pending_filings t = List.length t.pending_filings

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let create world ~name ?(replicas = 3) ?(offline_sign = true) () =
  if replicas < 1 then invalid_arg "Civ.create: need at least one replica";
  let router = World.fresh_service_id world in
  let counter cname = Obs.counter (World.obs world) cname ~labels:[ ("civ", name) ] in
  let replicas =
    Array.init replicas (fun _ -> { node = World.fresh_service_id world; served = 0 })
  in
  let t =
    {
      world;
      router;
      audit = Oasis_trust.Registrar.create (Oasis_util.Rng.split (World.rng world)) ~name ();
      key =
        Issuer_key.create (World.authority world) ~rng:(World.rng world) ~subject:router
          ~offline_sign ~now:(World.now world);
      records =
        Issuer_records.create world ~issuer:router ~is_down:(fun () ->
            primary_down_at world ~router ~primary:replicas.(0).node);
      replicas;
      rr = 0;
      pending_filings = [];
      c_issues = counter "civ.issues";
      c_revocations = counter "civ.revocations";
      c_failovers = counter "civ.failovers";
      c_exhausted = counter "civ.exhausted";
      c_reconciled = counter "civ.reconciled";
    }
  in
  World.register_service world ~name router;
  (* Bridge the embedded registrar into the world's trust layer: audit
     certificates naming it validate through it, so wallet presentations
     score live (fail-closed for unknown registrars). *)
  World.register_trust_validator world
    ~registrar:(Oasis_trust.Registrar.id t.audit)
    (fun cert -> Oasis_trust.Registrar.validate t.audit cert);
  Network.add_node (World.network world) router (router_handler t);
  (* Crashing the router (the cluster's stable identity) models the whole
     registrar going down mid-issuance. Its beats run on and the broker's
     partition filter drops them. Restart announces the expiries that fell
     due while down, then runs wallet anti-entropy. *)
  Fault.set_hooks (World.fault world) router
    ~on_crash:(fun () -> ())
    ~on_restart:(fun () ->
      Issuer_records.resume t.records;
      reconcile_filings t);
  Array.iter
    (fun replica -> Network.add_node (World.network world) replica.node (replica_handler t replica))
    t.replicas;
  t

(* ------------------------------------------------------------------ *)
(* Issuing and revocation (primary)                                   *)
(* ------------------------------------------------------------------ *)

let revoke t cert_id ~reason =
  (not (primary_down t))
  && Issuer_records.revoke t.records cert_id ~reason ~bookkeeping:(fun _record ->
         Obs.Counter.inc t.c_revocations)

let issue t ~kind ~args ~holder ~holder_key ?expires_at () =
  if primary_down t then raise Primary_unavailable;
  let cert_id = World.fresh_cert_id t.world in
  let now = World.now t.world in
  let appt =
    Issuer_key.issue_appointment t.key ~id:cert_id ~kind ~args ~holder:holder_key ~issued_at:now
      ?expires_at ()
  in
  let expire () = ignore (revoke t cert_id ~reason:"expired") in
  ignore
    (Issuer_records.add t.records ~cert_id ~kind:Cr.Kind_appointment ~principal:holder ~name:kind
       ~args
       ?expiry:(Option.map (fun at -> (at, expire)) expires_at)
       ());
  Obs.Counter.inc t.c_issues;
  appt

let reissue t (old : Appointment.t) =
  if primary_down t then raise Primary_unavailable;
  if not (Ident.equal old.issuer t.router) then Error "not our certificate"
  else if
    (* Re-issue accepts any epoch (that is its purpose) but never a bad
       signature or an expired certificate. *)
    not (Issuer_key.verify_appointment ~any_epoch:true t.key ~now:(World.now t.world) old)
  then Error "signature or expiry check failed"
  else
    match Issuer_records.find t.records old.Appointment.id with
    | Some record when Cr.is_valid record ->
        ignore (revoke t old.Appointment.id ~reason:"superseded");
        Ok
          (issue t ~kind:old.Appointment.kind ~args:old.Appointment.args
             ~holder:record.Cr.principal ~holder_key:old.Appointment.holder
             ?expires_at:old.Appointment.expires_at ())
    | Some _ | None -> Error "credential record revoked"

let rotate_secret t = Issuer_key.rotate t.key ~now:(World.now t.world)

let registrar t = t.audit

let record_interaction_steps t ~client ~server ~client_outcome ~server_outcome ~crash_mid =
  if primary_down t then raise Primary_unavailable;
  let cert =
    Oasis_trust.Registrar.record_interaction t.audit ~client ~server ~at:(World.now t.world)
      ~client_outcome ~server_outcome
  in
  Obs.Counter.inc (Obs.counter (World.obs t.world) "trust.certificates");
  (* Live issuance (Sect. 6): the certificate lands in both parties'
     wallets immediately and trust-gated roles re-check. The two filings
     are separate durable steps; [crash_mid] injects a registrar crash
     between them, leaving exactly one wallet updated until anti-entropy
     runs at restart. *)
  t.pending_filings <- cert :: t.pending_filings;
  ignore (World.file_audit_certificate t.world cert ~party:client : bool);
  if crash_mid then Fault.crash (World.fault t.world) t.router
  else begin
    ignore (World.file_audit_certificate t.world cert ~party:server : bool);
    t.pending_filings <-
      List.filter
        (fun (c : Oasis_trust.Audit.t) -> not (Ident.equal c.Oasis_trust.Audit.id cert.Oasis_trust.Audit.id))
        t.pending_filings
  end;
  cert

let record_interaction t ~client ~server ~client_outcome ~server_outcome =
  record_interaction_steps t ~client ~server ~client_outcome ~server_outcome ~crash_mid:false

let record_interaction_crashing t ~client ~server ~client_outcome ~server_outcome =
  record_interaction_steps t ~client ~server ~client_outcome ~server_outcome ~crash_mid:true

(* Bringing the primary back lets the cluster write again: it announces the
   expiries that fell due while down. *)
let set_replica_down t i down =
  Network.set_down (World.network t.world) t.replicas.(i).node down;
  if i = 0 && not down then Issuer_records.resume t.records

type stats = {
  validations_served : int array;
  issues : int;
  revocations : int;
  failovers : int;
  exhausted : int;
}

let stats t =
  {
    validations_served = Array.map (fun r -> r.served) t.replicas;
    issues = Obs.Counter.value t.c_issues;
    revocations = Obs.Counter.value t.c_revocations;
    failovers = Obs.Counter.value t.c_failovers;
    exhausted = Obs.Counter.value t.c_exhausted;
  }
