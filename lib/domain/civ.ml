module Ident = Oasis_util.Ident
module Network = Oasis_sim.Network
module Fault = Oasis_sim.Fault
module Appointment = Oasis_cert.Appointment
module Vcache = Oasis_cert.Validation_cache
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

(* Writes need the primary (replica 0) up and the router not crashed. *)
let primary_down_at world ~router ~primary =
  Network.is_down (World.network world) primary || Fault.is_crashed (World.fault world) router

let primary_down t = primary_down_at t.world ~router:t.router ~primary:t.replicas.(0).node
let is_valid t cert_id = Issuer_records.is_valid t.records cert_id

(* ------------------------------------------------------------------ *)
(* Validation, replica side                                           *)
(* ------------------------------------------------------------------ *)

(* A replica answers as any issuer answers for its own certificates, from
   the cluster's one record store: a revocation or an issue is seen by
   every replica the moment the primary writes it. *)
let replica_handler t replica ~src:_ = function
  | Protocol.Validate presented ->
      replica.served <- replica.served + 1;
      Protocol.Validate_result (Issuer_records.check t.records presented)
  | Protocol.Check_cr { cert_id } -> Protocol.Cr_status { valid = is_valid t cert_id }
  | _ -> Protocol.Denied (Protocol.Bad_request "CIV replicas only validate")

(* ------------------------------------------------------------------ *)
(* Router: round-robin with failover                                  *)
(* ------------------------------------------------------------------ *)

let route t msg ~exhausted =
  let n = Array.length t.replicas in
  let start = t.rr in
  t.rr <- (t.rr + 1) mod n;
  let rec try_from attempt =
    if attempt >= n then begin
      Obs.Counter.inc t.c_exhausted;
      exhausted
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

(* Reads go to any replica, so they survive the primary's failure. With
   no replica reachable a validation is refused, and a status check gets
   no status: "could not determine" must never read as "revoked". *)
let router_handler t ~src:_ msg =
  match msg with
  | Protocol.Validate _ -> route t msg ~exhausted:(Protocol.Validate_result false)
  | Protocol.Check_cr _ ->
      route t msg ~exhausted:(Protocol.Denied (Protocol.Bad_request "no CIV replica reachable"))
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

let create world ~name ?(offline_sign = true) () =
  let router = World.fresh_service_id world in
  let counter cname = Obs.counter (World.obs world) cname ~labels:[ ("civ", name) ] in
  let replicas =
    Array.init 3 (fun _ -> { node = World.fresh_service_id world; served = 0 })
  in
  (* The key draws from the world's stream before the registrar splits it. *)
  let records =
    Issuer_records.create world
      ~is_down:(fun () -> primary_down_at world ~router ~primary:replicas.(0).node)
      (Issuer_key.create (World.authority world) ~rng:(World.rng world) ~subject:router
         ~offline_sign ~now:(World.now world))
  in
  let t =
    {
      world;
      router;
      audit = Oasis_trust.Registrar.create (Oasis_util.Rng.split (World.rng world)) ~name ();
      records;
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
  let expire cert_id = ignore (revoke t cert_id ~reason:"expired") in
  let appt, _record =
    Issuer_records.issue t.records ~principal:holder ~name:kind ~args
      (Issuer_records.Appointment { holder_key; expires_at; expire })
  in
  Obs.Counter.inc t.c_issues;
  appt

(* Re-issue accepts a certificate of any epoch (that is its purpose), but
   only one this cluster issued exactly so, unexpired, with a valid record. *)
let reissue t (old : Appointment.t) =
  if primary_down t then raise Primary_unavailable;
  match Issuer_records.issued t.records (Vcache.Appointment old) with
  | None -> Error "not a valid certificate of this cluster"
  | Some record ->
      ignore (revoke t old.id ~reason:"superseded");
      Ok
        (issue t ~kind:old.kind ~args:old.args ~holder:record.Cr.principal ~holder_key:old.holder
           ?expires_at:old.expires_at ())

let rotate_secret t = Issuer_records.rotate_key t.records

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
