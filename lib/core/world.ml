module Engine = Oasis_sim.Engine
module Network = Oasis_sim.Network
module Proc = Oasis_sim.Proc
module Broker = Oasis_event.Broker
module Rng = Oasis_util.Rng
module Ident = Oasis_util.Ident
module Obs = Oasis_obs.Obs
module Cr = Oasis_cert.Credential_record

type heartbeat_config = { period : float; deadline : float }

type monitoring =
  | Change_events
  | Heartbeats of heartbeat_config

(* The world-owned trust state (Sect. 6): one assessor scoring every
   party from the audit certificates in its wallet, validator callbacks
   keyed by registrar, and listeners the active-security layer uses to
   re-check trust-gated roles when a score may have moved. *)
type trust = {
  assessor : Oasis_trust.Assess.t;
  wallets : Oasis_trust.History.t Ident.Tbl.t;
  validators : (Oasis_trust.Audit.t -> bool) Ident.Tbl.t;
  mutable trust_listeners : (Ident.t -> unit) list;
  last_scores : float Ident.Tbl.t;
      (* score each subject's listeners last saw: notifications that would
         repeat it are suppressed (a no-op notification must not trigger
         the recheck cascade) *)
  mutable decay_tick : Oasis_sim.Engine.cancel option;
}

type issuer = { records : Cr.store; epoch : unit -> int option; on_heal : unit -> unit }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  obs : Obs.t;
  network : Protocol.msg Network.t;
  broker : Protocol.event Broker.t;
  fault : Protocol.msg Oasis_sim.Fault.t;
  monitoring : monitoring;
  authority : Oasis_cert.Signed.authority;
  names : (string, Ident.t) Hashtbl.t;
  cert_gen : Ident.gen;
  service_gen : Ident.gen;
  principal_gen : Ident.gen;
  anon_gen : Ident.gen;
  trust : trust;
  durable : Durable.t;
  issuers : issuer Ident.Tbl.t;
}

let create ?(seed = 1) ?(net_latency = 0.001) ?(net_jitter = 0.0) ?(notify_latency = 0.001)
    ?(monitoring = Change_events) () =
  (match monitoring with
  | Heartbeats { period; deadline } when not (period > 0.0 && deadline > 0.0) ->
      invalid_arg "World.create: heartbeat period and deadline must be positive"
  | Heartbeats _ | Change_events -> ());
  let engine = Engine.create () in
  let rng = Rng.create seed in
  (* One registry per world, on the engine's virtual clock; the network,
     broker and every service report into it. *)
  let obs = Obs.create ~now:(fun () -> Engine.now engine) () in
  let network =
    Network.create engine (Rng.split rng) ~default_latency:net_latency ~default_jitter:net_jitter
      ~size_of:Protocol.size_of ~obs ()
  in
  (* The broker draws nothing, but the split it used to take stays, so the
     streams split after it, and every seed's draws, do not move. *)
  ignore (Rng.split rng : Rng.t);
  let broker = Broker.create engine ~notify_latency ~obs in
  let fault = Oasis_sim.Fault.create network in
  (* The domain root authority draws from its own stream derived from the
     seed — not from [rng] — so adding signatures perturbs none of the
     latency/secret draws existing seeds produce. *)
  let authority = Oasis_cert.Signed.create_authority (Rng.create ((seed * 2654435761) lxor 0x0a515) ) in
  (* Partitions sever event channels exactly as they sever the network:
     publishes that name their source are filtered against the fault map. *)
  Broker.set_filter broker
    (Some (fun ~publisher ~owner -> Oasis_sim.Fault.is_cut fault publisher owner));
  (* After a heal every issuer the partition named repairs what it
     swallowed, in creation order; the others lost nothing to it. *)
  let issuers = Ident.Tbl.create 16 in
  Oasis_sim.Fault.on_heal fault (fun pairs ->
      let named id = List.exists (fun (a, b) -> Ident.equal a id || Ident.equal b id) pairs in
      Ident.Tbl.fold (fun id issuer acc -> if named id then (id, issuer) :: acc else acc) issuers []
      |> List.sort (fun (a, _) (b, _) -> Ident.compare a b)
      |> List.iter (fun (_, issuer) -> issuer.on_heal ()));
  {
    engine;
    rng;
    obs;
    network;
    broker;
    fault;
    monitoring;
    authority;
    names = Hashtbl.create 16;
    cert_gen = Ident.generator "cert";
    service_gen = Ident.generator "service";
    principal_gen = Ident.generator "principal";
    anon_gen = Ident.generator "anon";
    trust =
      {
        assessor = Oasis_trust.Assess.create ();
        wallets = Ident.Tbl.create 16;
        validators = Ident.Tbl.create 4;
        trust_listeners = [];
        last_scores = Ident.Tbl.create 16;
        decay_tick = None;
      };
    durable = Durable.create ();
    issuers;
  }

let engine t = t.engine
let rng t = t.rng
let durable t = t.durable
let obs t = t.obs
let network t = t.network
let broker t = t.broker
let fault t = t.fault
let monitoring t = t.monitoring
let authority t = t.authority
let now t = Engine.now t.engine

let fresh_cert_id t = Ident.fresh t.cert_gen
let fresh_service_id t = Ident.fresh t.service_gen
let fresh_principal_id t = Ident.fresh t.principal_gen
let fresh_anon_id t = Ident.fresh t.anon_gen

let register_service t ~name id =
  if Hashtbl.mem t.names name then
    invalid_arg (Printf.sprintf "World.register_service: name %s already bound" name);
  Hashtbl.replace t.names name id

let resolve t name = Hashtbl.find_opt t.names name

let register_issuer t id issuer = Ident.Tbl.replace t.issuers id issuer

(* The record is looked up first: the reachability test is paid only for a
   revoked one. *)
let revocation t ~issuer ~cert_id ~reader =
  match Ident.Tbl.find_opt t.issuers issuer with
  | None -> None
  | Some { records; _ } -> (
      match Cr.find records cert_id with
      | Some { Cr.status = Cr.Revoked { reason; _ }; _ }
        when not (Oasis_sim.Fault.is_cut t.fault issuer reader) ->
          Some reason
      | Some _ | None -> None)

let feed_epoch t ~issuer ~reader =
  match Ident.Tbl.find_opt t.issuers issuer with
  | Some { epoch; _ } when not (Oasis_sim.Fault.is_cut t.fault issuer reader) -> epoch ()
  | Some _ | None -> None

let spawn t f = Proc.spawn t.engine f

let run t = Engine.run t.engine

let run_until t horizon = Engine.run_until t.engine horizon

let settle t = Engine.run_until t.engine (Engine.now t.engine +. 1.0)

(* ------------------------------------------------------------------ *)
(* Trust (Sect. 6): wallets, assessor, change propagation              *)
(* ------------------------------------------------------------------ *)

let wallet t party =
  match Ident.Tbl.find_opt t.trust.wallets party with
  | Some w -> w
  | None ->
      let w = Oasis_trust.History.create party in
      Ident.Tbl.replace t.trust.wallets party w;
      w

let register_trust_validator t ~registrar f = Ident.Tbl.replace t.trust.validators registrar f

let trust_validate t cert =
  (* Fail closed: certificates from registrars nobody bridged in never
     count as evidence. *)
  match Ident.Tbl.find_opt t.trust.validators cert.Oasis_trust.Audit.registrar with
  | Some f -> f cert
  | None -> false

let on_trust_change t f = t.trust.trust_listeners <- f :: t.trust.trust_listeners

let set_score_gauge t subject score =
  Obs.Gauge.set
    (Obs.gauge t.obs "trust.score" ~labels:[ ("subject", Ident.to_string subject) ])
    score

let assess t subject =
  let presented = Oasis_trust.History.present (wallet t subject) in
  (* Full recompute over the wallet, seeding the assessor's running
     aggregate so subsequent {!trust_score} reads are O(1) until the next
     certificate arrives (then O(1) again via [Assess.observe]). *)
  let verdict =
    Oasis_trust.Assess.assess_at ~remember:true t.trust.assessor ~now:(now t)
      ~validate:(trust_validate t) ~subject ~presented
  in
  set_score_gauge t subject verdict.Oasis_trust.Assess.score;
  let bump cause n =
    if n > 0 then
      Obs.Counter.add (Obs.counter t.obs "trust.rejected" ~labels:[ ("cause", cause) ]) n
  in
  bump "not_about_subject" verdict.Oasis_trust.Assess.rejected_not_about_subject;
  bump "validation_failed" verdict.Oasis_trust.Assess.rejected_validation_failed;
  bump "duplicate" verdict.Oasis_trust.Assess.rejected_duplicate;
  verdict

let trust_score t subject =
  match Oasis_trust.Assess.cached_score t.trust.assessor ~subject ~now:(now t) with
  | Some score ->
      set_score_gauge t subject score;
      score
  | None -> (assess t subject).Oasis_trust.Assess.score

(* Every trust notification flows through here. A notification whose score
   matches what listeners already saw is a no-op: fanning it out would
   re-check the subject's trust-gated roles for nothing, so it is counted
   and dropped instead. *)
let notify_trust_change t subject =
  let score = trust_score t subject in
  match Ident.Tbl.find_opt t.trust.last_scores subject with
  | Some prev when Float.equal prev score ->
      Obs.Counter.inc (Obs.counter t.obs "trust.notify_suppressed")
  | _ ->
      Ident.Tbl.replace t.trust.last_scores subject score;
      List.iter (fun f -> f subject) (List.rev t.trust.trust_listeners)

(* File into one party's wallet. Split from the both-parties path so a
   registrar crash mid-issuance can leave exactly one wallet updated —
   the inconsistency anti-entropy later repairs (idempotently, thanks to
   wallet dedup). *)
let file_audit_certificate t cert ~party =
  if Oasis_trust.History.add (wallet t party) cert then begin
    Oasis_trust.Assess.observe t.trust.assessor ~subject:party ~now:(now t) cert;
    Obs.Counter.inc
      (Obs.counter t.obs "trust.certificates_filed" ~labels:[ ("party", Ident.to_string party) ]);
    notify_trust_change t party;
    true
  end
  else begin
    (* Duplicate delivery (anti-entropy replay): nothing moved, so the
       notification is suppressed. *)
    notify_trust_change t party;
    false
  end

(* Decay makes scores time-varying even with no new evidence, so the world
   re-assesses every walleted party each [tick] and notifies only the
   subjects whose score actually moved (the change detection above). *)
let set_trust_decay t ~rate ~tick =
  Oasis_trust.Assess.set_decay_rate t.trust.assessor rate;
  (match t.trust.decay_tick with
  | Some handle ->
      Engine.cancel t.engine handle;
      t.trust.decay_tick <- None
  | None -> ());
  if tick > 0.0 then
    t.trust.decay_tick <-
      Some
        (Engine.every t.engine ~period:tick (fun () ->
             let subjects = Ident.Tbl.fold (fun s _ acc -> s :: acc) t.trust.wallets [] in
             List.iter (fun subject -> notify_trust_change t subject) subjects;
             true))

let run_proc t f =
  let result = ref None in
  spawn t (fun () -> result := Some (f ()));
  (* Step rather than run to completion: recurring activity (heartbeat
     emitters) keeps the queue non-empty forever. *)
  while Option.is_none !result && Engine.step t.engine do
    ()
  done;
  match !result with
  | Some v -> v
  | None -> failwith "World.run_proc: process did not complete (deadlock or lost message?)"
