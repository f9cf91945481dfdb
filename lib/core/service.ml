module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Backoff = Oasis_util.Backoff
module Proc = Oasis_sim.Proc
module Engine = Oasis_sim.Engine
module Network = Oasis_sim.Network
module Fault = Oasis_sim.Fault
module Env = Oasis_policy.Env
module Rule = Oasis_policy.Rule
module Term = Oasis_policy.Term
module Solve = Oasis_policy.Solve
module Parser = Oasis_policy.Parser
module Lint = Oasis_policy.Lint
module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment
module Vcache = Oasis_cert.Validation_cache
module Elgamal = Oasis_crypto.Elgamal
module Signed = Oasis_cert.Signed
module Issuer_key = Oasis_cert.Issuer_key
module Challenge = Oasis_crypto.Challenge
module Obs = Oasis_obs.Obs
module Dlog = Oasis_trust.Decision_log

let log = Logs.Src.create "oasis.service" ~doc:"OASIS service events"

module Log = (val Logs.src_log log)

type config = {
  challenge_on_activation : bool;
  challenge_on_invocation : bool;
  challenge_appointment_holders : bool;
  cache_remote_validation : bool;
  retry : Backoff.policy;
  suspect_grace : float;
  reconcile_batch : int;
  offline_sign : bool;
}

let default_config =
  {
    challenge_on_activation = false;
    challenge_on_invocation = false;
    challenge_appointment_holders = false;
    cache_remote_validation = true;
    (* Three immediate attempts: byte-for-byte the historical fixed-count
       retry. Fault-tolerant deployments swap in a jittered policy. *)
    retry = Backoff.fixed 3;
    suspect_grace = 0.0;
    reconcile_batch = 8;
    offline_sign = true;
  }

(* Per-service counters of the decide path in the world's registry,
   labelled [service=<name>] — e.g. [service.callbacks_out{service=hospital}].
   The monitor keeps its own ({!Monitor.counters}); the public [stats]
   record below reads both back. *)
type counters = {
  activations_granted : Obs.Counter.t;
  activations_denied : Obs.Counter.t;
  invocations_granted : Obs.Counter.t;
  invocations_denied : Obs.Counter.t;
  appointments_granted : Obs.Counter.t;
  appointments_denied : Obs.Counter.t;
  callbacks_in : Obs.Counter.t;
  callbacks_out : Obs.Counter.t;
  offline_validations : Obs.Counter.t;
  validation_failures : Obs.Counter.t;
  retries_validate : Obs.Counter.t;
}

type stats = {
  activations_granted : int;
  activations_denied : int;
  invocations_granted : int;
  invocations_denied : int;
  appointments_granted : int;
  appointments_denied : int;
  callbacks_in : int;
  callbacks_out : int;
  offline_validations : int;
  validation_failures : int;
  revocations : int;
  cascade_deactivations : int;
  env_rechecks : int;
  suspects : int;
  reconciled_reinstated : int;
  reconciled_revoked : int;
  flaps_suppressed : int;
}

(* A rule as installed, with its canonical text, which the audit record of
   every grant it proves carries, and the credentials its body names: the
   prerequisite roles it checks RMCs against and the appointments. *)
type 'rule installed = {
  rule : 'rule;
  text : string;
  names_rmcs : Rule.cred_ref list;
  names_appointments : Rule.cred_ref list;
}

type t = {
  world : World.t;
  sid : Ident.t;
  sname : string;
  obs : Obs.t;
  solver : Solve.observer;
  config : config;
  env : Env.t;
  root_address : string;
  activations : (string, Rule.activation installed Queue.t) Hashtbl.t;
  authorizations : (string, Rule.authorization installed Queue.t) Hashtbl.t;
  appointers : (string, Rule.authorization installed Queue.t) Hashtbl.t;
  operations : (string, principal:Ident.t -> Value.t list -> Value.t option) Hashtbl.t;
  records : Issuer_records.t;
  audit : Audit_trail.t;
  cache : Vcache.t;
  monitor : Monitor.t;
  st : counters;
}

let id t = t.sid
let service_name t = t.sname
let env t = t.env

(* ------------------------------------------------------------------ *)
(* Policy installation                                                *)
(* ------------------------------------------------------------------ *)

(* Appends in O(1) while preserving installation order: a rule installed
   first is tried first, and bulk policy installation stays linear in the
   number of rules per role. *)
let multi_add table key v =
  match Hashtbl.find_opt table key with
  | Some q -> Queue.push v q
  | None ->
      let q = Queue.create () in
      Queue.push v q;
      Hashtbl.replace table key q

let add_activation_rule t (rule : Rule.activation) =
  let refs pick = List.filter_map pick rule.conditions in
  multi_add t.activations rule.role
    {
      rule;
      text = Parser.print_statement (Parser.Activation rule);
      names_rmcs = refs (function Rule.Prereq r -> Some r | _ -> None);
      names_appointments = refs (function Rule.Appointment r -> Some r | _ -> None);
    }

let installed_authorization statement (rule : Rule.authorization) =
  {
    rule;
    text = Parser.print_statement statement;
    names_rmcs = rule.required_roles;
    names_appointments = [];
  }

let add_authorization_rule t (rule : Rule.authorization) =
  multi_add t.authorizations rule.privilege
    (installed_authorization (Parser.Authorization rule) rule)

let add_rule t = function
  | Parser.Activation rule -> add_activation_rule t rule
  | Parser.Authorization rule -> add_authorization_rule t rule
  | Parser.Appointer rule as statement ->
      multi_add t.appointers rule.Rule.privilege (installed_authorization statement rule)

let register_operation t privilege handler = Hashtbl.replace t.operations privilege handler

(* ------------------------------------------------------------------ *)
(* Credential validation                                              *)
(* ------------------------------------------------------------------ *)

let issuer_chain t issuer = Signed.chain_for (World.authority t.world) issuer

(* Every credential check, remote or offline, reports its verdict the same
   way. *)
let trace_verdict t ~cert_id source ok =
  if Obs.tracing t.obs then
    Obs.event t.obs "svc.validate"
      ~labels:
        [
          ("service", t.sname);
          ("cert", Ident.to_string cert_id);
          ("source", source);
          ("ok", if ok then "true" else "false");
        ];
  ok

(* Remote validation with optional caching (Sect. 4, experiment E3).

   Positive verdicts are cached, for the exact presentation they answered,
   with an invalidation watch on the issuer's event channel; when that
   watch reports the certificate dead, the entry is converted to a cached
   negative verdict (revocation is permanent), so re-presenting a revoked
   certificate answers locally instead of issuing the callback again. A
   plain [false] wire verdict is never cached — RMC validity depends on the
   presented session key, not the cert id alone. *)
let validate_remote t ~issuer (presented : Vcache.presented) =
  let trace_verdict = trace_verdict t ~cert_id:(Vcache.presented_id presented) in
  let cached = if t.config.cache_remote_validation then Vcache.lookup t.cache presented else None in
  match cached with
  | Some Vcache.Valid -> trace_verdict "cache" true
  | Some Vcache.Invalid -> trace_verdict "cache" false
  | None -> (
      (* Datagram loss must not turn into a spurious denial: retry under the
         shared backoff policy before giving up (the verdict itself is never
         retried — a 'false' answer is authoritative). *)
      let attempt () =
        Obs.Counter.inc t.st.callbacks_out;
        match
          Network.rpc (World.network t.world) ~src:t.sid ~dst:issuer (Protocol.Validate presented)
        with
        | reply -> Ok reply
        | exception Network.Rpc_dropped -> Error ()
      in
      match
        Backoff.retry t.config.retry (World.rng t.world) ~sleep:Proc.sleep
          ~on_retry:(fun ~attempt:_ ~delay:_ -> Obs.Counter.inc t.st.retries_validate)
          attempt
      with
      | Ok (Protocol.Validate_result ok) ->
          if ok && t.config.cache_remote_validation then
            Monitor.cache_valid t.monitor ~issuer presented;
          trace_verdict "callback" ok
      | Ok _ -> trace_verdict "callback" false
      | Error () ->
          Monitor.note_unreachable t.monitor issuer;
          trace_verdict "callback_lost" false)

(* Challenge-response against a claimed public key (Sect. 4.1). *)
let challenge_key t ~dst ~key =
  match Elgamal.public_of_string key with
  | None -> false
  | Some public -> (
      let challenge, pending = Challenge.issue (World.rng t.world) public in
      match
        Network.rpc (World.network t.world) ~src:t.sid ~dst
          (Protocol.Challenge_msg { challenge; key_hint = key })
      with
      | Protocol.Challenge_response response -> Challenge.check pending response
      | _ -> false
      | exception Network.Rpc_dropped -> false)

let issuer_of = function
  | Vcache.Rmc (rmc, _) -> rmc.Rmc.issuer
  | Vcache.Appointment appt -> appt.Appointment.issuer

(* Checks one presented certificate, of either kind (Sect. 4). The
   verifier follows from its issuer: this service compares its own
   certificates with what it issued ({!Issuer_records.check}); an issuer
   with an enrolled key chain is checked offline (DESIGN.md §12) — no
   cached invalidation, no tombstone at the issuer, and the signature
   under the chain, answered from the validation cache's memo when this
   same presentation passed before; any other issuer (HMAC signers,
   decommissioned issuers) by callback. A chain in hand is
   authoritative for authenticity; freshness still comes from the
   dependency watches installed after the grant. An appointment's holder
   then proves possession of its long-lived key when the service demands
   it: that defeats stolen appointment certificates (Sect. 4.1). *)
let check t ~src presented =
  let issuer = issuer_of presented in
  (if Ident.equal issuer t.sid then Issuer_records.check t.records presented
   else
     match issuer_chain t issuer with
     | Some chain ->
         let cert_id = Vcache.presented_id presented in
         Obs.Counter.inc t.st.offline_validations;
         trace_verdict t ~cert_id "offline"
           ((not (Vcache.is_poisoned t.cache cert_id))
           && Option.is_none (World.revocation t.world ~issuer ~cert_id ~reader:t.sid)
           && Vcache.verify t.cache ~address:t.root_address ~chain ~now:(World.now t.world)
                presented)
     | None -> validate_remote t ~issuer presented)
  &&
  match presented with
  | Vcache.Appointment appt when t.config.challenge_appointment_holders ->
      challenge_key t ~dst:src ~key:appt.holder
  | Vcache.Rmc _ | Vcache.Appointment _ -> true

(* Presented credentials and the references in rule bodies meet on one
   key: the issuer's identifier and the role or appointment name. A rule's
   symbolic service resolves to this service when absent, through the
   world's name registry otherwise. *)
module Key = struct
  type t = Ident.t * string

  let equal (i, n) (j, m) = Ident.equal i j && String.equal n m
  let hash : t -> int = Hashtbl.hash
end

module Key_tbl = Hashtbl.Make (Key)

let resolve_issuer t = function
  | None -> Some t.sid
  | Some symbolic -> World.resolve t.world symbolic

let key_of : Vcache.presented -> Key.t = function
  | Vcache.Rmc (rmc, _) -> (rmc.issuer, rmc.role)
  | Vcache.Appointment appt -> (appt.issuer, appt.kind)

let cred_of = function
  | Vcache.Rmc (rmc, _) ->
      { Solve.cred_id = rmc.id; issuer = rmc.issuer; cred_name = rmc.role; cred_args = rmc.args }
  | Vcache.Appointment appt ->
      {
        Solve.cred_id = appt.id;
        issuer = appt.issuer;
        cred_name = appt.kind;
        cred_args = appt.args;
      }

(* The solver's view of a request's wallet, built in one pass: RMCs first,
   then appointments, each in presentation order. A checked, valid
   credential goes straight into its kind's index by key, so each rule
   condition looks up exactly its matching candidates instead of filtering
   the whole wallet (a rule with many conditions over a fat wallet was
   quadratic); a bucket keeps presentation order, so proof search tries
   credentials in the order presented. An invalid credential is dropped
   and counted: a wallet may legitimately hold certificates that have
   expired or been revoked.

   [rules] are the request's candidate rules. A credential none of them
   names can never support a proof — the solver only looks credentials up
   by the rules' own references — so it is dropped unchecked when its
   check would be local: its issuer is this service or has a chain. A check
   that goes over the network runs for every presented credential, named or
   not: a callback warms the cache, installs a cache watch and can mark its
   issuer unreachable, and a holder challenge is an RPC to the presenter. *)
let solver_context t ~src ~session_key ~rules (creds : Protocol.credentials) =
  let named_keys refs acc =
    List.fold_left
      (fun acc (r : Rule.cred_ref) ->
        match resolve_issuer t r.service with Some issuer -> (issuer, r.name) :: acc | None -> acc)
      acc refs
  in
  let named_rmcs, named_appts =
    Queue.fold
      (fun (rmcs, appts) entry ->
        (named_keys entry.names_rmcs rmcs, named_keys entry.names_appointments appts))
      ([], []) rules
  in
  let named keys key = List.exists (Key.equal key) keys in
  let keep index ~named presented =
    let ((issuer, _) as key) = key_of presented in
    if named key || not (Ident.equal issuer t.sid || Option.is_some (issuer_chain t issuer)) then
      if check t ~src presented then
        let cred = cred_of presented in
        match Key_tbl.find_opt index key with
        | Some bucket -> bucket := cred :: !bucket
        | None -> Key_tbl.replace index key (ref [ cred ])
      else Obs.Counter.inc t.st.validation_failures
  in
  let rmcs = Key_tbl.create 16 and appts = Key_tbl.create 16 in
  List.iter
    (fun rmc -> keep rmcs ~named:(named named_rmcs) (Vcache.Rmc (rmc, session_key)))
    creds.rmcs;
  List.iter
    (fun appt ->
      keep appts
        ~named:(fun key -> t.config.challenge_appointment_holders || named named_appts key)
        (Vcache.Appointment appt))
    creds.appointments;
  let find index service name =
    match resolve_issuer t service with
    | None -> []
    | Some issuer -> (
        match Key_tbl.find_opt index (issuer, name) with Some bucket -> !bucket | None -> [])
  in
  Key_tbl.iter (fun _ bucket -> bucket := List.rev !bucket) rmcs;
  Key_tbl.iter (fun _ bucket -> bucket := List.rev !bucket) appts;
  {
    Solve.find_rmcs = (fun ~service ~name -> find rmcs service name);
    find_appointments = (fun ~issuer ~name -> find appts issuer name);
    env_check = Env.check t.env;
    env_enumerate = Env.enumerate t.env;
  }

(* ------------------------------------------------------------------ *)
(* Administrative revocation (Fig. 5)                                 *)
(* ------------------------------------------------------------------ *)

let revoke_certificate t cert_id ~reason = Monitor.revoke t.monitor cert_id ~reason
let rotate_secret t = Issuer_records.rotate_key t.records

(* Withdraws every credential this service ever issued, so dependents
   everywhere collapse through the usual channels, and the state it holds
   about other services' certificates (Monitor.revoke_all); then the
   issuing-key chain, so its certificates stop verifying offline too, not
   just stop answering callbacks. *)
let decommission t ~reason =
  let count = Monitor.revoke_all t.monitor ~reason in
  Issuer_records.withdraw_key t.records;
  count

(* ------------------------------------------------------------------ *)
(* Request handling                                                   *)
(* ------------------------------------------------------------------ *)

(* Activation, invocation and appointment take one decision (Fig. 2). It
   has five outcomes: an unknown name, a failed challenge, a policy error
   and a missing proof are denied, and a proof is handed to the request's
   [grant]. Denials are decisions too: they enter the chain under [action]
   with the refusal reason in the rule slot, so [oasisctl audit why]
   explains refusals as well as grants. *)
let decide t ~src ~principal ~session_key ~creds ~action ~denied ~challenge ~unknown ~rules
    ~solve ~grant =
  let deny reason denial =
    Obs.Counter.inc denied;
    Audit_trail.log t.audit ~decision:Dlog.Deny ~principal ~action ~rule:reason ();
    Protocol.Denied denial
  in
  let policy_error message =
    Log.err (fun m -> m "%s: %s" t.sname message);
    deny message (Protocol.Bad_request message)
  in
  match rules with
  | None ->
      let reason, denial = unknown in
      deny reason denial
  | Some rules -> (
      let ctx = solver_context t ~src ~session_key ~rules creds in
      if challenge && not (challenge_key t ~dst:src ~key:session_key) then
        deny "challenge failed" Protocol.Challenge_failed
      else
        (* A rule that proves but leaves a head parameter unbound, one
           naming an unknown predicate, or one negating a non-ground
           constraint is a policy configuration error: refuse the request
           and log, never crash the service. *)
        match
          Seq.find_map
            (fun entry -> Option.map (fun proof -> (entry.text, proof)) (solve ctx entry.rule))
            (Queue.to_seq rules)
        with
        | Some (text, proof) -> grant ~rule:text proof
        | None -> deny "no proof" Protocol.No_proof
        | exception Solve.Unbound_head (r, v) ->
            policy_error (Printf.sprintf "policy error: unbound head parameter %s in role %s" v r)
        | exception Solve.Nonground_negation p ->
            policy_error (Printf.sprintf "policy error: non-ground negated constraint %s" p)
        | exception Env.Unknown_predicate p ->
            policy_error (Printf.sprintf "policy error: unknown predicate %s" p))

let seed_from_requested (rule : Rule.activation) requested =
  (* Positional unification of the requested parameter pins. *)
  if requested = [] then Some Term.Subst.empty
  else if List.length requested <> List.length rule.params then None
  else
    List.fold_left2
      (fun acc param pin ->
        match (acc, pin) with
        | None, _ -> None
        | Some subst, None -> Some subst
        | Some subst, Some value -> Term.unify subst param value)
      (Some Term.Subst.empty) rule.params requested

let handle_activate t ~src ~principal ~session_key ~role ~requested ~creds =
  let action = "activate:" ^ role in
  decide t ~src ~principal ~session_key ~creds ~action
    ~denied:t.st.activations_denied ~challenge:t.config.challenge_on_activation
    ~unknown:("unknown role", Protocol.Unknown_role role)
    ~rules:(Hashtbl.find_opt t.activations role)
    ~solve:(fun ctx rule ->
      Option.bind (seed_from_requested rule requested) (fun seed ->
          Solve.activation ~obs:t.solver ctx rule ~seed ()))
    ~grant:(fun ~rule (proof : Solve.proof) ->
      let rmc, record =
        Issuer_records.issue t.records ~principal ~name:role ~args:proof.role_args
          (Issuer_records.Rmc { session_key })
      in
      Monitor.grant t.monitor record proof;
      Audit_trail.record_grant t.audit ~issued:rmc.id ~principal ~action ~args:proof.role_args
        ~support:proof.support ~rule ();
      Obs.Counter.inc t.st.activations_granted;
      Log.debug (fun m ->
          m "%s grants %s(%s) to %a" t.sname role
            (String.concat ", " (List.map Value.to_string proof.role_args))
            Ident.pp principal);
      Protocol.Activate_ok { rmc; initial = proof.rule.initial })

(* Invocation and appointment both prove an authorization rule whose
   parameters are pinned positionally by the requested arguments. *)
let solve_privilege t args ctx (rule : Rule.authorization) =
  Option.bind (Term.unify_args Term.Subst.empty rule.priv_args args) (fun seed ->
      Solve.authorization ~obs:t.solver ctx rule ~seed () |> Option.map snd)

let handle_invoke t ~src ~principal ~session_key ~privilege ~args ~creds =
  decide t ~src ~principal ~session_key ~creds ~action:("invoke:" ^ privilege)
    ~denied:t.st.invocations_denied ~challenge:t.config.challenge_on_invocation
    ~unknown:("unknown privilege", Protocol.Unknown_privilege privilege)
    ~rules:(Hashtbl.find_opt t.authorizations privilege)
    ~solve:(solve_privilege t args)
    ~grant:(fun ~rule support ->
      (* A grant logs the bare privilege name. *)
      Audit_trail.record_grant t.audit ~principal ~action:privilege ~args ~support ~rule ();
      Obs.Counter.inc t.st.invocations_granted;
      let result =
        match Hashtbl.find_opt t.operations privilege with
        | Some operation -> operation ~principal args
        | None -> None
      in
      Protocol.Invoke_ok result)

let handle_appoint t ~src ~principal ~session_key ~kind ~args ~holder ~holder_key ~expires_at
    ~creds =
  let action = "appoint:" ^ kind in
  decide t ~src ~principal ~session_key ~creds ~action ~denied:t.st.appointments_denied
    ~challenge:t.config.challenge_on_invocation
    ~unknown:("unknown appointment kind", Protocol.Unknown_privilege action)
    ~rules:(Hashtbl.find_opt t.appointers kind)
    ~solve:(solve_privilege t args)
    ~grant:(fun ~rule support ->
      let expire cert_id = ignore (Monitor.revoke t.monitor cert_id ~reason:"expired") in
      let appt, _record =
        Issuer_records.issue t.records ~principal:holder ~name:kind ~args
          (Issuer_records.Appointment { holder_key; expires_at; expire })
      in
      Audit_trail.record_grant t.audit ~issued:appt.id ~principal ~action ~args ~support ~rule ();
      Obs.Counter.inc t.st.appointments_granted;
      Protocol.Appoint_ok appt)

let handle_deactivate t ~cert_id ~session_key =
  if Monitor.release t.monitor cert_id ~session_key then Protocol.Deactivate_ok
  else Protocol.Denied (Protocol.Bad_credential cert_id)

let handle_rpc t ~src msg =
  match msg with
  | Protocol.Activate { principal; session_key; role; requested; creds } ->
      handle_activate t ~src ~principal ~session_key ~role ~requested ~creds
  | Protocol.Invoke { principal; session_key; privilege; args; creds } ->
      handle_invoke t ~src ~principal ~session_key ~privilege ~args ~creds
  | Protocol.Appoint { principal; session_key; kind; args; holder; holder_key; expires_at; creds }
    ->
      handle_appoint t ~src ~principal ~session_key ~kind ~args ~holder ~holder_key ~expires_at
        ~creds
  | Protocol.Deactivate { cert_id; session_key } -> handle_deactivate t ~cert_id ~session_key
  | Protocol.Validate presented ->
      Obs.Counter.inc t.st.callbacks_in;
      Protocol.Validate_result (Issuer_records.check t.records presented)
  | Protocol.Env_check { pred; args } ->
      (* Answer remote environmental lookups against our database (Sect. 2:
         "database lookup at some service"). Unknown predicates answer
         [false] to the remote — our own policy errors stay local. *)
      Protocol.Env_result (match Env.check t.env pred args with ok -> ok | exception Env.Unknown_predicate _ -> false)
  | Protocol.Check_cr { cert_id } ->
      (* Anti-entropy: answer point-blank from the credential store. Any
         service can vouch for (or disown) the certificates it issued. *)
      Protocol.Cr_status { valid = Issuer_records.is_valid t.records cert_id }
  | Protocol.Activate_ok _ | Protocol.Invoke_ok _ | Protocol.Appoint_ok _
  | Protocol.Deactivate_ok | Protocol.Validate_result _ | Protocol.Challenge_msg _
  | Protocol.Challenge_response _ | Protocol.Env_result _ | Protocol.Cr_status _
  | Protocol.Denied _ ->
      Protocol.Denied (Protocol.Bad_request "not a request")

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

exception Policy_rejected of Lint.finding list

let install_policy t statements =
  (* Lint the batch as a single open world: cross-service references and
     world-level resolution are a deployment concern (oasisctl lint); what
     must never reach the rule tables are the findings that can only ever
     fail at request time (Lint.install_blocking). *)
  let blocking =
    Lint.check ~closed:false [ Lint.of_statements ~name:t.sname statements ]
    |> List.filter Lint.install_blocking
  in
  if blocking <> [] then raise (Policy_rejected blocking);
  List.iter (add_rule t) statements

let create world ~name ?(config = default_config) ?env ~policy () =
  let sid = World.fresh_service_id world in
  let env =
    match env with Some e -> e | None -> Env.create (Engine.clock (World.engine world))
  in
  let obs = World.obs world in
  let labels = [ ("service", name) ] in
  let counter cname = Obs.counter obs cname ~labels in
  let authority = World.authority world in
  let records =
    Issuer_records.create world
      (Issuer_key.create authority ~rng:(World.rng world) ~subject:sid
         ~offline_sign:config.offline_sign ~now:(World.now world))
  in
  let audit = Audit_trail.create world ~service:sid ~name in
  let cache = Vcache.create ~obs ~labels () in
  let t =
    {
      world;
      sid;
      sname = name;
      obs;
      solver = Solve.observer obs;
      config;
      env;
      root_address = Signed.address authority;
      activations = Hashtbl.create 16;
      authorizations = Hashtbl.create 16;
      appointers = Hashtbl.create 8;
      operations = Hashtbl.create 8;
      records;
      audit;
      cache;
      monitor =
        Monitor.create world ~service:sid ~name ~env ~records ~audit ~cache
          ~suspect_grace:config.suspect_grace ~reconcile_batch:config.reconcile_batch
          ~retry:config.retry;
      st =
        {
          activations_granted = counter "service.activations_granted";
          activations_denied = counter "service.activations_denied";
          invocations_granted = counter "service.invocations_granted";
          invocations_denied = counter "service.invocations_denied";
          appointments_granted = counter "service.appointments_granted";
          appointments_denied = counter "service.appointments_denied";
          callbacks_in = counter "service.callbacks_in";
          callbacks_out = counter "service.callbacks_out";
          offline_validations = counter "service.offline_validations";
          validation_failures = counter "service.validation_failures";
          retries_validate = Obs.counter obs "rpc.retries" ~labels:[ ("site", "validate") ];
        };
    }
  in
  install_policy t (Parser.parse_exn policy);
  Monitor.start t.monitor;
  (* Bridge the world's live trust assessor behind the [trust_score]
     predicate (shadowing the fail-closed stub Env.create registered); the
     monitor re-checks trust-gated roles whenever a score may have moved.
     The grant check demands the full threshold whatever the arity; the
     hold check (asked only for existing memberships) accepts the
     hysteresis band when a third argument supplies one. *)
  let as_threshold = function
    | Value.Time thr -> Some thr
    | Value.Int thr -> Some (float_of_int thr)
    | Value.Str _ | Value.Bool _ | Value.Id _ -> None
  in
  let score_at_least subject threshold =
    match as_threshold threshold with
    | Some thr -> World.trust_score world subject >= thr
    | None -> false
  in
  Env.register t.env "trust_score" (fun args ->
      match args with
      | [ Value.Id subject; threshold ] | [ Value.Id subject; threshold; _ ] ->
          score_at_least subject threshold
      | _ -> false);
  Env.register_hold t.env "trust_score" (fun args ->
      match args with
      | [ Value.Id subject; threshold ] -> score_at_least subject threshold
      | [ Value.Id subject; threshold; band ] -> (
          match (as_threshold threshold, as_threshold band) with
          | Some thr, Some delta ->
              World.trust_score world subject >= thr -. Float.max 0.0 delta
          | _ -> false)
      | _ -> false);
  World.register_service world ~name sid;
  Oasis_sim.Network.add_node (World.network world) sid (handle_rpc t);
  t

(* Crash/restart are driven through the world's fault controller so network
   down-state, the broker's partition filter and the monitor's hooks stay in
   lock-step; these are conveniences for tests and application code. *)
let crash t = Fault.crash (World.fault t.world) t.sid
let restart t = Fault.restart (World.fault t.world) t.sid
let is_crashed t = Monitor.is_down t.monitor

exception Chain_tampered = Audit_trail.Chain_tampered

(* Registers [local_name] as a computed predicate answered by [at]'s
   environment over the network. Must be evaluated from within a simulated
   process (true during request handling). A network failure counts as
   "does not hold". *)
let register_remote_predicate t ~local_name ~at ~remote_name =
  Env.register t.env local_name (fun args ->
      match
        Network.rpc (World.network t.world) ~src:t.sid ~dst:at
          (Protocol.Env_check { pred = remote_name; args })
      with
      | Protocol.Env_result ok -> ok
      | _ -> false
      | exception Network.Rpc_dropped -> false)

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let is_valid_certificate t cert_id = Issuer_records.is_valid t.records cert_id

let active_roles t = Monitor.active_roles t.monitor

let suspect_roles t = Monitor.suspect_roles t.monitor
let env_watcher_count t = Monitor.env_watcher_count t.monitor
let env_watcher_count_tuple t = Monitor.env_watcher_count_tuple t.monitor

let decision_log t = Audit_trail.decision_log t.audit

let stats t =
  let m = Monitor.counters t.monitor in
  {
    activations_granted = Obs.Counter.value t.st.activations_granted;
    activations_denied = Obs.Counter.value t.st.activations_denied;
    invocations_granted = Obs.Counter.value t.st.invocations_granted;
    invocations_denied = Obs.Counter.value t.st.invocations_denied;
    appointments_granted = Obs.Counter.value t.st.appointments_granted;
    appointments_denied = Obs.Counter.value t.st.appointments_denied;
    callbacks_in = Obs.Counter.value t.st.callbacks_in;
    callbacks_out = Obs.Counter.value t.st.callbacks_out;
    offline_validations = Obs.Counter.value t.st.offline_validations;
    validation_failures = Obs.Counter.value t.st.validation_failures;
    revocations = Obs.Counter.value m.revocations;
    cascade_deactivations = Obs.Counter.value m.cascade_deactivations;
    env_rechecks = Obs.Counter.value m.env_rechecks;
    suspects = Obs.Counter.value m.suspects;
    reconciled_reinstated = Obs.Counter.value m.reconciled_reinstated;
    reconciled_revoked = Obs.Counter.value m.reconciled_revoked;
    flaps_suppressed = Obs.Counter.value m.flaps_suppressed;
  }
