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
module Cr = Oasis_cert.Credential_record
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
  key : Issuer_key.t;
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
let current_epoch t = Issuer_key.epoch t.key

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

(* An own RMC is authentic exactly when it is the certificate this service
   granted under that id, bound to the same session key: the monitor's
   grant record answers that with a comparison, no signature check. Own
   appointments verify under this service's issuer key
   ({!Issuer_records.verify_appointment}). Either way the credential record
   store has the last word — a genuine but revoked certificate is dead. *)
let verify_own_rmc t ~principal_key (rmc : Rmc.t) =
  Monitor.granted t.monitor rmc ~session_key:principal_key
  && Issuer_records.is_valid t.records rmc.id

(* How a presented certificate is verified follows from what its issuer
   publishes: offline against the issuer's chain with the domain root when
   there is one, by callback otherwise. *)
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
        let request =
          match presented with
          | Vcache.Rmc (rmc, principal_key) -> Protocol.Validate_rmc { rmc; principal_key }
          | Vcache.Appointment appt -> Protocol.Validate_appt { appt }
        in
        match Network.rpc (World.network t.world) ~src:t.sid ~dst:issuer request with
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

(* Validates the presented credentials, returning solver candidates.
   Invalid credentials are dropped (and counted): a wallet may legitimately
   contain certificates that have expired or been revoked.

   [rules] are the request's candidate rules. A credential none of them
   names can never support a proof — the solver only looks credentials up
   by the rules' own references — so it is dropped unchecked when its
   check would be local: its issuer is this service or has a chain. A check that goes over the
   network runs for every presented credential, named or not, in
   presentation order: a callback warms the cache, installs a cache watch
   and can mark its issuer unreachable, and a holder challenge is an RPC to
   the presenter. *)
let validate_presented t ~src ~session_key ~rules (creds : Protocol.credentials) =
  (* Zero-RPC verification (DESIGN.md §12): when the presenting issuer has
     an enrolled key chain, the signature is checked locally against the
     domain root and no callback is made. A chain in hand is authoritative
     for *authenticity*; freshness still comes from the dep watches
     installed after the grant (and from the poisoned cache for revocations
     this service has already witnessed). Issuers without a chain — HMAC
     signers, decommissioned issuers — are validated by callback. *)
  let offline_verdict ~issuer cert_id verify =
    Obs.Counter.inc t.st.offline_validations;
    trace_verdict t ~cert_id "offline"
      ((not (Vcache.is_poisoned t.cache cert_id))
      && Option.is_none (World.revocation t.world ~issuer ~cert_id ~reader:t.sid)
      && verify ())
  in
  let rmc_ok (rmc : Rmc.t) =
    if Ident.equal rmc.issuer t.sid then verify_own_rmc t ~principal_key:session_key rmc
    else
      match issuer_chain t rmc.issuer with
      | Some chain ->
          offline_verdict ~issuer:rmc.issuer rmc.id (fun () ->
              Vcache.verify_rmc t.cache ~address:t.root_address ~chain ~principal_key:session_key
                rmc)
      | None -> validate_remote t ~issuer:rmc.issuer (Vcache.Rmc (rmc, session_key))
  in
  let appt_ok (appt : Appointment.t) =
    (if Ident.equal appt.issuer t.sid then Issuer_records.verify_appointment t.records t.key appt
     else
       match issuer_chain t appt.issuer with
       | Some chain ->
           offline_verdict ~issuer:appt.issuer appt.id (fun () ->
               Vcache.verify_appointment t.cache ~address:t.root_address ~chain
                 ~now:(World.now t.world) appt)
       | None -> validate_remote t ~issuer:appt.issuer (Vcache.Appointment appt))
    && ((not t.config.challenge_appointment_holders)
       (* Prove possession of the long-lived holder key: defeats stolen
          appointment certificates (Sect. 4.1). *)
       || challenge_key t ~dst:src ~key:appt.holder)
  in
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
  let checked ~named issuer =
    named || not (Ident.equal issuer t.sid || Option.is_some (issuer_chain t issuer))
  in
  let keep valid =
    List.filter (fun c ->
        let ok = valid c in
        if not ok then Obs.Counter.inc t.st.validation_failures;
        ok)
  in
  let keep_rmcs =
    keep rmc_ok
      (List.filter
         (fun (rmc : Rmc.t) -> checked rmc.issuer ~named:(named named_rmcs (rmc.issuer, rmc.role)))
         creds.rmcs)
  in
  let keep_appts =
    keep appt_ok
      (List.filter
         (fun (appt : Appointment.t) ->
           checked appt.issuer
             ~named:
               (t.config.challenge_appointment_holders
               || named named_appts (appt.issuer, appt.kind)))
         creds.appointments)
  in
  let rmc_creds =
    List.map
      (fun (rmc : Rmc.t) ->
        { Solve.cred_id = rmc.id; issuer = rmc.issuer; cred_name = rmc.role; cred_args = rmc.args })
      keep_rmcs
  in
  let appt_creds =
    List.map
      (fun (appt : Appointment.t) ->
        {
          Solve.cred_id = appt.id;
          issuer = appt.issuer;
          cred_name = appt.kind;
          cred_args = appt.args;
        })
      keep_appts
  in
  (rmc_creds, appt_creds)

(* Candidate credentials indexed by key: built once per request, then each
   rule condition looks up exactly its matching candidates instead of
   filtering the whole presented wallet (a rule with many conditions over
   a fat wallet was quadratic). Presentation order is preserved within a
   bucket, so proof search tries credentials in the order presented. *)
let index_creds creds =
  let tbl = Key_tbl.create 16 in
  List.iter
    (fun (c : Solve.cred) ->
      let k = (c.issuer, c.cred_name) in
      match Key_tbl.find_opt tbl k with
      | Some bucket -> bucket := c :: !bucket
      | None -> Key_tbl.replace tbl k (ref [ c ]))
    creds;
  Key_tbl.iter (fun _ bucket -> bucket := List.rev !bucket) tbl;
  fun k -> match Key_tbl.find_opt tbl k with Some bucket -> !bucket | None -> []

let solver_context t ~rmc_creds ~appt_creds =
  let find_rmc = index_creds rmc_creds in
  let find_appt = index_creds appt_creds in
  let by_issuer find service name =
    match resolve_issuer t service with None -> [] | Some issuer -> find (issuer, name)
  in
  {
    Solve.find_rmcs = (fun ~service ~name -> by_issuer find_rmc service name);
    find_appointments = (fun ~issuer ~name -> by_issuer find_appt issuer name);
    env_check = Env.check t.env;
    env_enumerate = Env.enumerate t.env;
  }

(* ------------------------------------------------------------------ *)
(* Administrative revocation (Fig. 5)                                 *)
(* ------------------------------------------------------------------ *)

let revoke_certificate t cert_id ~reason = Monitor.revoke t.monitor cert_id ~reason
let rotate_secret t = Issuer_key.rotate t.key ~now:(World.now t.world)

(* Withdraws every credential this service ever issued, so dependents
   everywhere collapse through the usual channels, and the state it holds
   about other services' certificates (Monitor.revoke_all); then the
   issuing-key chain, so its certificates stop verifying offline too, not
   just stop answering callbacks. *)
let decommission t ~reason =
  let count = Monitor.revoke_all t.monitor ~reason in
  Issuer_key.withdraw t.key;
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
      let rmc_creds, appt_creds = validate_presented t ~src ~session_key ~rules creds in
      let ctx = solver_context t ~rmc_creds ~appt_creds in
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
      let cert_id = World.fresh_cert_id t.world in
      let rmc =
        Issuer_key.issue_rmc t.key ~principal_key:session_key ~id:cert_id ~role
          ~args:proof.role_args ~issued_at:(World.now t.world)
      in
      let record =
        Issuer_records.add t.records ~cert_id ~kind:Cr.Kind_rmc ~principal ~name:role
          ~args:proof.role_args ()
      in
      Monitor.grant t.monitor ~rmc ~record ~session_key ~principal proof;
      Audit_trail.record_grant t.audit ~issued:cert_id ~principal ~action ~args:proof.role_args
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
      let cert_id = World.fresh_cert_id t.world in
      let appt =
        Issuer_key.issue_appointment t.key ~id:cert_id ~kind ~args ~holder:holder_key
          ~issued_at:(World.now t.world) ?expires_at ()
      in
      let expire () = ignore (Monitor.revoke t.monitor cert_id ~reason:"expired") in
      ignore
        (Issuer_records.add t.records ~cert_id ~kind:Cr.Kind_appointment ~principal:holder
           ~name:kind ~args
           ?expiry:(Option.map (fun at -> (at, expire)) expires_at)
           ());
      Audit_trail.record_grant t.audit ~issued:cert_id ~principal ~action ~args ~support ~rule ();
      Obs.Counter.inc t.st.appointments_granted;
      Protocol.Appoint_ok appt)

let handle_deactivate t ~cert_id ~session_key =
  if Monitor.release t.monitor cert_id ~session_key then Protocol.Deactivate_ok
  else Protocol.Denied (Protocol.Bad_credential cert_id)

let handle_validate_rmc t ~rmc ~principal_key =
  Obs.Counter.inc t.st.callbacks_in;
  Protocol.Validate_result (verify_own_rmc t ~principal_key rmc)

let handle_validate_appt t ~appt =
  Obs.Counter.inc t.st.callbacks_in;
  Protocol.Validate_result (Issuer_records.verify_appointment t.records t.key appt)

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
  | Protocol.Validate_rmc { rmc; principal_key } -> handle_validate_rmc t ~rmc ~principal_key
  | Protocol.Validate_appt { appt } -> handle_validate_appt t ~appt
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
  let records = Issuer_records.create world ~issuer:sid in
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
      key =
        Issuer_key.create authority ~rng:(World.rng world) ~subject:sid
          ~offline_sign:config.offline_sign ~now:(World.now world);
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
