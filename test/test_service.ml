(* The OASIS service: role entry, service use, appointment, denials
   (Fig. 2 paths 1-4). *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Env = Oasis_policy.Env
module Value = Oasis_util.Value
module Rmc = Oasis_cert.Rmc
module Proc = Oasis_sim.Proc
open Fixtures

let test_initial_role_activation () =
  let t = make () in
  let rmc =
    World.run_proc t.world (fun () ->
        let s = Principal.start_session t.alice in
        ok (Principal.activate t.alice s t.hospital ~role:"logged_in" ()))
  in
  Alcotest.(check string) "role name" "logged_in" rmc.Rmc.role;
  Alcotest.(check bool) "parametrised by principal" true
    (List.exists (Value.equal (Value.Id (Principal.id t.alice))) rmc.Rmc.args);
  Alcotest.(check bool) "issuer is hospital" true
    (Oasis_util.Ident.equal rmc.Rmc.issuer (Service.id t.hospital));
  Alcotest.(check bool) "CR valid" true (Service.is_valid_certificate t.hospital rmc.Rmc.id)

let test_prerequisite_chain () =
  let t = make () in
  World.run_proc t.world (fun () ->
      let s = Principal.start_session t.alice in
      (* doctor requires logged_in: denied first, granted after. *)
      (match Principal.activate t.alice s t.hospital ~role:"doctor" () with
      | Error Protocol.No_proof -> ()
      | Ok _ -> Alcotest.fail "doctor without login"
      | Error d -> Alcotest.failf "unexpected denial: %s" (Protocol.denial_to_string d));
      ignore (ok (Principal.activate t.alice s t.hospital ~role:"logged_in" ()));
      ignore (ok (Principal.activate t.alice s t.hospital ~role:"doctor" ())))

let test_unknown_role () =
  let t = make () in
  World.run_proc t.world (fun () ->
      let s = Principal.start_session t.alice in
      match Principal.activate t.alice s t.hospital ~role:"surgeon" () with
      | Error (Protocol.Unknown_role "surgeon") -> ()
      | _ -> Alcotest.fail "expected Unknown_role")

let test_parametrised_role_from_env () =
  let t = make () in
  let session = alice_treating t ~patient:42 in
  let rmc =
    List.find (fun (r : Rmc.t) -> r.role = "treating_doctor") (Principal.session_rmcs session)
  in
  Alcotest.(check bool) "patient bound" true (List.exists (Value.equal (Value.Int 42)) rmc.Rmc.args)

let test_requested_args_pin () =
  let t = make () in
  let env = Service.env t.hospital in
  Env.assert_fact env "assigned" [ Value.Id (Principal.id t.alice); Value.Int 1 ];
  Env.assert_fact env "assigned" [ Value.Id (Principal.id t.alice); Value.Int 2 ];
  World.run_proc t.world (fun () ->
      let s = Principal.start_session t.alice in
      ignore (ok (Principal.activate t.alice s t.hospital ~role:"logged_in" ()));
      ignore (ok (Principal.activate t.alice s t.hospital ~role:"doctor" ()));
      let rmc =
        ok
          (Principal.activate t.alice s t.hospital ~role:"treating_doctor"
             ~args:[ None; Some (Value.Int 2) ] ())
      in
      Alcotest.(check bool) "pinned patient" true
        (List.exists (Value.equal (Value.Int 2)) rmc.Rmc.args);
      (* Pinning an unassigned patient is refused. *)
      match
        Principal.activate t.alice s t.hospital ~role:"treating_doctor"
          ~args:[ None; Some (Value.Int 9) ] ()
      with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "unassigned patient accepted")

let test_patient_exception () =
  (* "Joe Bloggs' health record may not be accessed by Fred Smith" *)
  let t = make () in
  let env = Service.env t.hospital in
  Env.assert_fact env "assigned" [ Value.Id (Principal.id t.alice); Value.Int 3 ];
  Env.assert_fact env "excluded" [ Value.Id (Principal.id t.alice); Value.Int 3 ];
  World.run_proc t.world (fun () ->
      let s = Principal.start_session t.alice in
      ignore (ok (Principal.activate t.alice s t.hospital ~role:"logged_in" ()));
      ignore (ok (Principal.activate t.alice s t.hospital ~role:"doctor" ()));
      match Principal.activate t.alice s t.hospital ~role:"treating_doctor" () with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "exclusion ignored")

let test_invocation () =
  let t = make () in
  let called = ref None in
  Service.register_operation t.hospital "read_record" (fun ~principal args ->
      called := Some (principal, args);
      Some (Value.Str "record-contents"));
  let session = alice_treating t ~patient:7 in
  let result =
    World.run_proc t.world (fun () ->
        ok
          (Principal.invoke t.alice session t.hospital ~privilege:"read_record"
             ~args:[ Value.Id (Principal.id t.alice); Value.Int 7 ]))
  in
  Alcotest.(check bool) "operation result" true (result = Some (Value.Str "record-contents"));
  match !called with
  | Some (principal, _) ->
      Alcotest.(check bool) "principal passed" true
        (Oasis_util.Ident.equal principal (Principal.id t.alice))
  | None -> Alcotest.fail "operation not called"

let test_invocation_without_operation () =
  let t = make () in
  let session = alice_treating t ~patient:7 in
  let result =
    World.run_proc t.world (fun () ->
        ok
          (Principal.invoke t.alice session t.hospital ~privilege:"read_record"
             ~args:[ Value.Id (Principal.id t.alice); Value.Int 7 ]))
  in
  Alcotest.(check bool) "authorized, no operation" true (result = None)

let test_invocation_denials () =
  let t = make () in
  let session = alice_treating t ~patient:7 in
  World.run_proc t.world (fun () ->
      (match
         Principal.invoke t.alice session t.hospital ~privilege:"delete_everything" ~args:[]
       with
      | Error (Protocol.Unknown_privilege _) -> ()
      | _ -> Alcotest.fail "expected Unknown_privilege");
      (* wrong patient *)
      (match
         Principal.invoke t.alice session t.hospital ~privilege:"read_record"
           ~args:[ Value.Id (Principal.id t.alice); Value.Int 8 ]
       with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "expected No_proof");
      (* wrong arity *)
      match Principal.invoke t.alice session t.hospital ~privilege:"read_record" ~args:[] with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "expected No_proof for arity")

let test_appointment_policy_enforced () =
  let t = make () in
  World.run_proc t.world (fun () ->
      (* Alice (not an admin) cannot appoint. *)
      let s = Principal.start_session t.alice in
      ignore (ok (Principal.activate t.alice s t.hospital ~role:"logged_in" ()));
      (match
         Principal.appoint t.alice s t.hospital ~kind:"qualified"
           ~args:[ Value.Id (Principal.id t.alice) ]
           ~holder:t.alice ()
       with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "self-qualification accepted");
      (* Unknown appointment kind. *)
      match
        Principal.appoint t.admin t.admin_session t.hospital ~kind:"nonexistent" ~args:[]
          ~holder:t.alice ()
      with
      | Error (Protocol.Unknown_privilege _) -> ()
      | _ -> Alcotest.fail "unknown kind accepted")

let test_appointer_needs_no_privilege () =
  (* The hospital administrator is not medically qualified, yet appoints
     doctors (Sect. 2). The admin cannot activate doctor itself. *)
  let t = make () in
  World.run_proc t.world (fun () ->
      match Principal.activate t.admin t.admin_session t.hospital ~role:"doctor" () with
      | Error Protocol.No_proof -> ()
      | Ok _ -> Alcotest.fail "administrator became a doctor"
      | Error d -> Alcotest.failf "unexpected: %s" (Protocol.denial_to_string d))

let test_grants_audited () =
  let t = make () in
  let session = alice_treating t ~patient:7 in
  ignore
    (World.run_proc t.world (fun () ->
         ok
           (Principal.invoke t.alice session t.hospital ~privilege:"read_record"
              ~args:[ Value.Id (Principal.id t.alice); Value.Int 7 ])));
  let log = grants t.hospital in
  let entry = List.nth log (List.length log - 1) in
  Alcotest.(check string) "latest action" "read_record" entry.action;
  Alcotest.(check bool) "principal recorded" true
    (Oasis_util.Ident.equal entry.principal (Principal.id t.alice));
  Alcotest.(check bool) "supporting certificate recorded" true (entry.creds <> []);
  (* Activations are audited too, led by the minted certificate. *)
  let cert_id, _, _ = List.hd (Fixtures.active_named t.hospital "treating_doctor") in
  Alcotest.(check bool) "activation audited, minted certificate first" true
    (List.exists
       (fun (r : Dlog.record) ->
         r.action = "activate:treating_doctor"
         && match r.creds with c :: _ -> Oasis_util.Ident.equal c cert_id | [] -> false)
       log)

let test_stats_counters () =
  let t = make () in
  let count key = Fixtures.metric (World.obs t.world) (key ^ "{service=hospital}") in
  let granted_before = count "service.activations_granted" in
  let denied_before = count "service.activations_denied" in
  let _session = alice_treating t ~patient:7 in
  World.run_proc t.world (fun () ->
      let s = Principal.start_session t.alice in
      match Principal.activate t.alice s t.hospital ~role:"surgeon" () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "surgeon?!");
  Alcotest.(check int) "granted" 3 (count "service.activations_granted" - granted_before);
  Alcotest.(check int) "denied" 1 (count "service.activations_denied" - denied_before)

(* [Service.stats] and [Civ.stats] are read back from the registry: every
   field equals the value of its rendered key. The world exercises an
   activation, a denial, an invocation, callback validations against an
   HMAC-signing CIV, an env revoke and a CIV revoke. *)
let test_stats_views_read_registry () =
  let world = World.create ~seed:19 () in
  let civ = Oasis_domain.Civ.create world ~name:"authority" ~offline_sign:false () in
  let club =
    Service.create world ~name:"club"
      ~policy:
        {|
          initial member(u) <- *appt:badge(u)@authority, *env:listed(u);
          priv enter(u) <- member(u);
        |}
      ()
  in
  let env = Service.env club in
  let holder name =
    let p = Principal.create world ~name in
    let badge =
      Oasis_domain.Civ.issue civ ~kind:"badge"
        ~args:[ Value.Id (Principal.id p) ]
        ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ()
    in
    Principal.grant_appointment p badge;
    Env.assert_fact env "listed" [ Value.Id (Principal.id p) ];
    (p, badge)
  in
  let p, _ = holder "p" and q, q_badge = holder "q" in
  World.settle world;
  World.run_proc world (fun () ->
      List.iter
        (fun who ->
          let s = Principal.start_session who in
          ignore (ok (Principal.activate who s club ~role:"member" ()));
          ignore
            (ok (Principal.invoke who s club ~privilege:"enter" ~args:[ Value.Id (Principal.id who) ])))
        [ p; q ];
      match Principal.activate p (Principal.start_session p) club ~role:"guest" () with
      | Ok _ -> Alcotest.fail "guest is not a role"
      | Error _ -> ());
  Env.retract_fact env "listed" [ Value.Id (Principal.id p) ];
  ignore (Oasis_domain.Civ.revoke civ q_badge.Oasis_cert.Appointment.id ~reason:"lost");
  World.settle world;
  Alcotest.(check int) "both members revoked" 0 (List.length (Service.active_roles club));
  let obs = World.obs world in
  let check key field = Alcotest.(check int) key (Fixtures.metric obs key) field in
  let svc key = Printf.sprintf "%s{service=club}" key in
  let st = Service.stats club in
  check (svc "service.activations_granted") st.Service.activations_granted;
  check (svc "service.activations_denied") st.Service.activations_denied;
  check (svc "service.invocations_granted") st.Service.invocations_granted;
  check (svc "service.invocations_denied") st.Service.invocations_denied;
  check (svc "service.appointments_granted") st.Service.appointments_granted;
  check (svc "service.appointments_denied") st.Service.appointments_denied;
  check (svc "service.callbacks_in") st.Service.callbacks_in;
  check (svc "service.callbacks_out") st.Service.callbacks_out;
  check (svc "service.offline_validations") st.Service.offline_validations;
  check (svc "service.validation_failures") st.Service.validation_failures;
  check (svc "service.revocations") st.Service.revocations;
  check (svc "service.cascade_deactivations") st.Service.cascade_deactivations;
  check (svc "service.env_rechecks") st.Service.env_rechecks;
  check (svc "svc.suspect") st.Service.suspects;
  check "svc.reconciled{outcome=reinstated,service=club}" st.Service.reconciled_reinstated;
  check "svc.reconciled{outcome=revoked,service=club}" st.Service.reconciled_revoked;
  check (svc "trust.flaps_suppressed") st.Service.flaps_suppressed;
  let cv = Oasis_domain.Civ.stats civ in
  check "civ.issues{civ=authority}" cv.Oasis_domain.Civ.issues;
  check "civ.revocations{civ=authority}" cv.Oasis_domain.Civ.revocations;
  check "civ.failovers{civ=authority}" cv.Oasis_domain.Civ.failovers;
  check "civ.exhausted{civ=authority}" cv.Oasis_domain.Civ.exhausted;
  (* Most fields are non-zero, so the checks above compare live counts. *)
  Alcotest.(check (list int)) "granted, denied, invoked, called back, rechecked, cascaded"
    [ 2; 1; 2; 2; 1; 2 ]
    [
      st.Service.activations_granted;
      st.Service.activations_denied;
      st.Service.invocations_granted;
      st.Service.callbacks_out;
      st.Service.env_rechecks;
      st.Service.cascade_deactivations;
    ];
  Alcotest.(check (list int)) "issued, revoked" [ 2; 1 ]
    [ cv.Oasis_domain.Civ.issues; cv.Oasis_domain.Civ.revocations ]

let test_active_roles_and_introspection () =
  let t = make () in
  let _session = alice_treating t ~patient:7 in
  let roles = Service.active_roles t.hospital in
  let alice_roles =
    List.filter (fun (_, _, _, p) -> Oasis_util.Ident.equal p (Principal.id t.alice)) roles
  in
  Alcotest.(check int) "alice has 3 active roles" 3 (List.length alice_roles)

let test_multiple_rules_disjunction () =
  (* A role with two activation rules: either suffices. *)
  let world = World.create ~seed:3 () in
  let svc =
    Service.create world ~name:"svc"
      ~policy:
        {|
          initial blue <- env:eq(1, 1);
          initial green <- env:eq(1, 2);
          member(u) <- blue, env:eq(u, 10);
          member(u) <- green, env:eq(u, 20);
        |}
      ()
  in
  ignore svc;
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      ignore (ok (Principal.activate p s svc ~role:"blue" ()));
      (* First rule's env check needs u seeded. *)
      let rmc = ok (Principal.activate p s svc ~role:"member" ~args:[ Some (Value.Int 10) ] ()) in
      Alcotest.(check bool) "via first rule" true
        (List.exists (Value.equal (Value.Int 10)) rmc.Rmc.args);
      (* Second rule requires green, which nobody can activate (1≠2). *)
      match Principal.activate p s svc ~role:"member" ~args:[ Some (Value.Int 20) ] () with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "second rule should fail")

let test_cross_service_prereq () =
  (* Fig. 1: service C requires RMCs issued by A. *)
  let world = World.create ~seed:9 () in
  (* The point is the validation callback at the issuer, so [a] signs with
     the epoch HMAC; an offline-verifiable [base@a] would be proved locally
     without one. *)
  let config = { Service.default_config with offline_sign = false } in
  let a = Service.create world ~name:"a" ~config ~policy:"initial base <- env:eq(1, 1);" () in
  let c2 = Service.create world ~name:"c2" ~policy:"derived2 <- base@a;" () in
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      (match Principal.activate p s c2 ~role:"derived2" () with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "derived2 without base");
      ignore (ok (Principal.activate p s a ~role:"base" ()));
      ignore (ok (Principal.activate p s c2 ~role:"derived2" ())));
  (* Validation callbacks happened at a. *)
  let st = Service.stats a in
  Alcotest.(check bool) "issuer answered callbacks" true (st.Service.callbacks_in >= 1)

let test_revocation_during_validation_reply () =
  (* An HMAC issuer revokes a certificate after answering its validation
     callback but before the reply arrives. The revocation's beat is
     published to the subscribers of that moment, and the verifier's
     watches are not among them yet; the watches it installs on the reply
     must read the issuer's tombstone, or the derived role outlives its
     prerequisite and the cached positive verdict accepts the revoked
     certificate forever. *)
  let world = World.create ~seed:9 () in
  let config = { Service.default_config with offline_sign = false } in
  let a = Service.create world ~name:"a" ~config ~policy:"initial base <- env:eq(1, 1);" () in
  let c2 = Service.create world ~name:"c2" ~policy:"derived2 <- base@a;" () in
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      let base = ok (Principal.activate p s a ~role:"base" ()) in
      let creds = { Protocol.rmcs = [ base ]; appointments = [] } in
      (* Revoke the moment [a] has answered the callback: the reply is still
         on the wire for one network latency. *)
      World.spawn world (fun () ->
          while (Service.stats a).Service.callbacks_in = 0 do
            Proc.sleep 0.0001
          done;
          Alcotest.(check bool) "revoked at issuer" true
            (Service.revoke_certificate a base.Rmc.id ~reason:"test"));
      let derived = ok (Principal.activate_with p s c2 ~role:"derived2" ~creds ()) in
      Proc.sleep 0.1;
      Alcotest.(check bool) "derived role collapsed" false
        (Service.is_valid_certificate c2 derived.Rmc.id);
      let callbacks = (Service.stats c2).Service.callbacks_out in
      (match Principal.activate_with p s c2 ~role:"derived2" ~creds () with
      | Error Protocol.No_proof -> ()
      | Ok _ -> Alcotest.fail "revoked prerequisite accepted on re-presentation"
      | Error _ -> Alcotest.fail "unexpected denial");
      Alcotest.(check int) "refused from the poisoned cache" callbacks
        (Service.stats c2).Service.callbacks_out)

(* Activate, invoke and appoint share one five-outcome decision: unknown
   name, challenge failed, policy error, no proof, grant. Each row pins the
   reply, the action and rule of the Deny or Grant record it appends, and
   which of the kind's counters moved. *)
let test_decide_outcomes () =
  let config =
    { Service.default_config with challenge_on_activation = true; challenge_on_invocation = true }
  in
  let t = make ~config () in
  Fixtures.add_unlinted t.hospital
    {|
      initial broken_env <- env:no_such_predicate(1);
      priv broken_priv <- env:no_such_predicate(1);
      appoint broken_kind(u) <- env:no_such_predicate(u);
    |};
  let session = alice_treating t ~patient:7 in
  let alice = Principal.id t.alice in
  let key = Principal.session_key session in
  let creds = { Protocol.rmcs = Principal.session_rmcs session; appointments = [] } in
  let admin_creds =
    { Protocol.rmcs = Principal.session_rmcs t.admin_session; appointments = [] }
  in
  let activate ?(session_key = key) role =
    Protocol.Activate
      {
        principal = alice;
        session_key;
        role;
        requested = [];
        creds = { creds with appointments = Principal.appointments t.alice };
      }
  in
  let invoke ?(session_key = key) privilege args =
    Protocol.Invoke { principal = alice; session_key; privilege; args; creds }
  in
  let appoint ?(session_key = Principal.session_key t.admin_session) kind =
    Protocol.Appoint
      {
        principal = Principal.id t.admin;
        session_key;
        kind;
        args = [ Value.Id alice ];
        holder = alice;
        holder_key = Principal.longterm_public t.alice;
        expires_at = None;
        creds = admin_creds;
      }
  in
  let reply_label = function
    | Protocol.Activate_ok _ -> "Activate_ok"
    | Protocol.Invoke_ok _ -> "Invoke_ok"
    | Protocol.Appoint_ok _ -> "Appoint_ok"
    | Protocol.Denied d -> Protocol.denial_to_string d
    | _ -> "unexpected reply"
  in
  let counters kind (st : Service.stats) =
    match kind with
    | `Activate -> (st.activations_granted, st.activations_denied)
    | `Invoke -> (st.invocations_granted, st.invocations_denied)
    | `Appoint -> (st.appointments_granted, st.appointments_denied)
  in
  let policy_error = "policy error: unknown predicate no_such_predicate" in
  let bad_request = "bad request: " ^ policy_error in
  let no_proof = "no activation or authorization rule satisfied" in
  let challenge = "challenge-response failed" in
  let fake = "12345" (* a session key nobody can answer for *) in
  let record_7 = [ Value.Id alice; Value.Int 7 ] in
  let rows =
    [
      (`Activate, activate "surgeon", "unknown role surgeon", Dlog.Deny, "activate:surgeon",
       "unknown role");
      (`Activate, activate ~session_key:fake "logged_in", challenge, Dlog.Deny,
       "activate:logged_in", "challenge failed");
      (`Activate, activate "broken_env", bad_request, Dlog.Deny, "activate:broken_env",
       policy_error);
      (`Activate, activate "hr_admin", no_proof, Dlog.Deny, "activate:hr_admin", "no proof");
      (`Activate, activate "logged_in", "Activate_ok", Dlog.Grant, "activate:logged_in",
       "initial logged_in(u) <- appt:employee(u) ;");
      (`Invoke, invoke "delete_everything" [], "unknown privilege delete_everything", Dlog.Deny,
       "invoke:delete_everything", "unknown privilege");
      (`Invoke, invoke ~session_key:fake "read_record" record_7, challenge, Dlog.Deny,
       "invoke:read_record", "challenge failed");
      (`Invoke, invoke "broken_priv" [], bad_request, Dlog.Deny, "invoke:broken_priv",
       policy_error);
      (`Invoke, invoke "read_record" [ Value.Id alice; Value.Int 8 ], no_proof, Dlog.Deny,
       "invoke:read_record", "no proof");
      (* An invocation grant logs the bare privilege name. *)
      (`Invoke, invoke "read_record" record_7, "Invoke_ok", Dlog.Grant, "read_record",
       "priv read_record(doc, pat) <- treating_doctor(doc, pat), env:!excluded(doc, pat) ;");
      (`Appoint, appoint "nonexistent", "unknown privilege appoint:nonexistent", Dlog.Deny,
       "appoint:nonexistent", "unknown appointment kind");
      (`Appoint, appoint ~session_key:fake "qualified", challenge, Dlog.Deny,
       "appoint:qualified", "challenge failed");
      (`Appoint, appoint "broken_kind", bad_request, Dlog.Deny, "appoint:broken_kind",
       policy_error);
      (`Appoint, appoint "is_admin", no_proof, Dlog.Deny, "appoint:is_admin", "no proof");
      (`Appoint, appoint "qualified", "Appoint_ok", Dlog.Grant, "appoint:qualified",
       "appoint qualified(u) <- hr_admin(a) ;");
    ]
  in
  List.iter
    (fun (kind, msg, reply, decision, action, rule) ->
      let granted0, denied0 = counters kind (Service.stats t.hospital) in
      let got =
        World.run_proc t.world (fun () ->
            let src = match msg with Protocol.Appoint { principal; _ } -> principal | _ -> alice in
            Oasis_sim.Network.rpc (World.network t.world) ~src ~dst:(Service.id t.hospital) msg)
      in
      let granted1, denied1 = counters kind (Service.stats t.hospital) in
      let last = List.rev (Dlog.records (Service.decision_log t.hospital)) |> List.hd in
      let row = Printf.sprintf "%s → %s" action reply in
      Alcotest.(check string) (row ^ ": reply") reply (reply_label got);
      Alcotest.(check string) (row ^ ": decision") (Dlog.decision_label decision)
        (Dlog.decision_label last.decision);
      Alcotest.(check string) (row ^ ": action") action last.action;
      Alcotest.(check string) (row ^ ": rule") rule last.rule;
      let grant = decision = Dlog.Grant in
      Alcotest.(check (pair int int))
        (row ^ ": counters (granted, denied)")
        ((if grant then 1 else 0), if grant then 0 else 1)
        (granted1 - granted0, denied1 - denied0))
    rows

let suite =
  ( "service",
    [
      Alcotest.test_case "initial role" `Quick test_initial_role_activation;
      Alcotest.test_case "prerequisite chain" `Quick test_prerequisite_chain;
      Alcotest.test_case "unknown role" `Quick test_unknown_role;
      Alcotest.test_case "parametrised role" `Quick test_parametrised_role_from_env;
      Alcotest.test_case "requested args" `Quick test_requested_args_pin;
      Alcotest.test_case "patient exception" `Quick test_patient_exception;
      Alcotest.test_case "invocation" `Quick test_invocation;
      Alcotest.test_case "invocation without operation" `Quick test_invocation_without_operation;
      Alcotest.test_case "invocation denials" `Quick test_invocation_denials;
      Alcotest.test_case "appointment policy" `Quick test_appointment_policy_enforced;
      Alcotest.test_case "appointer lacks privilege" `Quick test_appointer_needs_no_privilege;
      Alcotest.test_case "audit log" `Quick test_grants_audited;
      Alcotest.test_case "stats" `Quick test_stats_counters;
      Alcotest.test_case "stats views read the registry" `Quick test_stats_views_read_registry;
      Alcotest.test_case "introspection" `Quick test_active_roles_and_introspection;
      Alcotest.test_case "rule disjunction" `Quick test_multiple_rules_disjunction;
      Alcotest.test_case "cross-service prereq" `Quick test_cross_service_prereq;
      Alcotest.test_case "revocation during validation reply" `Quick
        test_revocation_during_validation_reply;
      Alcotest.test_case "decide outcomes" `Quick test_decide_outcomes;
    ] )
