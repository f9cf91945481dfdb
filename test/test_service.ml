(* The OASIS service: role entry, service use, appointment, denials
   (Fig. 2 paths 1-4). *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Env = Oasis_policy.Env
module Value = Oasis_util.Value
module Rmc = Oasis_cert.Rmc
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
  let cert_id, _, _ = List.hd (Service.active_roles_named t.hospital "treating_doctor") in
  Alcotest.(check bool) "activation audited, minted certificate first" true
    (List.exists
       (fun (r : Dlog.record) ->
         r.action = "activate:treating_doctor"
         && match r.creds with c :: _ -> Oasis_util.Ident.equal c cert_id | [] -> false)
       log)

let test_stats_counters () =
  let t = make () in
  Service.reset_stats t.hospital;
  let _session = alice_treating t ~patient:7 in
  World.run_proc t.world (fun () ->
      let s = Principal.start_session t.alice in
      match Principal.activate t.alice s t.hospital ~role:"surgeon" () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "surgeon?!");
  let st = Service.stats t.hospital in
  Alcotest.(check int) "granted" 3 st.Service.activations_granted;
  Alcotest.(check int) "denied" 1 st.Service.activations_denied

let test_active_roles_and_introspection () =
  let t = make () in
  let _session = alice_treating t ~patient:7 in
  let roles = Service.active_roles t.hospital in
  let alice_roles =
    List.filter (fun (_, _, _, p) -> Oasis_util.Ident.equal p (Principal.id t.alice)) roles
  in
  Alcotest.(check int) "alice has 3 active roles" 3 (List.length alice_roles);
  Alcotest.(check (list string)) "roles defined"
    [ "bootstrap"; "doctor"; "hr_admin"; "logged_in"; "treating_doctor" ]
    (Service.roles_defined t.hospital);
  Alcotest.(check (list string)) "privileges defined" [ "read_record" ]
    (Service.privileges_defined t.hospital)

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
  let a = Service.create world ~name:"a" ~policy:"initial base <- env:eq(1, 1);" () in
  (* The point is the legacy validation callback at the issuer; offline
     verification would prove [base@a] locally without one. *)
  let config = { Service.default_config with offline_verify = false } in
  let c2 = Service.create world ~name:"c2" ~config ~policy:"derived2 <- base@a;" () in
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
      Alcotest.test_case "introspection" `Quick test_active_roles_and_introspection;
      Alcotest.test_case "rule disjunction" `Quick test_multiple_rules_disjunction;
      Alcotest.test_case "cross-service prereq" `Quick test_cross_service_prereq;
    ] )
