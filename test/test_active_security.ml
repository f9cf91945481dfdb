(* The active security environment (Sect. 4, Fig. 5): membership monitoring,
   cascading deactivation, sessions collapsing. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Env = Oasis_policy.Env
module Value = Oasis_util.Value
module Rmc = Oasis_cert.Rmc
open Fixtures

let role_active t session name =
  List.exists
    (fun (r : Rmc.t) -> r.role = name && Service.is_valid_certificate t.hospital r.Rmc.id)
    (Principal.session_rmcs session)

let test_appointment_revocation_cascades () =
  let t = make () in
  let session = alice_treating t ~patient:7 in
  Alcotest.(check bool) "doctor active" true (role_active t session "doctor");
  ignore
    (Service.revoke_certificate t.hospital t.alice_qualification.Oasis_cert.Appointment.id
       ~reason:"struck off");
  World.settle t.world;
  Alcotest.(check bool) "doctor collapsed" false (role_active t session "doctor");
  Alcotest.(check bool) "treating_doctor collapsed" false (role_active t session "treating_doctor");
  Alcotest.(check bool) "logged_in survives" true (role_active t session "logged_in");
  let st = Service.stats t.hospital in
  Alcotest.(check int) "two cascade deactivations" 2 st.Service.cascade_deactivations

let test_env_retraction_cascades () =
  (* Retracting assigned(alice, 7) kills treating_doctor only. *)
  let t = make () in
  let session = alice_treating t ~patient:7 in
  Env.retract_fact (Service.env t.hospital) "assigned"
    [ Value.Id (Principal.id t.alice); Value.Int 7 ];
  World.settle t.world;
  Alcotest.(check bool) "treating collapsed" false (role_active t session "treating_doctor");
  Alcotest.(check bool) "doctor survives" true (role_active t session "doctor")

let test_env_assertion_falsifies_negation () =
  (* Asserting excluded(alice, 7) falsifies the monitored !excluded? No —
     in the fixture policy the exclusion condition is NOT membership-marked
     (checked at activation only), so asserting it later does not deactivate;
     but invocation (which re-checks) is refused. Verify both halves. *)
  let t = make () in
  let session = alice_treating t ~patient:7 in
  Env.assert_fact (Service.env t.hospital) "excluded"
    [ Value.Id (Principal.id t.alice); Value.Int 7 ];
  World.settle t.world;
  Alcotest.(check bool) "role remains (not membership-tagged)" true
    (role_active t session "treating_doctor");
  World.run_proc t.world (fun () ->
      match
        Principal.invoke t.alice session t.hospital ~privilege:"read_record"
          ~args:[ Value.Id (Principal.id t.alice); Value.Int 7 ]
      with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "exclusion not enforced at invocation")

let test_monitored_negation_deactivates () =
  (* A policy where the exclusion IS membership-monitored. The negation is
     only ground when the caller pins [u], which the lint gate (L003)
     conservatively rejects — so the rule is added past the gate to test
     that runtime path. *)
  let world = World.create ~seed:5 () in
  let svc = Service.create world ~name:"svc" ~policy:"initial base <- env:eq(1, 1);" () in
  add_unlinted svc "sensitive(u) <- base, *env:!banned(u);";
  Env.declare_fact (Service.env svc) "banned";
  let p = Principal.create world ~name:"p" in
  let session =
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        ignore (ok (Principal.activate p s svc ~role:"base" ()));
        ignore
          (ok (Principal.activate p s svc ~role:"sensitive" ~args:[ Some (Value.Int 1) ] ()));
        s)
  in
  ignore session;
  Alcotest.(check int) "active" 2 (List.length (Service.active_roles svc));
  Env.assert_fact (Service.env svc) "banned" [ Value.Int 1 ];
  World.settle world;
  Alcotest.(check int) "sensitive deactivated" 1 (List.length (Service.active_roles svc))

let test_unmarked_prereq_still_collapses () =
  (* Sect. 4's session-tree semantics: prerequisite-role dependencies are
     monitored whether or not policy marks them with '*'. *)
  let world = World.create ~seed:19 () in
  let svc =
    Service.create world ~name:"svc"
      ~policy:{|
        initial root <- env:eq(1, 1);
        leaf <- root;
      |} ()
  in
  let p = Principal.create world ~name:"p" in
  let root_rmc =
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        let rmc = ok (Principal.activate p s svc ~role:"root" ()) in
        ignore (ok (Principal.activate p s svc ~role:"leaf" ()));
        rmc)
  in
  Alcotest.(check int) "both active" 2 (List.length (Service.active_roles svc));
  ignore (Service.revoke_certificate svc root_rmc.Oasis_cert.Rmc.id ~reason:"logout");
  World.settle world;
  Alcotest.(check int) "leaf collapsed without a star" 0 (List.length (Service.active_roles svc))

let test_logout_collapses_session () =
  let t = make () in
  let session = alice_treating t ~patient:7 in
  World.run_proc t.world (fun () -> Principal.logout t.alice session);
  World.settle t.world;
  let alice_roles =
    List.filter
      (fun (_, _, _, p) -> Oasis_util.Ident.equal p (Principal.id t.alice))
      (Service.active_roles t.hospital)
  in
  Alcotest.(check int) "all roles gone" 0 (List.length alice_roles)

let test_voluntary_deactivate_single_role () =
  let t = make () in
  let session = alice_treating t ~patient:7 in
  let doctor_rmc =
    List.find (fun (r : Rmc.t) -> r.role = "doctor") (Principal.session_rmcs session)
  in
  let okd = World.run_proc t.world (fun () -> Principal.deactivate t.alice session doctor_rmc) in
  Alcotest.(check bool) "deactivated" true okd;
  World.settle t.world;
  Alcotest.(check bool) "dependent treating gone" false (role_active t session "treating_doctor");
  Alcotest.(check bool) "logged_in remains" true (role_active t session "logged_in")

(* A role a cascade already collapsed is no longer monitored, but its RMC
   stays issued: the principal releasing it is told it is released and
   drops it from the session, and another session's key is still
   refused. *)
let test_release_collapsed_role () =
  let t = make () in
  let session = alice_treating t ~patient:7 in
  let doctor_rmc =
    List.find (fun (r : Rmc.t) -> r.role = "doctor") (Principal.session_rmcs session)
  in
  ignore
    (Service.revoke_certificate t.hospital t.alice_qualification.Oasis_cert.Appointment.id
       ~reason:"struck off");
  World.settle t.world;
  Alcotest.(check bool) "doctor collapsed" false (role_active t session "doctor");
  let mallory = Principal.create t.world ~name:"mallory" in
  Alcotest.(check bool) "another key refused" false
    (World.run_proc t.world (fun () ->
         Principal.deactivate mallory (Principal.start_session mallory) doctor_rmc));
  Alcotest.(check bool) "released" true
    (World.run_proc t.world (fun () -> Principal.deactivate t.alice session doctor_rmc));
  Alcotest.(check bool) "gone from the session wallet" false
    (List.exists (fun (r : Rmc.t) -> r.role = "doctor") (Principal.session_rmcs session));
  Alcotest.(check int) "no second revocation" 2
    (Service.stats t.hospital).Service.cascade_deactivations

let test_deactivate_wrong_session_key_denied () =
  let t = make () in
  let session = alice_treating t ~patient:7 in
  let doctor_rmc =
    List.find (fun (r : Rmc.t) -> r.role = "doctor") (Principal.session_rmcs session)
  in
  (* Mallory tries to deactivate alice's role from her own session. *)
  let mallory = Principal.create t.world ~name:"mallory" in
  let okd =
    World.run_proc t.world (fun () ->
        let sm = Principal.start_session mallory in
        Principal.deactivate mallory sm doctor_rmc)
  in
  Alcotest.(check bool) "denied" false okd;
  Alcotest.(check bool) "role still active" true (role_active t session "doctor")

let test_expiring_appointment_collapses_roles () =
  (* An appointment with an expiry deadline: dependent roles collapse at the
     deadline without any explicit revocation. *)
  let t = make () in
  World.run_proc t.world (fun () ->
      let temp =
        ok
          (Principal.appoint t.admin t.admin_session t.hospital ~kind:"qualified"
             ~args:[ Value.Id (Principal.id t.admin) ]
             ~holder:t.admin ~expires_at:(World.now t.world +. 100.0) ())
      in
      ignore temp);
  World.settle t.world;
  (* Admin logs in (employee appt? admin has none) — use alice with a temp
     qualification instead: revoke her permanent one and grant a temporary. *)
  let t2 = make ~seed:11 () in
  ignore
    (Service.revoke_certificate t2.hospital t2.alice_qualification.Oasis_cert.Appointment.id
       ~reason:"superseded");
  World.settle t2.world;
  let expiry = World.now t2.world +. 50.0 in
  World.run_proc t2.world (fun () ->
      ignore
        (ok
           (Principal.appoint t2.admin t2.admin_session t2.hospital ~kind:"qualified"
              ~args:[ Value.Id (Principal.id t2.alice) ]
              ~holder:t2.alice ~expires_at:expiry ())));
  let session = alice_treating t2 ~patient:7 in
  Alcotest.(check bool) "doctor active before expiry" true (role_active t2 session "doctor");
  World.run_until t2.world (expiry +. 1.0);
  World.settle t2.world;
  Alcotest.(check bool) "doctor collapsed at expiry" false (role_active t2 session "doctor")

let test_time_constrained_membership () =
  (* A role whose membership rule includes before(t): deactivated when the
     clock passes t, with no fact change at all. *)
  let world = World.create ~seed:13 () in
  let svc =
    Service.create world ~name:"svc"
      ~policy:{|
        initial shift(until) <- *env:before(until);
      |} ()
  in
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      ignore (ok (Principal.activate p s svc ~role:"shift" ~args:[ Some (Value.Time 100.0) ] ())));
  Alcotest.(check int) "active" 1 (List.length (Service.active_roles svc));
  World.run_until world 99.0;
  Alcotest.(check int) "still active before deadline" 1 (List.length (Service.active_roles svc));
  World.run_until world 101.0;
  World.settle world;
  Alcotest.(check int) "deactivated after deadline" 0 (List.length (Service.active_roles svc))

let test_stale_rmc_rejected_after_revocation () =
  (* The principal still *holds* the bytes of a revoked RMC; presenting it
     as a credential fails validation. *)
  let t = make () in
  let session = alice_treating t ~patient:7 in
  ignore
    (Service.revoke_certificate t.hospital t.alice_qualification.Oasis_cert.Appointment.id
       ~reason:"struck off");
  World.settle t.world;
  World.run_proc t.world (fun () ->
      match
        Principal.invoke t.alice session t.hospital ~privilege:"read_record"
          ~args:[ Value.Id (Principal.id t.alice); Value.Int 7 ]
      with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "revoked chain still usable")

let test_revoke_unknown_certificate () =
  let t = make () in
  Alcotest.(check bool) "false for unknown" false
    (Service.revoke_certificate t.hospital (Oasis_util.Ident.make "cert" 9999) ~reason:"x");
  (* Idempotence *)
  ignore
    (Service.revoke_certificate t.hospital t.alice_qualification.Oasis_cert.Appointment.id
       ~reason:"once");
  Alcotest.(check bool) "false for already revoked" false
    (Service.revoke_certificate t.hospital t.alice_qualification.Oasis_cert.Appointment.id
       ~reason:"twice")

let test_secret_rotation_invalidates_appointments () =
  let t = make () in
  Service.rotate_secret t.hospital;
  World.run_proc t.world (fun () ->
      let s = Principal.start_session t.alice in
      (* employee appointment is now from a stale epoch: login fails. *)
      (match Principal.activate t.alice s t.hospital ~role:"logged_in" () with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "stale-epoch appointment accepted");
      (* Re-appointed after the rotation, under the bumped epoch, alice logs
         in again. *)
      let employee =
        ok
          (Principal.appoint t.admin t.admin_session t.hospital ~kind:"employee"
             ~args:[ Value.Id (Principal.id t.alice) ]
             ~holder:t.alice ())
      in
      Alcotest.(check int) "epoch bumped" 1 employee.Oasis_cert.Appointment.epoch;
      ignore (ok (Principal.activate t.alice s t.hospital ~role:"logged_in" ())))

(* ---------------- Heartbeat monitoring mode (Fig. 5 caption) -------- *)

let test_heartbeat_mode_cascade () =
  let monitoring = World.Heartbeats { period = 1.0; deadline = 2.5 } in
  let t = make ~monitoring () in
  let session = alice_treating t ~patient:7 in
  Alcotest.(check bool) "doctor active" true (role_active t session "doctor");
    (* The hospital's next beat names the revoked qualification: the doctor
     role dies within one period, and treating_doctor with the beat that
     names the doctor role. *)
  let revoked_at = World.now t.world in
  ignore
    (Service.revoke_certificate t.hospital t.alice_qualification.Oasis_cert.Appointment.id
       ~reason:"struck off");
  World.run_until t.world (revoked_at +. 10.0);
  Alcotest.(check bool) "doctor collapsed via missed beats" false
    (role_active t session "doctor");
  Alcotest.(check bool) "treating collapsed transitively" false
    (role_active t session "treating_doctor");
    (* Staleness: collapse waited for a beat, unlike change events. *)
  let st = Service.stats t.hospital in
  Alcotest.(check bool) "cascades recorded" true (st.Service.cascade_deactivations >= 2)

let test_heartbeat_mode_healthy_roles_survive () =
  let monitoring = World.Heartbeats { period = 1.0; deadline = 3.0 } in
  let t = make ~monitoring () in
  let session = alice_treating t ~patient:7 in
  World.run_until t.world (World.now t.world +. 30.0);
  Alcotest.(check bool) "doctor still active under beats" true (role_active t session "doctor");
  Alcotest.(check bool) "treating still active" true (role_active t session "treating_doctor")

let suite =
  ( "active-security",
    [
      Alcotest.test_case "appointment revocation cascades" `Quick
        test_appointment_revocation_cascades;
      Alcotest.test_case "env retraction cascades" `Quick test_env_retraction_cascades;
      Alcotest.test_case "assertion vs unmonitored negation" `Quick
        test_env_assertion_falsifies_negation;
      Alcotest.test_case "monitored negation" `Quick test_monitored_negation_deactivates;
      Alcotest.test_case "unmarked prereq collapses" `Quick test_unmarked_prereq_still_collapses;
      Alcotest.test_case "logout collapses session" `Quick test_logout_collapses_session;
      Alcotest.test_case "voluntary deactivation" `Quick test_voluntary_deactivate_single_role;
      Alcotest.test_case "deactivate wrong key" `Quick test_deactivate_wrong_session_key_denied;
      Alcotest.test_case "release a collapsed role" `Quick test_release_collapsed_role;
      Alcotest.test_case "expiring appointment" `Quick test_expiring_appointment_collapses_roles;
      Alcotest.test_case "time-constrained membership" `Quick test_time_constrained_membership;
      Alcotest.test_case "stale RMC rejected" `Quick test_stale_rmc_rejected_after_revocation;
      Alcotest.test_case "revoke unknown/again" `Quick test_revoke_unknown_certificate;
      Alcotest.test_case "secret rotation" `Quick test_secret_rotation_invalidates_appointments;
      Alcotest.test_case "heartbeat cascade" `Quick test_heartbeat_mode_cascade;
      Alcotest.test_case "heartbeat healthy" `Quick test_heartbeat_mode_healthy_roles_survive;
    ] )
