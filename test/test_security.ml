(* End-to-end adversarial scenarios (Sect. 4, 4.1): theft, forgery,
   challenge-response, validation caching. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Env = Oasis_policy.Env
module Value = Oasis_util.Value
module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment
open Fixtures

let creds_of ?(rmcs = []) ?(appointments = []) () = { Protocol.rmcs; appointments }

let test_stolen_rmc_fails () =
  (* Mallory steals alice's doctor RMC off the wire and presents it under
     her own session: the principal-key binding defeats her. *)
  let t = make () in
  let session = alice_treating t ~patient:7 in
  let doctor_rmc =
    List.find (fun (r : Rmc.t) -> r.role = "doctor") (Principal.session_rmcs session)
  in
  let mallory = Principal.create t.world ~name:"mallory" in
  Env.assert_fact (Service.env t.hospital) "assigned"
    [ Value.Id (Principal.id mallory); Value.Int 7 ];
  World.run_proc t.world (fun () ->
      let sm = Principal.start_session mallory in
      match
        Principal.activate_with mallory sm t.hospital ~role:"treating_doctor"
          ~creds:(creds_of ~rmcs:[ doctor_rmc ] ()) ()
      with
      | Error Protocol.No_proof -> ()
      | Ok _ -> Alcotest.fail "stolen RMC accepted"
      | Error d -> Alcotest.failf "unexpected denial: %s" (Protocol.denial_to_string d));
  Alcotest.(check bool) "validation failure recorded" true
    ((Service.stats t.hospital).Service.validation_failures >= 1)

let test_stolen_rmc_fails_cross_service () =
  (* Same theft, but presented at a *different* service which validates by
     callback to the issuer — the issuer checks the binding. *)
  let t = make () in
  let session = alice_treating t ~patient:7 in
  let doctor_rmc =
    List.find (fun (r : Rmc.t) -> r.role = "doctor") (Principal.session_rmcs session)
  in
  let clinic =
    Service.create t.world ~name:"clinic" ~policy:"consultant(u) <- doctor(u)@hospital;" ()
  in
  let mallory = Principal.create t.world ~name:"mallory" in
  World.run_proc t.world (fun () ->
      let sm = Principal.start_session mallory in
      (match
         Principal.activate_with mallory sm clinic ~role:"consultant"
           ~creds:(creds_of ~rmcs:[ doctor_rmc ] ()) ()
       with
      | Error Protocol.No_proof -> ()
      | Ok _ -> Alcotest.fail "stolen RMC accepted remotely"
      | Error d -> Alcotest.failf "unexpected: %s" (Protocol.denial_to_string d));
      (* Alice herself can use it remotely — same session key. *)
      match
        Principal.activate t.alice session clinic ~role:"consultant" ()
      with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "legitimate remote use denied: %s" (Protocol.denial_to_string d))

let test_forged_rmc_fails () =
  (* Mallory crafts an RMC with her own secret. *)
  let t = make () in
  let mallory = Principal.create t.world ~name:"mallory" in
  World.run_proc t.world (fun () ->
      let sm = Principal.start_session mallory in
      let forged =
        Rmc.issue
          ~secret:(Oasis_crypto.Secret.of_string "guessed-secret")
          ~principal_key:(Principal.session_key sm)
          ~id:(Oasis_util.Ident.make "cert" 424242) ~issuer:(Service.id t.hospital)
          ~role:"doctor"
          ~args:[ Value.Id (Principal.id mallory) ]
          ~issued_at:(World.now t.world)
      in
      Env.assert_fact (Service.env t.hospital) "assigned"
        [ Value.Id (Principal.id mallory); Value.Int 7 ];
      match
        Principal.activate_with mallory sm t.hospital ~role:"treating_doctor"
          ~creds:(creds_of ~rmcs:[ forged ] ()) ()
      with
      | Error Protocol.No_proof -> ()
      | Ok _ -> Alcotest.fail "forged RMC accepted"
      | Error d -> Alcotest.failf "unexpected: %s" (Protocol.denial_to_string d))

let test_stolen_appointment_without_challenge () =
  (* Within a firewall-protected domain OASIS may run without
     challenge-response (Sect. 4.1): then a stolen appointment certificate
     *does* pass — the paper's mitigation is well-designed activation rules.
     Verify the documented behaviour, then the challenge-enabled defence. *)
  let t = make () in
  let mallory = Principal.create t.world ~name:"mallory" in
  Principal.grant_appointment mallory t.alice_qualification;
  World.run_proc t.world (fun () ->
      let sm = Principal.start_session mallory in
      (* logged_in requires an employee appointment for mallory — she only
         stole the qualification, so login fails; steal employee too. *)
      let alice_employee =
        List.find
          (fun (a : Appointment.t) -> a.kind = "employee")
          (Principal.appointments t.alice)
      in
      Principal.grant_appointment mallory alice_employee;
      (* The appointment parametrises roles with *alice's* id, so mallory
         obtains a role claiming to be alice — exactly the exposure the
         paper accepts inside a trusted domain. *)
      match Principal.activate mallory sm t.hospital ~role:"logged_in" () with
      | Ok rmc ->
          Alcotest.(check bool) "role parametrised by victim id" true
            (List.exists (Value.equal (Value.Id (Principal.id t.alice))) rmc.Rmc.args)
      | Error d -> Alcotest.failf "expected acceptance without challenge: %s"
            (Protocol.denial_to_string d))

let test_challenge_blocks_session_key_mismatch () =
  (* With challenge_on_activation, a request claiming a session key whose
     private half the requester lacks is refused. *)
  let config = { Service.default_config with challenge_on_activation = true } in
  let t = make ~config () in
  World.run_proc t.world (fun () ->
      let s = Principal.start_session t.alice in
      (* Honest activation passes the challenge. *)
      (match Principal.activate t.alice s t.hospital ~role:"logged_in" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "honest challenge failed: %s" (Protocol.denial_to_string d));
      (* A raw request with a fabricated session key fails the challenge. *)
      let reply =
        Oasis_sim.Network.rpc (World.network t.world) ~src:(Principal.id t.alice)
          ~dst:(Service.id t.hospital)
          (Protocol.Activate
             {
               principal = Principal.id t.alice;
               session_key = "12345";
               role = "logged_in";
               requested = [];
               creds = { Protocol.rmcs = []; appointments = Principal.appointments t.alice };
             })
      in
      match reply with
      | Protocol.Denied Protocol.Challenge_failed -> ()
      | _ -> Alcotest.fail "expected Challenge_failed")

let test_challenge_on_invocation () =
  let config = { Service.default_config with challenge_on_invocation = true } in
  let t = make ~config () in
  let session = alice_treating t ~patient:7 in
  World.run_proc t.world (fun () ->
      match
        Principal.invoke t.alice session t.hospital ~privilege:"read_record"
          ~args:[ Value.Id (Principal.id t.alice); Value.Int 7 ]
      with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "challenged invocation failed: %s" (Protocol.denial_to_string d))

let test_holder_challenge_blocks_stolen_appointment () =
  (* With challenge_appointment_holders, the Sect. 4.1 defence closes the
     hole demonstrated above: mallory cannot answer a challenge against
     alice's long-lived key, so the stolen certificates are dropped. *)
  let config = { Service.default_config with challenge_appointment_holders = true } in
  let t = make ~config () in
  let mallory = Principal.create t.world ~name:"mallory" in
  List.iter (Principal.grant_appointment mallory) (Principal.appointments t.alice);
  World.run_proc t.world (fun () ->
      let sm = Principal.start_session mallory in
      (match Principal.activate mallory sm t.hospital ~role:"logged_in" () with
      | Error Protocol.No_proof -> ()
      | Ok _ -> Alcotest.fail "stolen appointment passed holder challenge"
      | Error d -> Alcotest.failf "unexpected: %s" (Protocol.denial_to_string d));
      (* Alice, holding the key, still logs in. *)
      let sa = Principal.start_session t.alice in
      match Principal.activate t.alice sa t.hospital ~role:"logged_in" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "rightful holder denied: %s" (Protocol.denial_to_string d))

let test_tampered_rmc_rejected_by_issuer_callback () =
  (* A certificate with edited parameter fields fails validation even when
     presented at a remote service (the issuer recomputes the MAC). *)
  let t = make () in
  let session = alice_treating t ~patient:7 in
  let treating =
    List.find (fun (r : Rmc.t) -> r.role = "treating_doctor") (Principal.session_rmcs session)
  in
  let clinic =
    Service.create t.world ~name:"clinic"
      ~policy:"records_for(p) <- treating_doctor(d, p)@hospital;" ()
  in
  let tampered = Rmc.with_args treating [ Value.Id (Principal.id t.alice); Value.Int 999 ] in
  World.run_proc t.world (fun () ->
      match
        Principal.activate_with t.alice session clinic ~role:"records_for"
          ~creds:(creds_of ~rmcs:[ tampered ] ()) ()
      with
      | Error Protocol.No_proof -> ()
      | Ok _ -> Alcotest.fail "tampered RMC accepted"
      | Error d -> Alcotest.failf "unexpected: %s" (Protocol.denial_to_string d))

(* ---------------- Validation caching (Sect. 4, E3) ---------------- *)

let clinic_policy = "consultant(u) <- *doctor(u)@hospital;"

(* The callback economics need an issuer that signs with the epoch HMAC; an
   offline-verifiable hospital would have every presentation answered with
   zero callbacks. *)
let hmac_issuer = { Service.default_config with offline_sign = false }

(* An issuer without a key chain answers a validation callback for one of
   its RMCs from the certificate it issued: authentic means the
   certificate it issued under that id, bound to the presenting session
   key, and a restart keeps it. The clinic caches nothing, so every
   presentation is a callback to the hospital. *)
let test_callback_answered_from_grant_record () =
  let t = make ~config:hmac_issuer () in
  let session = alice_treating t ~patient:7 in
  let doctor = List.find (fun (r : Rmc.t) -> r.role = "doctor") (Principal.session_rmcs session) in
  let clinic =
    Service.create t.world ~name:"clinic"
      ~config:{ Service.default_config with cache_remote_validation = false }
      ~policy:clinic_policy ()
  in
  let mallory = Principal.create t.world ~name:"mallory" in
  let mallory_session = Principal.start_session mallory in
  let callbacks () = (Service.stats t.hospital).Service.callbacks_in in
  let present what principal session rmc ~accepted =
    let before = callbacks () in
    let result =
      World.run_proc t.world (fun () ->
          Principal.activate_with principal session clinic ~role:"consultant"
            ~creds:(creds_of ~rmcs:[ rmc ] ()) ())
    in
    Alcotest.(check bool) what accepted (Result.is_ok result);
    Alcotest.(check int) (what ^ ": one callback") (before + 1) (callbacks ())
  in
  present "valid RMC" t.alice session doctor ~accepted:true;
  present "tampered copy" t.alice session
    (Rmc.with_args doctor [ Value.Id (Principal.id mallory) ])
    ~accepted:false;
  present "stolen RMC under another session key" mallory mallory_session doctor ~accepted:false;
  Service.crash t.hospital;
  Service.restart t.hospital;
  World.settle t.world;
  present "valid RMC after the issuer's crash and restart" t.alice session doctor ~accepted:true

(* A cached verdict vouches for the certificate that earned it, presented
   under the same session key: a stolen or tampered copy with the same id
   gets no verdict from the cache. *)
let test_cached_verdict_needs_same_certificate () =
  let t = make ~config:hmac_issuer () in
  let session = alice_treating t ~patient:7 in
  let doctor = List.find (fun (r : Rmc.t) -> r.role = "doctor") (Principal.session_rmcs session) in
  let clinic = Service.create t.world ~name:"clinic" ~policy:clinic_policy () in
  let mallory = Principal.create t.world ~name:"mallory" in
  let mallory_session = Principal.start_session mallory in
  let present principal session rmc =
    World.run_proc t.world (fun () ->
        Principal.activate_with principal session clinic ~role:"consultant"
          ~creds:(creds_of ~rmcs:[ rmc ] ()) ())
  in
  Alcotest.(check bool) "valid RMC" true (Result.is_ok (present t.alice session doctor));
  Alcotest.(check bool) "stolen copy refused" false
    (Result.is_ok (present mallory mallory_session doctor));
  Alcotest.(check bool) "tampered copy refused" false
    (Result.is_ok
       (present t.alice session (Rmc.with_args doctor [ Value.Id (Principal.id mallory) ])));
  Alcotest.(check bool) "valid RMC again" true (Result.is_ok (present t.alice session doctor))

(* Granted at t = 0 over zero-latency links, an RMC carries [issued_at =
   0.0]. A copy with [-0.0] there keeps every field [=] to the original,
   and its signature, but encodes differently, so neither the issuer
   itself nor a service validating by callback may take it for the
   certificate it granted. *)
let test_negative_zero_copy_refused () =
  let world = World.create ~seed:5 ~net_latency:0.0 () in
  let issuer =
    Service.create world ~name:"issuer" ~config:hmac_issuer
      ~policy:"initial base <- env:eq(1, 1); next <- base;" ()
  in
  let relying = Service.create world ~name:"relying" ~policy:"derived <- base@issuer;" () in
  let p = Principal.create world ~name:"p" in
  let session = Principal.start_session p in
  let base =
    World.run_proc world (fun () -> ok (Principal.activate p session issuer ~role:"base" ()))
  in
  Alcotest.(check bool) "issued at +0.0" true (Int64.equal (Int64.bits_of_float base.issued_at) 0L);
  let copy =
    Rmc.of_parts ~id:base.id ~issuer:base.issuer ~role:base.role ~args:base.args
      ~issued_at:(-0.0) ~signature:base.signature
  in
  let present svc role rmc =
    World.run_proc world (fun () ->
        Result.is_ok
          (Principal.activate_with p session svc ~role ~creds:(creds_of ~rmcs:[ rmc ] ()) ()))
  in
  Alcotest.(check bool) "the issuer takes the original" true (present issuer "next" base);
  Alcotest.(check bool) "the issuer refuses the copy" false (present issuer "next" copy);
  Alcotest.(check bool) "by callback, the original" true (present relying "derived" base);
  Alcotest.(check bool) "by callback, not the copy" false (present relying "derived" copy)

let test_cache_saves_callbacks () =
  let t = make ~config:hmac_issuer () in
  let session = alice_treating t ~patient:7 in
  let clinic = Service.create t.world ~name:"clinic" ~policy:clinic_policy () in
  World.run_proc t.world (fun () ->
      for _ = 1 to 5 do
        match Principal.activate t.alice session clinic ~role:"consultant" () with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "denied: %s" (Protocol.denial_to_string d)
      done);
  let st = Service.stats clinic in
  (* The wallet carries 3 RMCs + 2 appointments; each remote credential needs
     exactly one callback across all 5 requests thanks to the cache. *)
  Alcotest.(check int) "one callback per distinct credential" 5 st.Service.callbacks_out;
  Alcotest.(check bool) "cache hits accrued" true
    (Fixtures.metric (World.obs t.world) "vcache.hits{service=clinic}" >= 20)

let test_cache_disabled_calls_back_every_time () =
  let t = make ~config:hmac_issuer () in
  let session = alice_treating t ~patient:7 in
  let config = { Service.default_config with cache_remote_validation = false } in
  let clinic = Service.create t.world ~name:"clinic" ~config ~policy:clinic_policy () in
  World.run_proc t.world (fun () ->
      for _ = 1 to 5 do
        match Principal.activate t.alice session clinic ~role:"consultant" () with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "denied: %s" (Protocol.denial_to_string d)
      done);
  let st = Service.stats clinic in
  Alcotest.(check int) "five requests x five credentials" 25 st.Service.callbacks_out

let test_cache_invalidated_by_event () =
  (* Revocation at the issuer reaches the remote cache through the event
     channel; the next presentation is re-validated and refused. *)
  let t = make () in
  let session = alice_treating t ~patient:7 in
  let clinic = Service.create t.world ~name:"clinic" ~policy:clinic_policy () in
  World.run_proc t.world (fun () ->
      match Principal.activate t.alice session clinic ~role:"consultant" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "denied: %s" (Protocol.denial_to_string d));
  let doctor_rmc =
    List.find (fun (r : Rmc.t) -> r.role = "doctor") (Principal.session_rmcs session)
  in
  ignore (Service.revoke_certificate t.hospital doctor_rmc.Rmc.id ~reason:"revoked");
  World.settle t.world;
  Alcotest.(check bool) "cache entry invalidated" true
    (Fixtures.metric (World.obs t.world) "vcache.invalidations{service=clinic}" >= 1);
  World.run_proc t.world (fun () ->
      match Principal.activate t.alice session clinic ~role:"consultant" () with
      | Error Protocol.No_proof -> ()
      | Ok _ -> Alcotest.fail "revoked credential served from cache"
      | Error d -> Alcotest.failf "unexpected: %s" (Protocol.denial_to_string d))

let test_remote_monitoring_collapses_consultant () =
  (* The clinic's consultant role membership-monitors the hospital's doctor
     RMC (the '*' in the policy): revocation at the hospital collapses the
     clinic role — Fig. 5 across services. *)
  let t = make () in
  let session = alice_treating t ~patient:7 in
  let clinic = Service.create t.world ~name:"clinic" ~policy:clinic_policy () in
  World.run_proc t.world (fun () ->
      match Principal.activate t.alice session clinic ~role:"consultant" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "denied: %s" (Protocol.denial_to_string d));
  Alcotest.(check int) "consultant active" 1 (List.length (Service.active_roles clinic));
  let doctor_rmc =
    List.find (fun (r : Rmc.t) -> r.role = "doctor") (Principal.session_rmcs session)
  in
  ignore (Service.revoke_certificate t.hospital doctor_rmc.Rmc.id ~reason:"revoked");
  World.settle t.world;
  Alcotest.(check int) "consultant collapsed" 0 (List.length (Service.active_roles clinic));
  Alcotest.(check int) "clinic counted the cascade" 1
    (Service.stats clinic).Service.cascade_deactivations

let suite =
  ( "security",
    [
      Alcotest.test_case "stolen RMC (local)" `Quick test_stolen_rmc_fails;
      Alcotest.test_case "stolen RMC (cross-service)" `Quick test_stolen_rmc_fails_cross_service;
      Alcotest.test_case "forged RMC" `Quick test_forged_rmc_fails;
      Alcotest.test_case "stolen appointment, no challenge" `Quick
        test_stolen_appointment_without_challenge;
      Alcotest.test_case "challenge blocks key mismatch" `Quick
        test_challenge_blocks_session_key_mismatch;
      Alcotest.test_case "challenge on invocation" `Quick test_challenge_on_invocation;
      Alcotest.test_case "holder challenge vs theft" `Quick
        test_holder_challenge_blocks_stolen_appointment;
      Alcotest.test_case "tampered RMC via callback" `Quick
        test_tampered_rmc_rejected_by_issuer_callback;
      Alcotest.test_case "callback answered from the grant record" `Quick
        test_callback_answered_from_grant_record;
      Alcotest.test_case "cached verdict needs the same certificate" `Quick
        test_cached_verdict_needs_same_certificate;
      Alcotest.test_case "negative-zero copy refused" `Quick test_negative_zero_copy_refused;
      Alcotest.test_case "cache saves callbacks" `Quick test_cache_saves_callbacks;
      Alcotest.test_case "cache disabled" `Quick test_cache_disabled_calls_back_every_time;
      Alcotest.test_case "cache invalidation" `Quick test_cache_invalidated_by_event;
      Alcotest.test_case "remote monitoring" `Quick test_remote_monitoring_collapses_consultant;
    ] )
