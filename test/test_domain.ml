(* Domains, service-level agreements, roaming and anonymity (Sect. 3, 5). *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Domain = Oasis_domain.Domain
module Civ = Oasis_domain.Civ
module Sla = Oasis_domain.Sla
module Anonymity = Oasis_domain.Anonymity
module Env = Oasis_policy.Env
module Term = Oasis_policy.Term
module Value = Oasis_util.Value

(* ---------------- Domains ---------------- *)

let test_domain_structure () =
  let world = World.create ~seed:31 () in
  let hospital = Domain.create world ~name:"stmarys" () in
  let pharmacy =
    Domain.add_service hospital ~name:"pharmacy" ~policy:"initial clerk <- env:eq(1, 1);" ()
  in
  let xray =
    Domain.add_service hospital ~name:"xray" ~policy:"initial tech <- env:eq(1, 1);" ()
  in
  Alcotest.(check string) "qualified name" "stmarys.pharmacy" (Service.service_name pharmacy);
  Alcotest.(check int) "two services" 2 (List.length (Domain.services hospital));
  Alcotest.(check bool) "lookup by short name" true
    (match Domain.find_service hospital "xray" with Some s -> s == xray | None -> false);
  Alcotest.(check bool) "civ registered" true
    (World.resolve world "stmarys.civ" = Some (Civ.id (Domain.civ hospital)))

let test_domain_shared_env () =
  (* Services in one domain read the same database. *)
  let world = World.create ~seed:32 () in
  let d = Domain.create world ~name:"d" () in
  let a =
    Domain.add_service d ~name:"a" ~policy:"initial r <- env:flag(1);" ()
  in
  ignore a;
  let b = Domain.find_service d "a" in
  ignore b;
  Env.assert_fact (Domain.env d) "flag" [ Value.Int 1 ];
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      match Principal.activate p s (Option.get (Domain.find_service d "a")) ~role:"r" () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "denied: %s" (Protocol.denial_to_string e))

(* ---------------- SLA: the visiting doctor (Sect. 5) ---------------- *)

(* Home hospital issues employed_as_doctor appointments via its CIV; the
   research institute's SLA accepts them for the visiting_doctor role. *)
let visiting_doctor_world () =
  let world = World.create ~seed:33 () in
  let hospital_dom = Domain.create world ~name:"hospital" () in
  let institute_dom = Domain.create world ~name:"institute" () in
  let hospital_portal =
    Domain.add_service hospital_dom ~name:"portal"
      ~policy:"initial medical_staff(u) <- appt:employed_as_doctor(u)@hospital.civ;" ()
  in
  let institute_portal =
    Domain.add_service institute_dom ~name:"portal"
      ~policy:
        {|
          initial guest <- env:eq(1, 1);
          priv use_library(u) <- visiting_doctor(u);
        |}
      ()
  in
  let sla =
    Sla.establish world ~name:"hospital-institute-2001" ~between:hospital_portal
      ~and_:institute_portal
      ~clauses:
        [
          Sla.Accept_appointment
            {
              at = "institute.portal";
              role = "visiting_doctor";
              params = [ Term.Var "u" ];
              kind = "employed_as_doctor";
              cert_args = [ Term.Var "u" ];
              issuer = "hospital.civ";
              monitored = true;
              extra = [];
              initial = true;
            };
          (* Reciprocal clause: institute researchers may visit the hospital. *)
          Sla.Accept_appointment
            {
              at = "hospital.portal";
              role = "visiting_researcher";
              params = [ Term.Var "u" ];
              kind = "research_medic";
              cert_args = [ Term.Var "u" ];
              issuer = "institute.civ";
              monitored = true;
              extra = [];
              initial = true;
            };
        ]
  in
  (world, hospital_dom, institute_dom, hospital_portal, institute_portal, sla)

let contains hay needle =
  let n = String.length needle in
  let rec from i = i + n <= String.length hay && (String.sub hay i n = needle || from (i + 1)) in
  from 0

let test_sla_metadata () =
  let _, _, _, _, _, sla = visiting_doctor_world () in
  let rendered = Format.asprintf "%a" Sla.pp sla in
  Alcotest.(check bool) "parties" true
    (contains rendered "between hospital.portal and institute.portal");
  Alcotest.(check int) "two clauses" 2 (List.length (Sla.clauses sla));
  Alcotest.(check bool) "pp mentions name" true
    (String.length rendered > 0);
  let installed =
    List.filter (String.starts_with ~prefix:"  at ") (String.split_on_char '\n' rendered)
  in
  Alcotest.(check int) "two rules installed" 2 (List.length installed)

let test_visiting_doctor_flow () =
  let world, hospital_dom, _institute_dom, _hp, institute_portal, _sla = visiting_doctor_world () in
  let doctor = Principal.create world ~name:"dr-jones" in
  (* The home CIV certifies employment after checking qualifications (the
     administrative check is outside policy here). *)
  let employment =
    Civ.issue (Domain.civ hospital_dom) ~kind:"employed_as_doctor"
      ~args:[ Value.Id (Principal.id doctor) ]
      ~holder:(Principal.id doctor) ~holder_key:(Principal.longterm_public doctor) ()
  in
  Principal.grant_appointment doctor employment;
  World.settle world;
  World.run_proc world (fun () ->
      let s = Principal.start_session doctor in
      (match Principal.activate doctor s institute_portal ~role:"visiting_doctor" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "visiting denied: %s" (Protocol.denial_to_string d));
      match
        Principal.invoke doctor s institute_portal ~privilege:"use_library"
          ~args:[ Value.Id (Principal.id doctor) ]
      with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "library denied: %s" (Protocol.denial_to_string d))

let test_visiting_doctor_revoked_at_home () =
  (* The hospital strikes the doctor off; the institute's visiting_doctor
     role collapses via the monitored foreign credential. *)
  let world, hospital_dom, _i, _hp, institute_portal, _sla = visiting_doctor_world () in
  let doctor = Principal.create world ~name:"dr-jones" in
  let employment =
    Civ.issue (Domain.civ hospital_dom) ~kind:"employed_as_doctor"
      ~args:[ Value.Id (Principal.id doctor) ]
      ~holder:(Principal.id doctor) ~holder_key:(Principal.longterm_public doctor) ()
  in
  Principal.grant_appointment doctor employment;
  World.settle world;
  World.run_proc world (fun () ->
      let s = Principal.start_session doctor in
      match Principal.activate doctor s institute_portal ~role:"visiting_doctor" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "denied: %s" (Protocol.denial_to_string d));
  Alcotest.(check int) "visiting active" 1 (List.length (Service.active_roles institute_portal));
  ignore
    (Civ.revoke (Domain.civ hospital_dom) employment.Oasis_cert.Appointment.id
       ~reason:"employment ended");
  World.settle world;
  Alcotest.(check int) "visiting collapsed" 0 (List.length (Service.active_roles institute_portal))

let test_sla_accept_role_clause () =
  (* The Fig. 3 pattern: a service accepts the other party's RMC (not an
     appointment) as prerequisite, with callback validation and monitoring. *)
  let world = World.create ~seed:34 () in
  (* [staff]'s head parameter is pinned by the request and validated by
     nothing — the lint gate (L001) refuses that, so the rule is added past
     the gate. *)
  let a = Service.create world ~name:"a" ~policy:"" () in
  Fixtures.add_unlinted a "initial staff(u) <- env:eq(1, 1);";
  let b = Service.create world ~name:"b" ~policy:"initial noop <- env:eq(1, 2);" () in
  ignore
    (Sla.establish world ~name:"a-b" ~between:a ~and_:b
       ~clauses:
         [
           Sla.Accept_role
             {
               at = "b";
               role = "affiliate";
               params = [ Term.Var "u" ];
               foreign_role = "staff";
               role_args = [ Term.Var "u" ];
               issuer = "a";
               monitored = true;
               extra = [];
             };
         ]);
  let p = Principal.create world ~name:"p" in
  let staff_rmc =
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        let rmc =
          (* The head parameter is pinned by the request (seed binding). *)
          match
            Principal.activate p s a ~role:"staff" ~args:[ Some (Value.Id (Principal.id p)) ] ()
          with
          | Ok rmc -> rmc
          | Error d -> Alcotest.failf "staff denied: %s" (Protocol.denial_to_string d)
        in
        (match Principal.activate p s b ~role:"affiliate" () with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "affiliate denied: %s" (Protocol.denial_to_string d));
        rmc)
  in
  Alcotest.(check int) "affiliate active at b" 1 (List.length (Service.active_roles b));
  (* Revoking the foreign RMC collapses the affiliate role remotely. *)
  ignore (Service.revoke_certificate a staff_rmc.Oasis_cert.Rmc.id ~reason:"left");
  World.settle world;
  Alcotest.(check int) "affiliate collapsed" 0 (List.length (Service.active_roles b))

let test_sla_rejects_non_party () =
  let world = World.create ~seed:35 () in
  let a = Service.create world ~name:"a" ~policy:"initial r <- env:eq(1,1);" () in
  let b = Service.create world ~name:"b" ~policy:"initial r <- env:eq(1,1);" () in
  Alcotest.(check bool) "raises" true
    (match
       Sla.establish world ~name:"bogus" ~between:a ~and_:b
         ~clauses:
           [
             Sla.Accept_role
               {
                 at = "c";
                 role = "x";
                 params = [];
                 foreign_role = "r";
                 role_args = [];
                 issuer = "a";
                 monitored = false;
                 extra = [];
               };
           ]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------- Group membership (Tate galleries) ---------------- *)

let test_group_membership_reciprocity () =
  (* A friend registered at one gallery receives friend privileges at any
     other; identity is not needed, only provable membership. *)
  let world = World.create ~seed:36 () in
  let tate_london = Domain.create world ~name:"tate_london" () in
  let tate_stives = Domain.create world ~name:"tate_stives" () in
  let stives_portal =
    Domain.add_service tate_stives ~name:"portal"
      ~policy:
        {|
          initial friend(m) <- appt:friend_card(m)@tate_london.civ;
          priv newsletter(m) <- friend(m);
        |}
      ()
  in
  ignore (Domain.civ tate_stives);
  let artlover = Principal.create world ~name:"artlover" in
  let card =
    Civ.issue (Domain.civ tate_london) ~kind:"friend_card"
      ~args:[ Value.Id (Principal.id artlover) ]
      ~holder:(Principal.id artlover) ~holder_key:(Principal.longterm_public artlover) ()
  in
  Principal.grant_appointment artlover card;
  World.settle world;
  World.run_proc world (fun () ->
      let s = Principal.start_session artlover in
      (match Principal.activate artlover s stives_portal ~role:"friend" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "friend denied: %s" (Protocol.denial_to_string d));
      match
        Principal.invoke artlover s stives_portal ~privilege:"newsletter"
          ~args:[ Value.Id (Principal.id artlover) ]
      with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "newsletter denied: %s" (Protocol.denial_to_string d))

(* ---------------- Anonymity (the genetic clinic) ---------------- *)

let anonymity_world () =
  let world = World.create ~seed:37 () in
  let insurer = Domain.create world ~name:"insurer" () in
  let clinic = Service.create world ~name:"clinic" ~policy:"priv take_test(exp) <- paid_up_patient(exp);" () in
  Service.add_rule clinic
    (Oasis_policy.Parser.Activation
       (Anonymity.member_role_rule ~scheme:"insured" ~civ_name:"insurer.civ"
          ~role:"paid_up_patient"));
  (world, insurer, clinic)

let test_anonymous_invocation () =
  let world, insurer, clinic = anonymity_world () in
  let member = Principal.create world ~name:"member-identity" in
  let membership =
    Anonymity.enroll ~civ:(Domain.civ insurer) ~member ~scheme:"insured" ~expires_at:1000.0
  in
  World.settle world;
  World.run_proc world (fun () ->
      let s = Principal.start_session member in
      (match Anonymity.activate_anonymously member s clinic ~role:"paid_up_patient" membership with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "anonymous activation denied: %s" (Protocol.denial_to_string d));
      match
        Principal.invoke_as member s clinic ~privilege:"take_test"
          ~args:[ Value.Time membership.Anonymity.expires_at ]
          ~alias:membership.Anonymity.alias
      with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "test denied: %s" (Protocol.denial_to_string d));
  (* The clinic's audit trail knows only the alias. *)
  let log = Fixtures.grants clinic in
  Alcotest.(check bool) "audit has entries" true (List.length log >= 2);
  List.iter
    (fun (entry : Fixtures.Dlog.record) ->
      Alcotest.(check bool) "no real identity in audit" false
        (Oasis_util.Ident.equal entry.principal (Principal.id member));
      Alcotest.(check string) "alias is pseudonymous" "anon"
        (Oasis_util.Ident.tag entry.principal))
    log

let test_anonymous_expiry_enforced () =
  let world, insurer, clinic = anonymity_world () in
  let member = Principal.create world ~name:"member" in
  let membership =
    Anonymity.enroll ~civ:(Domain.civ insurer) ~member ~scheme:"insured" ~expires_at:50.0
  in
  World.settle world;
  World.run_until world 60.0;
  World.settle world;
  World.run_proc world (fun () ->
      let s = Principal.start_session member in
      match Anonymity.activate_anonymously member s clinic ~role:"paid_up_patient" membership with
      | Error Protocol.No_proof -> ()
      | Ok _ -> Alcotest.fail "expired membership accepted"
      | Error d -> Alcotest.failf "unexpected: %s" (Protocol.denial_to_string d))

let test_anonymous_role_collapses_at_expiry () =
  (* Activated before expiry; the monitored certificate dies at the deadline
     and the clinic role collapses mid-test. *)
  let world, insurer, clinic = anonymity_world () in
  let member = Principal.create world ~name:"member" in
  let membership =
    Anonymity.enroll ~civ:(Domain.civ insurer) ~member ~scheme:"insured" ~expires_at:50.0
  in
  World.settle world;
  World.run_proc world (fun () ->
      let s = Principal.start_session member in
      match Anonymity.activate_anonymously member s clinic ~role:"paid_up_patient" membership with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "denied: %s" (Protocol.denial_to_string d));
  Alcotest.(check int) "active" 1 (List.length (Service.active_roles clinic));
  World.run_until world 60.0;
  World.settle world;
  Alcotest.(check int) "collapsed at expiry" 0 (List.length (Service.active_roles clinic))

let test_anonymous_theft_blocked_by_challenge () =
  (* With challenge-response on, only the holder of the pseudonym key can
     use the anonymous card. *)
  let world = World.create ~seed:38 () in
  let insurer = Domain.create world ~name:"insurer" () in
  let config = { Service.default_config with challenge_on_activation = true } in
  let clinic = Service.create world ~name:"clinic" ~config ~policy:"initial noop <- env:eq(1,1);" () in
  Service.add_rule clinic
    (Oasis_policy.Parser.Activation
       (Anonymity.member_role_rule ~scheme:"insured" ~civ_name:"insurer.civ"
          ~role:"paid_up_patient"));
  let member = Principal.create world ~name:"member" in
  let membership =
    Anonymity.enroll ~civ:(Domain.civ insurer) ~member ~scheme:"insured" ~expires_at:1000.0
  in
  World.settle world;
  (* The rightful member passes (their node answers the session-key challenge). *)
  World.run_proc world (fun () ->
      let s = Principal.start_session member in
      match Anonymity.activate_anonymously member s clinic ~role:"paid_up_patient" membership with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "member denied: %s" (Protocol.denial_to_string d))

let suite =
  ( "domain",
    [
      Alcotest.test_case "domain structure" `Quick test_domain_structure;
      Alcotest.test_case "shared env" `Quick test_domain_shared_env;
      Alcotest.test_case "sla metadata" `Quick test_sla_metadata;
      Alcotest.test_case "visiting doctor" `Quick test_visiting_doctor_flow;
      Alcotest.test_case "visiting doctor revoked" `Quick test_visiting_doctor_revoked_at_home;
      Alcotest.test_case "sla accept-role clause" `Quick test_sla_accept_role_clause;
      Alcotest.test_case "sla non-party" `Quick test_sla_rejects_non_party;
      Alcotest.test_case "group membership" `Quick test_group_membership_reciprocity;
      Alcotest.test_case "anonymous invocation" `Quick test_anonymous_invocation;
      Alcotest.test_case "anonymous expiry" `Quick test_anonymous_expiry_enforced;
      Alcotest.test_case "anonymous collapse" `Quick test_anonymous_role_collapses_at_expiry;
      Alcotest.test_case "anonymous challenge" `Quick test_anonymous_theft_blocked_by_challenge;
    ] )
