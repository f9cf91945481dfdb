(* The cross-domain electronic health record session of Fig. 3.

   Run with: dune exec examples/ehr_cross_domain.exe

   A doctor, active in the parametrised role treating_doctor(doctor, patient)
   at her hospital, asks the hospital's EHR management service for the
   patient's record. That service is OASIS-aware: it validates the
   treating_doctor RMC by callback to the hospital administration, then —
   acting as a principal itself — activates the role hospital(hospital_id)
   at the national patient record management service and performs the
   request-EHR and append-to-EHR invocations (paths 1-4 of the figure).
   Both services record the original requester for audit. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Domain = Oasis_domain.Domain
module Civ = Oasis_domain.Civ
module Sla = Oasis_domain.Sla
module Env = Oasis_policy.Env
module Term = Oasis_policy.Term
module Value = Oasis_util.Value
module Obs = Oasis_obs.Obs
module Dlog = Oasis_trust.Decision_log

let banner title = Printf.printf "\n=== %s ===\n" title

let () =
  let world = World.create ~seed:3 ~net_latency:0.002 () in

  banner "Domains and services";
  (* The hospital domain: administration (CIV), portal, EHR management. *)
  let hospital = Domain.create world ~name:"stmarys" () in
  let portal =
    Domain.add_service hospital ~name:"portal"
      ~policy:
        {|
          initial logged_in(u) <- appt:employee(u)@stmarys.civ;
          doctor(u) <- *logged_in(u), *appt:qualified(u)@stmarys.civ;
          treating_doctor(doc, pat) <-
              *doctor(doc), *env:assigned(doc, pat), env:!excluded(doc, pat);
        |}
      ()
  in
  Env.declare_fact (Domain.env hospital) "assigned";
  Env.declare_fact (Domain.env hospital) "excluded";
  let ehr_service =
    Domain.add_service hospital ~name:"ehr"
      ~policy:
        {|
          priv request_ehr(doc, pat) <- treating_doctor(doc, pat)@stmarys.portal;
          priv append_ehr(doc, pat) <- treating_doctor(doc, pat)@stmarys.portal;
        |}
      ()
  in

  (* The national EHR domain. *)
  let national = Domain.create world ~name:"nhs" () in
  let records =
    Domain.add_service national ~name:"records"
      ~policy:
        {|
          priv deliver_ehr(h, doc, pat) <- hospital(h);
          priv file_treatment(h, doc, pat) <- hospital(h);
        |}
      ()
  in
  (* The service-level agreement: accredited hospitals may activate the
     national role hospital(hospital_id) with their accreditation
     certificate (Sect. 3: "service level agreements between the national
     service and individual health care domains"). *)
  let _sla =
    Sla.establish world ~name:"nhs-stmarys-ehr" ~between:records ~and_:ehr_service
      ~clauses:
        [
          Sla.Accept_appointment
            {
              at = "nhs.records";
              role = "hospital";
              params = [ Term.Var "h" ];
              kind = "accredited_hospital";
              cert_args = [ Term.Var "h" ];
              issuer = "nhs.civ";
              monitored = true;
              extra = [];
              initial = true;
            };
        ]
  in

  (* National record store, keyed by patient id. *)
  let store : (int, string list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace store 1005 [ "2000-11-02 fracture, left radius" ];
  Service.register_operation records "deliver_ehr" (fun ~principal:_ args ->
      match args with
      | [ _; _; Value.Int pat ] ->
          let entries = Option.value ~default:[] (Hashtbl.find_opt store pat) in
          Some (Value.Str (String.concat " | " entries))
      | _ -> None);
  Service.register_operation records "file_treatment" (fun ~principal:_ args ->
      match args with
      | [ _; Value.Id doc; Value.Int pat ] ->
          let entries = Option.value ~default:[] (Hashtbl.find_opt store pat) in
          Hashtbl.replace store pat
            (entries @ [ Printf.sprintf "2001-11-12 treatment by %s" (Oasis_util.Ident.to_string doc) ]);
          Some (Value.Bool true)
      | _ -> None);

  banner "Credentials";
  (* The hospital EHR service acts as a principal toward the national
     service; the NHS accredits it. *)
  let hospital_id = Value.Id (Service.id portal) in
  let ehr_agent = Principal.create world ~name:"stmarys-ehr-agent" in
  let accreditation =
    Civ.issue (Domain.civ national) ~kind:"accredited_hospital" ~args:[ hospital_id ]
      ~holder:(Principal.id ehr_agent) ~holder_key:(Principal.longterm_public ehr_agent) ()
  in
  Principal.grant_appointment ehr_agent accreditation;
  Printf.printf "  NHS accredits St Mary's EHR service: %s\n"
    (Format.asprintf "%a" Oasis_cert.Appointment.pp accreditation);

  (* Dr Carol is employed and qualified (home-domain CIV certificates). *)
  let carol = Principal.create world ~name:"dr-carol" in
  let issue kind =
    let appt =
      Civ.issue (Domain.civ hospital) ~kind
        ~args:[ Value.Id (Principal.id carol) ]
        ~holder:(Principal.id carol) ~holder_key:(Principal.longterm_public carol) ()
    in
    Principal.grant_appointment carol appt
  in
  issue "employee";
  issue "qualified";
  World.settle world;

  (* The EHR service's agent keeps one session toward the national service. *)
  let agent_session = Principal.start_session ehr_agent in

  (* The hospital EHR service's operations drive the cross-domain calls.
     They run inside simulated processes, so blocking RPC is fine here. *)
  Service.register_operation ehr_service "request_ehr" (fun ~principal:_ args ->
      match args with
      | [ Value.Id doc; Value.Int pat ] -> (
          (* Ensure the hospital role is active at the national service. *)
          (if
             not
               (List.exists
                  (fun (r : Oasis_cert.Rmc.t) -> r.role = "hospital")
                  (Principal.session_rmcs agent_session))
           then
             match Principal.activate ehr_agent agent_session records ~role:"hospital" () with
             | Ok _ -> ()
             | Error d -> failwith ("hospital role: " ^ Protocol.denial_to_string d));
          match
            Principal.invoke ehr_agent agent_session records ~privilege:"deliver_ehr"
              ~args:[ hospital_id; Value.Id doc; Value.Int pat ]
          with
          | Ok result -> result
          | Error d -> Some (Value.Str ("national refusal: " ^ Protocol.denial_to_string d)))
      | _ -> None);
  Service.register_operation ehr_service "append_ehr" (fun ~principal:_ args ->
      match args with
      | [ Value.Id doc; Value.Int pat ] -> (
          match
            Principal.invoke ehr_agent agent_session records ~privilege:"file_treatment"
              ~args:[ hospital_id; Value.Id doc; Value.Int pat ]
          with
          | Ok result -> result
          | Error d -> Some (Value.Str ("national refusal: " ^ Protocol.denial_to_string d)))
      | _ -> None);

  banner "Dr Carol's session at the hospital";
  let session = Principal.start_session carol in
  Env.assert_fact (Domain.env hospital) "assigned" [ Value.Id (Principal.id carol); Value.Int 1005 ];
  World.run_proc world (fun () ->
      List.iter
        (fun role ->
          match Principal.activate carol session portal ~role () with
          | Ok rmc ->
              Printf.printf "  activated %s(%s)\n" role
                (String.concat ", " (List.map Value.to_string rmc.Oasis_cert.Rmc.args))
          | Error d -> failwith (Protocol.denial_to_string d))
        [ "logged_in"; "doctor"; "treating_doctor" ]);

  banner "Paths 1-2: request-EHR across domains";
  let sent () = int_of_float (Option.get (Obs.value (World.obs world) "net.sent")) in
  let sent_before = sent () in
  World.run_proc world (fun () ->
      match
        Principal.invoke carol session ehr_service ~privilege:"request_ehr"
          ~args:[ Value.Id (Principal.id carol); Value.Int 1005 ]
      with
      | Ok (Some (Value.Str record)) -> Printf.printf "  copy of EHR for patient 1005: %s\n" record
      | Ok _ -> Printf.printf "  (no record)\n"
      | Error d -> Printf.printf "  DENIED: %s\n" (Protocol.denial_to_string d));
  Printf.printf "  network messages for the full chain: %d (incl. validation callbacks)\n"
    (sent () - sent_before);

  banner "Paths 3-4: append-to-EHR after treatment";
  World.run_proc world (fun () ->
      match
        Principal.invoke carol session ehr_service ~privilege:"append_ehr"
          ~args:[ Value.Id (Principal.id carol); Value.Int 1005 ]
      with
      | Ok (Some (Value.Bool true)) -> Printf.printf "  done\n"
      | Ok _ -> Printf.printf "  unexpected reply\n"
      | Error d -> Printf.printf "  DENIED: %s\n" (Protocol.denial_to_string d));
  Printf.printf "  record now: %s\n" (String.concat " | " (Hashtbl.find store 1005));

  banner "Audit (Sect. 3: the original requester is recorded)";
  List.iter
    (fun (label, svc) ->
      List.iter
        (fun (r : Dlog.record) ->
          if r.decision = Dlog.Grant then
            Printf.printf "  [%s] %s(%s) by %s\n" label r.action
              (String.concat ", " (List.map Value.to_string r.args))
              (Oasis_util.Ident.to_string r.principal))
        (Dlog.records (Service.decision_log svc)))
    [ ("national", records); ("hospital-ehr", ehr_service) ];

  banner "Patient exception: the patient excludes Dr Carol";
  Env.assert_fact (Domain.env hospital) "excluded"
    [ Value.Id (Principal.id carol); Value.Int 1005 ];
  World.run_proc world (fun () ->
      match
        Principal.invoke carol session ehr_service ~privilege:"request_ehr"
          ~args:[ Value.Id (Principal.id carol); Value.Int 1005 ]
      with
      | Error _ | Ok _ -> ());
  (* The exclusion guards role *activation*; the existing treating_doctor
     role is unaffected (not membership-marked), so enforce it nationally by
     revoking the assignment instead. *)
  Env.retract_fact (Domain.env hospital) "assigned"
    [ Value.Id (Principal.id carol); Value.Int 1005 ];
  World.settle world;
  World.run_proc world (fun () ->
      match
        Principal.invoke carol session ehr_service ~privilege:"request_ehr"
          ~args:[ Value.Id (Principal.id carol); Value.Int 1005 ]
      with
      | Error d -> Printf.printf "  further access refused: %s\n" (Protocol.denial_to_string d)
      | Ok (Some (Value.Str s)) when String.length s >= 16 && String.sub s 0 16 = "national refusal"
        -> Printf.printf "  further access refused nationally: %s\n" s
      | Ok _ -> Printf.printf "  unexpected grant\n")
