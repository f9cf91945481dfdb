(* Transient appointment in an Accident & Emergency department (Sect. 2).

   Run with: dune exec examples/accident_emergency.exe

   "A screening nurse in an A&E Department may allocate a patient to a
   particular doctor. He/she issues an appointment certificate to the doctor
   who may then activate the role treating doctor for that patient."

   The same mechanism covers standing in for a colleague: the appointment is
   transient, and when the shift ends (certificate expiry) or the nurse
   reallocates the patient (revocation), the treating role collapses. This is
   how OASIS subsumes delegation without ever delegating privileges: the
   nurse cannot treat anyone, yet controls who does. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Rule = Oasis_policy.Rule
module Term = Oasis_policy.Term
module Value = Oasis_util.Value

let banner title = Printf.printf "\n=== %s ===\n" title

let attempt label = function
  | Ok _ -> Printf.printf "  %s: granted\n" label
  | Error d -> Printf.printf "  %s: DENIED (%s)\n" label (Protocol.denial_to_string d)

let () =
  let world = World.create ~seed:13 () in
  let aande =
    Service.create world ~name:"aande"
      ~policy:
        {|
          initial screening_nurse(n) <- appt:nurse_shift(n);
          initial on_call_doctor(d) <- appt:medical_register(d);
          treating_doctor(d, pat) <- *on_call_doctor(d), *appt:allocated(d, pat);
          priv treat(d, pat) <- treating_doctor(d, pat);
          initial matron <- env:eq(1, 1);
        |}
      ()
  in
  (* The matron staffs the department; nurses allocate patients. *)
  let appointer kind role =
    Service.add_rule aande
      (Oasis_policy.Parser.Appointer
        {
          Rule.privilege = kind;
          priv_args = [ Term.Var "x" ];
          required_roles = [ { Rule.service = None; name = role; args = [] } ];
          constraints = [];
          loc = Rule.no_loc;
        })
  in
  appointer "nurse_shift" "matron";
  appointer "medical_register" "matron";
  Service.add_rule aande
    (Oasis_policy.Parser.Appointer
      {
        Rule.privilege = "allocated";
        priv_args = [ Term.Var "d"; Term.Var "pat" ];
        required_roles = [ { Rule.service = None; name = "screening_nurse"; args = [ Term.Var "n" ] } ];
        constraints = [];
        loc = Rule.no_loc;
      });
  let matron = Principal.create world ~name:"matron" in
  let nurse = Principal.create world ~name:"nurse-niamh" in
  let doctor = Principal.create world ~name:"dr-dara" in

  banner "Staffing (long-lived appointments)";
  let msession = Principal.start_session matron in
  World.run_proc world (fun () ->
      attempt "matron on duty" (Principal.activate matron msession aande ~role:"matron" ());
      attempt "nurse_shift for Niamh"
        (Principal.appoint matron msession aande ~kind:"nurse_shift"
           ~args:[ Value.Id (Principal.id nurse) ]
           ~holder:nurse ());
      attempt "medical_register for Dara"
        (Principal.appoint matron msession aande ~kind:"medical_register"
           ~args:[ Value.Id (Principal.id doctor) ]
           ~holder:doctor ()));

  banner "A patient arrives; the nurse screens and allocates";
  let nsession = Principal.start_session nurse in
  let dsession = Principal.start_session doctor in
  let patient = 4711 in
  let allocation =
    World.run_proc world (fun () ->
        attempt "nurse on shift" (Principal.activate nurse nsession aande ~role:"screening_nurse" ());
        (* The nurse is not medically qualified: she cannot treat. *)
        attempt "nurse tries to treat"
          (Principal.invoke nurse nsession aande ~privilege:"treat"
             ~args:[ Value.Id (Principal.id nurse); Value.Int patient ]);
        (* But she can allocate — a transient appointment for this patient.
           The shift's end bounds its life. *)
        match
          Principal.appoint nurse nsession aande ~kind:"allocated"
            ~args:[ Value.Id (Principal.id doctor); Value.Int patient ]
            ~holder:doctor
            ~expires_at:(World.now world +. (8.0 *. 3600.0))
            ()
        with
        | Ok appt ->
            Printf.printf "  allocation certificate: %s\n"
              (Format.asprintf "%a" Oasis_cert.Appointment.pp appt);
            appt
        | Error d -> failwith (Protocol.denial_to_string d))
  in

  banner "The doctor treats the allocated patient";
  World.run_proc world (fun () ->
      attempt "doctor on call" (Principal.activate doctor dsession aande ~role:"on_call_doctor" ());
      attempt "activate treating_doctor"
        (Principal.activate doctor dsession aande ~role:"treating_doctor" ());
      attempt "treat patient 4711"
        (Principal.invoke doctor dsession aande ~privilege:"treat"
           ~args:[ Value.Id (Principal.id doctor); Value.Int patient ]);
      (* Another patient was never allocated. *)
      attempt "treat patient 9999"
        (Principal.invoke doctor dsession aande ~privilege:"treat"
           ~args:[ Value.Id (Principal.id doctor); Value.Int 9999 ]));

  banner "The nurse reallocates: the appointment is revoked";
  ignore
    (Service.revoke_certificate aande allocation.Oasis_cert.Appointment.id
       ~reason:"patient reallocated");
  World.settle world;
  World.run_proc world (fun () ->
      attempt "treat after reallocation"
        (Principal.invoke doctor dsession aande ~privilege:"treat"
           ~args:[ Value.Id (Principal.id doctor); Value.Int patient ]));
  Printf.printf "  (treating_doctor collapsed; on_call_doctor survives: %d roles active)\n"
    (List.length (Service.active_roles aande))
