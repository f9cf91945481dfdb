(* grant — the Fig. 2/3 paths. Each op is one clinical session: a doctor
   activates logged_in, doctor and treating_doctor(doc, pat) at the
   portal, reads the patient's record at the EHR service one to five
   times, and logs out; the logout cascade is the workload's revocation.
   Crypto, solve and the decision log carry the work; no fact changes, so
   env-watch rechecks do none. *)

open Common

let ehr_policy = {| priv read_record(doc, pat) <- treating_doctor(doc, pat)@h.portal ; |}

type doctor = { p : Principal.t; patients : int array }

let build ~seed ~smoke =
  let n = if smoke then 16 else 2_000 in
  let world = World.create ~seed ~net_jitter:0.0002 () in
  let h, portal = hospital world ~qualified_at:"h.civ" in
  let ehr = Domain.add_service h ~name:"ehr" ~policy:ehr_policy () in
  let civ = Domain.civ h in
  let people = principals world n in
  let patients = assign_patients (Domain.env h) people in
  let doctors =
    Array.mapi
      (fun i p ->
        ignore (appoint civ p "employee" : Appointment.t);
        ignore (appoint civ p "qualified" : Appointment.t);
        { p; patients = patients.(i) })
      people
  in
  World.settle world;
  let gen = Rng.create ((seed * 7919) + 11) in
  let zipf = Loadgen.zipf gen n in
  let arrivals = Loadgen.arrivals gen ~rate:20.0 ~start:(World.now world) in
  let last = ref None in
  let session d doc pat reads =
    let p = doc.p in
    let me = id p in
    Driver.run_op d (fun () ->
        let s = Principal.start_session p in
        let act role args =
          Driver.call d Driver.Activate ~svc:portal ~session:s (fun () ->
              Principal.activate p s portal ~role ~args ())
        in
        let logged_in = act "logged_in" [] in
        let doctor = act "doctor" [] in
        let treating = act "treating_doctor" [ Some me; Some (Value.Int pat) ] in
        last := Some (treating, Principal.session_key s);
        for _ = 1 to reads do
          ignore
            (Driver.call d Driver.Invoke ~svc:ehr ~session:s (fun () ->
                 Principal.invoke p s ehr ~privilege:"read_record" ~args:[ me; Value.Int pat ])
              : Value.t option)
        done;
        Driver.trigger d ~cls:"logout"
          ~deps:[ (portal, logged_in.Rmc.id); (portal, doctor.Rmc.id); (portal, treating.Rmc.id) ]
          (fun () -> Principal.logout p s))
  in
  let next () =
    let due = Loadgen.next_due arrivals in
    let doc = doctors.(Loadgen.draw gen zipf) in
    let pat = doc.patients.(Rng.int gen 2) in
    let reads = 1 + Rng.int gen 5 in
    { Driver.due; body = (fun d -> session d doc pat reads) }
  in
  {
    world;
    services = [ portal; ehr ];
    civs = [ civ ];
    bound = 0.05;
    next;
    expected_active = (fun () -> []);
    check = (fun () -> []);
    sample_rmc = (fun () -> Option.get !last);
    sample_appt = (fun () -> List.hd (Principal.appointments doctors.(0).p));
    env = { changes = 0; useful = 0 };
    sizes = [ ("principals", float_of_int n); ("rate_per_virt_s", 20.0) ];
  }

let workload =
  {
    name = "grant";
    build;
    prefix = (fun ~smoke -> if smoke then 12 else 1_500);
    ops_per_s = 400.0;
    triggers = [ ("logout", 1.0) ];
  }
