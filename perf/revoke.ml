(* revoke — the Fig. 5 cascade. Every doctor holds logged_in, doctor and
   treating_doctor for two patients at the portal, and record_access for
   both at the EHR service, so cascades cross services. Each op is one
   trigger, driven until every dependent role has collapsed:

   - 50 %: retract one assigned(doc, pat) fact (an env change: the portal
     re-checks every watcher of the predicate);
   - 30 %: the hospital CIV revokes the doctor's qualification;
   - 20 %: the doctor logs out.

   The population is then restored: the fact or qualification comes back
   outside the timed window, and the doctor re-activates the lost roles
   and reads a record (timed like any client call). The three trigger
   classes cost very different amounts, so the revocation medians are
   taken per class and weighted by this mix. Crypto and solve are idle in
   the trigger itself; the credential store, broker, decision log and
   engine write. *)

open Common

let ehr_policy =
  {|
    record_access(doc, pat) <- *treating_doctor(doc, pat)@h.portal ;
    priv read_record(doc, pat) <- treating_doctor(doc, pat)@h.portal ;
  |}

type doctor = {
  p : Principal.t;
  patients : int array;
  mutable session : Principal.session;
  mutable qualified : Appointment.t;
  mutable logged_in : Rmc.t;
  mutable doctor : Rmc.t;
  treating : Rmc.t array;
  access : Rmc.t array;
}

let build ~seed ~smoke =
  let n = if smoke then 16 else 2_000 in
  let world = World.create ~seed ~net_jitter:0.0002 () in
  let h, portal = hospital world ~qualified_at:"h.civ" in
  let ehr = Domain.add_service h ~name:"ehr" ~policy:ehr_policy () in
  let civ = Domain.civ h and env = Domain.env h in
  let services = [ portal; ehr ] in
  let counters = { changes = 0; useful = 0 } in
  let act p s svc role args = Principal.activate p s svc ~role ~args () in
  let pair me pat = [ Some me; Some (Value.Int pat) ] in
  let people = principals world n in
  let patients = assign_patients env people in
  let doctors =
    Array.mapi
      (fun i p ->
        let me = id p and patients = patients.(i) in
        ignore (appoint civ p "employee" : Appointment.t);
        let qualified = appoint civ p "qualified" in
        let s = Principal.start_session p in
        let get svc role args = activate world p s svc ~role ~args in
        let logged_in = get portal "logged_in" [] in
        let doctor = get portal "doctor" [] in
        let treating = Array.map (fun pat -> get portal "treating_doctor" (pair me pat)) patients in
        let access = Array.map (fun pat -> get ehr "record_access" (pair me pat)) patients in
        { p; patients; session = s; qualified; logged_in; doctor; treating; access })
      people
  in
  World.settle world;
  let gen = Rng.create ((seed * 7919) + 23) in
  let zipf = Loadgen.zipf gen n in
  let arrivals = Loadgen.arrivals gen ~rate:10.0 ~start:(World.now world) in
  let call d kind svc doc f = Driver.call d kind ~svc ~session:doc.session f in
  let reactivate d doc js ~doctor_role =
    let me = id doc.p in
    let a svc role args = call d Driver.Activate svc doc (fun () -> act doc.p doc.session svc role args) in
    if doctor_role then doc.doctor <- a portal "doctor" [];
    List.iter (fun j -> doc.treating.(j) <- a portal "treating_doctor" (pair me doc.patients.(j))) js;
    List.iter (fun j -> doc.access.(j) <- a ehr "record_access" (pair me doc.patients.(j))) js;
    let pat = doc.patients.(List.hd js) in
    ignore
      (call d Driver.Invoke ehr doc (fun () ->
           Principal.invoke doc.p doc.session ehr ~privilege:"read_record" ~args:[ me; Value.Int pat ])
        : Value.t option)
  in
  let all_roles doc =
    [ (portal, doc.doctor); (portal, doc.treating.(0)); (portal, doc.treating.(1)); (ehr, doc.access.(0));
      (ehr, doc.access.(1)) ]
  in
  let deps roles = List.map (fun (svc, (r : Rmc.t)) -> (svc, r.Rmc.id)) roles in
  let retract d doc j =
    let fact = [ id doc.p; Value.Int doc.patients.(j) ] in
    let lost = [ (portal, doc.treating.(j)); (ehr, doc.access.(j)) ] in
    Driver.trigger d ~cls:"env" ~deps:(deps lost) (fun () ->
        change_fact counters services (fun () -> Env.retract_fact env "assigned" fact));
    Driver.untimed d (fun () ->
        change_fact counters services (fun () -> Env.assert_fact env "assigned" fact);
        Driver.run_op d (fun () -> forget doc.p doc.session (List.map snd lost)));
    Driver.run_op d (fun () -> reactivate d doc [ j ] ~doctor_role:false)
  in
  let disqualify d doc =
    let lost = all_roles doc in
    Driver.trigger d ~cls:"admin" ~deps:(deps lost) (fun () ->
        if not (Civ.revoke civ doc.qualified.Appointment.id ~reason:"struck off") then
          Driver.fail d "qualification was not revocable");
    Driver.untimed d (fun () ->
        doc.qualified <- reappoint civ doc.p doc.qualified;
        Driver.run_op d (fun () -> forget doc.p doc.session (List.map snd lost)));
    Driver.run_op d (fun () -> reactivate d doc [ 0; 1 ] ~doctor_role:true)
  in
  let logout d doc =
    let lost = (portal, doc.logged_in) :: all_roles doc in
    Driver.run_op d (fun () ->
        Driver.trigger d ~cls:"logout" ~deps:(deps lost) (fun () -> Principal.logout doc.p doc.session));
    doc.session <- Principal.start_session doc.p;
    Driver.run_op d (fun () ->
        doc.logged_in <-
          call d Driver.Activate portal doc (fun () -> act doc.p doc.session portal "logged_in" []);
        reactivate d doc [ 0; 1 ] ~doctor_role:true)
  in
  let next () =
    let due = Loadgen.next_due arrivals in
    let doc = doctors.(Loadgen.draw gen zipf) in
    let body =
      match Loadgen.choose gen [| 0.5; 0.3; 0.2 |] with
      | 0 ->
          let j = Rng.int gen 2 in
          fun d -> retract d doc j
      | 1 -> fun d -> disqualify d doc
      | _ -> fun d -> logout d doc
    in
    { Driver.due; body }
  in
  let expected_active () =
    List.concat_map
      (fun doc ->
        let me = id doc.p and pid = Principal.id doc.p in
        let pat j = [ me; Value.Int doc.patients.(j) ] in
        [
          ("h.portal", "logged_in", [ me ], pid);
          ("h.portal", "doctor", [ me ], pid);
          ("h.portal", "treating_doctor", pat 0, pid);
          ("h.portal", "treating_doctor", pat 1, pid);
          ("h.ehr", "record_access", pat 0, pid);
          ("h.ehr", "record_access", pat 1, pid);
        ])
      (Array.to_list doctors)
  in
  {
    world;
    services;
    civs = [ civ ];
    bound = 0.05;
    next;
    expected_active;
    check = (fun () -> []);
    sample_rmc = (fun () -> (doctors.(0).treating.(0), Principal.session_key doctors.(0).session));
    sample_appt = (fun () -> doctors.(0).qualified);
    env = counters;
    sizes = [ ("principals", float_of_int n); ("rate_per_virt_s", 10.0) ];
  }

let workload =
  {
    name = "revoke";
    build;
    prefix = (fun ~smoke -> if smoke then 12 else 1_200);
    ops_per_s = 240.0;
    triggers = [ ("env", 0.5); ("admin", 0.3); ("logout", 0.2) ];
  }
