(* metropolis — the north-star mix across four domains, after the
   multi-domain, service-centric parameterised-RBAC setting of PAPERS.md
   cs/0603030. Network jitter is 0.5 ms.

   - hospital [h]: the portal of Fig. 2, with doctor resting on a degree;
   - university [u]: its CIV issues the degrees as a legacy HMAC signer
     (no offline key chain), so every presentation of a degree is a
     cross-domain validation callback unless a validation cache answers;
   - pharmacy [ph]: dispenser(doc, pat) rests on the portal's
     treating_doctor(doc, pat);
   - insurer [ins]: claimant(u) needs a policy and a live trust score of at
     least 0.6, held down to 0.5 (hysteresis).

   A fifth of the doctors are on duty, holding treating_doctor for two
   patients and the matching dispenser roles; a quarter of the population
   holds policies and a standing claimant role. Op mix: 60 % h -> ph
   clinical sessions, 15 % claims, 15 % patient reassignments of on-duty
   doctors, 5 % degree revocations (cascading through h and ph), 5 %
   interactions recorded with the insurer (some cross the trust gate).

   It is the only workload where validation callbacks, the validation
   cache and cross-domain RPCs carry load, and it interleaves grants with
   revocations, so a gain for one that costs the other shows here. *)

open Common

let pharmacy_policy =
  {|
    dispenser(doc, pat) <- *treating_doctor(doc, pat)@h.portal ;
    priv dispense(doc, pat) <- dispenser(doc, pat) ;
  |}

let claims_policy =
  {|
    initial claimant(u) <- *appt:policyholder(u)@ins.civ, *env:trust_score(u) >= 0.6 ~ 0.1 ;
    priv claim(u) <- claimant(u) ;
  |}

(* The gate's thresholds, computed as the service computes them. *)
let grant_threshold = 0.6
let hold_threshold = 0.6 -. 0.1

type doctor = {
  p : Principal.t;
  patients : int array;
  mutable degree : Appointment.t;
  mutable duty : Principal.session option;
  treating : Rmc.t option array;
  dispenser : Rmc.t option array;
  mutable doctor_rmc : Rmc.t option;
}

type holder = {
  hp : Principal.t;
  mutable fulfilled : float;
  mutable breached : float;
  standing : Principal.session;
  mutable claimant : Rmc.t option;  (** the standing claimant role, while live *)
}

let score h = (h.fulfilled +. 1.0) /. (h.fulfilled +. h.breached +. 2.0)

let build ~seed ~smoke =
  let n = if smoke then 24 else 4_000 in
  let n_duty = n / 5 and n_holders = n / 4 in
  let world = World.create ~seed ~net_jitter:0.0005 () in
  let h, portal = hospital world ~qualified_at:"u.civ" in
  let u_civ = Civ.create world ~name:"u.civ" ~offline_sign:false () in
  let ph = Domain.create world ~name:"ph" () in
  let pharmacy = Domain.add_service ph ~name:"pharmacy" ~policy:pharmacy_policy () in
  let ins = Domain.create world ~name:"ins" () in
  let claims = Domain.add_service ins ~name:"claims" ~policy:claims_policy () in
  let h_civ = Domain.civ h and ins_civ = Domain.civ ins and env = Domain.env h in
  let services = [ portal; pharmacy; claims ] in
  let counters = { changes = 0; useful = 0 } in
  let people = principals world n in
  let next_patient = ref (2 * n) in
  let patients = assign_patients env people in
  let act p s svc role args = Principal.activate p s svc ~role ~args () in
  let pair me pat = [ Some me; Some (Value.Int pat) ] in
  let doctors =
    Array.mapi
      (fun i p ->
        ignore (appoint h_civ p "employee" : Appointment.t);
        let degree = appoint u_civ p "qualified" in
        {
          p;
          patients = patients.(i);
          degree;
          duty = None;
          treating = [| None; None |];
          dispenser = [| None; None |];
          doctor_rmc = None;
        })
      people
  in
  let get p s svc role args = Some (activate world p s svc ~role ~args) in
  for i = 0 to n_duty - 1 do
    let doc = doctors.(i) in
    let me = id doc.p and s = Principal.start_session doc.p in
    ignore (get doc.p s portal "logged_in" [] : Rmc.t option);
    doc.duty <- Some s;
    doc.doctor_rmc <- get doc.p s portal "doctor" [];
    Array.iteri
      (fun j pat -> doc.treating.(j) <- get doc.p s portal "treating_doctor" (pair me pat))
      doc.patients;
    Array.iteri
      (fun j pat -> doc.dispenser.(j) <- get doc.p s pharmacy "dispenser" (pair me pat))
      doc.patients
  done;
  (* Histories before any claimant is active, so filing them re-checks
     nobody. *)
  let holders =
    Array.init n_holders (fun k ->
        let hp = doctors.(n - 1 - k).p in
        ignore (appoint ins_civ hp "policyholder" : Appointment.t);
        for _ = 1 to 2 do
          ignore
            (Civ.record_interaction ins_civ ~client:(Principal.id hp) ~server:(Service.id claims)
               ~client_outcome:Oasis_trust.Audit.Fulfilled ~server_outcome:Oasis_trust.Audit.Fulfilled
              : Oasis_trust.Audit.t)
        done;
        { hp; fulfilled = 2.0; breached = 0.0; standing = Principal.start_session hp; claimant = None })
  in
  Array.iter (fun hd -> hd.claimant <- get hd.hp hd.standing claims "claimant" []) holders;
  World.settle world;
  let gen = Rng.create ((seed * 7919) + 37) in
  let zipf_all = Loadgen.zipf gen n and zipf_duty = Loadgen.zipf gen n_duty in
  let zipf_holders = Loadgen.zipf gen n_holders in
  let arrivals = Loadgen.arrivals gen ~rate:20.0 ~start:(World.now world) in
  let rmc = function Some r -> r | None -> invalid_arg "metropolis: role not held" in
  let duty doc = match doc.duty with Some s -> s | None -> invalid_arg "metropolis: not on duty" in
  let call d kind svc s f = Driver.call d kind ~svc ~session:s f in
  let clinical d doc pat dispenses =
    let p = doc.p and me = id doc.p in
    Driver.run_op d (fun () ->
        let s = Principal.start_session p in
        let a svc role args = call d Driver.Activate svc s (fun () -> act p s svc role args) in
        let logged_in = a portal "logged_in" [] in
        let doctor = a portal "doctor" [] in
        let treating = a portal "treating_doctor" (pair me pat) in
        let dispenser = a pharmacy "dispenser" (pair me pat) in
        for _ = 1 to dispenses do
          ignore
            (call d Driver.Invoke pharmacy s (fun () ->
                 Principal.invoke p s pharmacy ~privilege:"dispense" ~args:[ me; Value.Int pat ])
              : Value.t option)
        done;
        Driver.trigger d ~cls:"logout"
          ~deps:
            [
              (portal, logged_in.Rmc.id);
              (portal, doctor.Rmc.id);
              (portal, treating.Rmc.id);
              (pharmacy, dispenser.Rmc.id);
            ]
          (fun () -> Principal.logout p s))
  in
  let claim d hd =
    let p = hd.hp and me = id hd.hp in
    Driver.run_op d (fun () ->
        let s = Principal.start_session p in
        let claimant = call d Driver.Activate claims s (fun () -> act p s claims "claimant" []) in
        ignore
          (call d Driver.Invoke claims s (fun () ->
               Principal.invoke p s claims ~privilege:"claim" ~args:[ me ])
            : Value.t option);
        Driver.trigger d ~cls:"logout" ~deps:[ (claims, claimant.Rmc.id) ] (fun () -> Principal.logout p s))
  in
  (* Re-activates an on-duty doctor's lost roles for patient slots [js]. *)
  let restore d doc js ~doctor_role =
    let p = doc.p and me = id doc.p and s = duty doc in
    Driver.run_op d (fun () ->
        let a svc role args = Some (call d Driver.Activate svc s (fun () -> act p s svc role args)) in
        if doctor_role then doc.doctor_rmc <- a portal "doctor" [];
        List.iter (fun j -> doc.treating.(j) <- a portal "treating_doctor" (pair me doc.patients.(j))) js;
        List.iter (fun j -> doc.dispenser.(j) <- a pharmacy "dispenser" (pair me doc.patients.(j))) js;
        let pat = doc.patients.(List.hd js) in
        ignore
          (call d Driver.Invoke pharmacy s (fun () ->
               Principal.invoke p s pharmacy ~privilege:"dispense" ~args:[ me; Value.Int pat ])
            : Value.t option))
  in
  let lost_roles doc js ~doctor_role =
    (if doctor_role then [ (portal, rmc doc.doctor_rmc) ] else [])
    @ List.map (fun j -> (portal, rmc doc.treating.(j))) js
    @ List.map (fun j -> (pharmacy, rmc doc.dispenser.(j))) js
  in
  let forget_roles d doc lost =
    Driver.untimed d (fun () -> Driver.run_op d (fun () -> forget doc.p (duty doc) (List.map snd lost)))
  in
  let deps lost = List.map (fun (svc, (r : Rmc.t)) -> (svc, r.Rmc.id)) lost in
  let reassign d doc j =
    let me = id doc.p in
    let old_pat = doc.patients.(j) in
    let lost = lost_roles doc [ j ] ~doctor_role:false in
    Driver.trigger d ~cls:"env" ~deps:(deps lost) (fun () ->
        change_fact counters services (fun () -> Env.retract_fact env "assigned" [ me; Value.Int old_pat ]));
    let pat = !next_patient in
    incr next_patient;
    doc.patients.(j) <- pat;
    Driver.untimed d (fun () ->
        change_fact counters services (fun () -> Env.assert_fact env "assigned" [ me; Value.Int pat ]));
    forget_roles d doc lost;
    restore d doc [ j ] ~doctor_role:false
  in
  let revoke_degree d doc =
    let lost = lost_roles doc [ 0; 1 ] ~doctor_role:true in
    Driver.trigger d ~cls:"admin" ~deps:(deps lost) (fun () ->
        if not (Civ.revoke u_civ doc.degree.Appointment.id ~reason:"degree withdrawn") then
          Driver.fail d "degree was not revocable");
    Driver.untimed d (fun () -> doc.degree <- reappoint u_civ doc.p doc.degree);
    forget_roles d doc lost;
    restore d doc [ 0; 1 ] ~doctor_role:true
  in
  let interact d hd breach =
    let outcome = if breach then Oasis_trust.Audit.Breached else Oasis_trust.Audit.Fulfilled in
    if breach then hd.breached <- hd.breached +. 1.0 else hd.fulfilled <- hd.fulfilled +. 1.0;
    let record () =
      change_fact counters services (fun () ->
          ignore
            (Civ.record_interaction ins_civ ~client:(Principal.id hd.hp) ~server:(Service.id claims)
               ~client_outcome:outcome ~server_outcome:Oasis_trust.Audit.Fulfilled
              : Oasis_trust.Audit.t))
    in
    match hd.claimant with
    | Some c when score hd < hold_threshold ->
        (* The gate lets go: the standing claimant collapses. The score is
           a live env predicate, so this is an env trigger. *)
        hd.claimant <- None;
        Driver.trigger d ~cls:"env" ~deps:[ (claims, c.Rmc.id) ] record;
        Driver.untimed d (fun () -> Driver.run_op d (fun () -> forget hd.hp hd.standing [ c ]))
    | Some _ -> Driver.untimed d record
    | None ->
        Driver.untimed d record;
        if score hd >= grant_threshold then
          Driver.run_op d (fun () ->
              hd.claimant <-
                Some
                  (call d Driver.Activate claims hd.standing (fun () ->
                       act hd.hp hd.standing claims "claimant" [])))
  in
  let next () =
    let due = Loadgen.next_due arrivals in
    let body =
      match Loadgen.choose gen [| 0.60; 0.15; 0.15; 0.05; 0.05 |] with
      | 0 ->
          let doc = doctors.(Loadgen.draw gen zipf_all) in
          let pat = doc.patients.(Rng.int gen 2) and dispenses = 1 + Rng.int gen 3 in
          fun d -> clinical d doc pat dispenses
      | 1 -> (
          match Loadgen.draw_where gen zipf_holders (fun k -> score holders.(k) >= grant_threshold) with
          | Some k -> fun d -> claim d holders.(k)
          | None -> fun _ -> ())
      | 2 ->
          let doc = doctors.(Loadgen.draw gen zipf_duty) and j = Rng.int gen 2 in
          fun d -> reassign d doc j
      | 3 ->
          let doc = doctors.(Loadgen.draw gen zipf_duty) in
          fun d -> revoke_degree d doc
      | _ ->
          let hd = holders.(Loadgen.draw gen zipf_holders) and breach = Rng.bernoulli gen 0.45 in
          fun d -> interact d hd breach
    in
    { Driver.due; body }
  in
  let expected_active () =
    let duty_roles =
      List.concat_map
        (fun doc ->
          let me = id doc.p and pid = Principal.id doc.p in
          let pat j = [ me; Value.Int doc.patients.(j) ] in
          [
            ("h.portal", "logged_in", [ me ], pid);
            ("h.portal", "doctor", [ me ], pid);
            ("h.portal", "treating_doctor", pat 0, pid);
            ("h.portal", "treating_doctor", pat 1, pid);
            ("ph.pharmacy", "dispenser", pat 0, pid);
            ("ph.pharmacy", "dispenser", pat 1, pid);
          ])
        (Array.to_list (Array.sub doctors 0 n_duty))
    in
    let claimants =
      List.filter_map
        (fun hd ->
          Option.map (fun _ -> ("ins.claims", "claimant", [ id hd.hp ], Principal.id hd.hp)) hd.claimant)
        (Array.to_list holders)
    in
    duty_roles @ claimants
  in
  (* The generator's reputation model must match the assessor's scores. *)
  let check () =
    Array.to_list holders
    |> List.filter_map (fun hd ->
           let live = World.trust_score world (Principal.id hd.hp) in
           if Float.equal live (score hd) then None
           else Some (Printf.sprintf "trust score %.4f, model %.4f" live (score hd)))
  in
  {
    world;
    services;
    civs = [ h_civ; u_civ; ins_civ ];
    bound = 0.05;
    next;
    expected_active;
    check;
    sample_rmc = (fun () -> (rmc doctors.(0).treating.(0), Principal.session_key (duty doctors.(0))));
    sample_appt =
      (fun () ->
        List.find (fun a -> a.Appointment.kind = "employee") (Principal.appointments doctors.(0).p));
    env = counters;
    sizes =
      [
        ("principals", float_of_int n);
        ("on_duty", float_of_int n_duty);
        ("policyholders", float_of_int n_holders);
        ("rate_per_virt_s", 20.0);
      ];
  }

let workload =
  {
    name = "metropolis";
    build;
    prefix = (fun ~smoke -> if smoke then 16 else 2_000);
    ops_per_s = 250.0;
    (* Sessions and claims end in a logout, reassignments and degree
       revocations are env and admin triggers. Trust-gate crossings are a
       share of the interactions not known in advance: they add env samples
       but no weight. *)
    triggers = [ ("logout", 0.75); ("env", 0.15); ("admin", 0.05) ];
  }
