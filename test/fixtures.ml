(* A shared test world: the paper's hospital scenario in miniature.

   Roles:
     bootstrap            — initial, condition-free (installer trapdoor)
     hr_admin(a)          — initial, via is_admin appointment
     logged_in(u)         — initial, via employee appointment
     doctor(u)            — logged_in + qualified appointment (both monitored)
     treating_doctor(d,p) — doctor + assigned(d,p) fact (monitored) + not excluded
   Privileges:
     read_record(d,p)     — treating_doctor(d,p), not excluded
   Appointments issued by the hospital:
     is_admin(a)   — requires bootstrap
     employee(u)   — requires hr_admin
     qualified(u)  — requires hr_admin *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Rule = Oasis_policy.Rule
module Parser = Oasis_policy.Parser
module Dlog = Oasis_trust.Decision_log
module Term = Oasis_policy.Term
module Env = Oasis_policy.Env
module Value = Oasis_util.Value
module Obs = Oasis_obs.Obs

(* Appointment issuance is itself policy (the 'appoint' statements). *)
let hospital_policy =
  {|
    initial bootstrap <- env:eq(1, 1);
    initial hr_admin(a) <- appt:is_admin(a);
    initial logged_in(u) <- appt:employee(u);
    doctor(u) <- *logged_in(u), *appt:qualified(u);
    treating_doctor(doc, pat) <-
        *doctor(doc), *env:assigned(doc, pat), env:!excluded(doc, pat);
    priv read_record(doc, pat) <- treating_doctor(doc, pat), env:!excluded(doc, pat);
    appoint is_admin(u) <- bootstrap;
    appoint employee(u) <- hr_admin(a);
    appoint qualified(u) <- hr_admin(a);
  |}

type t = {
  world : World.t;
  hospital : Service.t;
  admin : Principal.t;
  admin_session : Principal.session;
  alice : Principal.t;
  alice_qualification : Oasis_cert.Appointment.t;
}

let ok = function
  | Ok v -> v
  | Error denial -> Alcotest.failf "unexpected denial: %s" (Protocol.denial_to_string denial)

(* Builds the world and walks the administrative bootstrap so that [alice]
   holds employee + qualified appointments and [admin] is an hr_admin. *)
let make ?(seed = 7) ?config ?monitoring () =
  let world = World.create ~seed ?monitoring () in
  let hospital = Service.create world ~name:"hospital" ?config ~policy:hospital_policy () in
  Env.declare_fact (Service.env hospital) "assigned";
  Env.declare_fact (Service.env hospital) "excluded";
  let admin = Principal.create world ~name:"admin" in
  let alice = Principal.create world ~name:"alice" in
  let admin_session, qualification =
    World.run_proc world (fun () ->
        let boot = Principal.start_session admin in
        ignore (ok (Principal.activate admin boot hospital ~role:"bootstrap" ()));
        ignore
          (ok
             (Principal.appoint admin boot hospital ~kind:"is_admin"
                ~args:[ Value.Id (Principal.id admin) ]
                ~holder:admin ()));
        let session = Principal.start_session admin in
        ignore (ok (Principal.activate admin session hospital ~role:"hr_admin" ()));
        ignore
          (ok
             (Principal.appoint admin session hospital ~kind:"employee"
                ~args:[ Value.Id (Principal.id alice) ]
                ~holder:alice ()));
        let qualification =
          ok
            (Principal.appoint admin session hospital ~kind:"qualified"
               ~args:[ Value.Id (Principal.id alice) ]
               ~holder:alice ())
        in
        (session, qualification))
  in
  { world; hospital; admin; admin_session; alice; alice_qualification = qualification }

(* Walks alice to an active treating_doctor(alice, patient) role in a fresh
   session; returns the session. *)
let alice_treating t ~patient =
  Env.assert_fact (Service.env t.hospital) "assigned"
    [ Value.Id (Principal.id t.alice); Value.Int patient ];
  World.run_proc t.world (fun () ->
      let session = Principal.start_session t.alice in
      ignore (ok (Principal.activate t.alice session t.hospital ~role:"logged_in" ()));
      ignore (ok (Principal.activate t.alice session t.hospital ~role:"doctor" ()));
      ignore (ok (Principal.activate t.alice session t.hospital ~role:"treating_doctor" ()));
      session)

(* One counter of a registry by rendered key ([Obs.render_key]); fails on a
   missing key, so a mistyped key cannot read as 0. *)
let metric obs key =
  match Obs.value obs key with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "metric missing from registry: %s" key

(* [net.dropped] summed over its six causes. *)
let net_dropped obs =
  List.fold_left
    (fun acc cause -> acc + metric obs (Printf.sprintf "net.dropped{cause=%s}" cause))
    0
    [ "src_down"; "dst_missing"; "partitioned"; "link_loss"; "in_flight_down"; "handler_error" ]

(* The analysis' verdict for [role@service], if the world defines it. *)
let goal_for (result : Oasis_policy.Reach.result) ~service ~role =
  List.find_opt
    (fun (g : Oasis_policy.Reach.goal) -> g.g_service = service && g.g_role = role)
    result.goals

(* One concrete step of realising a Reach witness against the live engine. *)
type step =
  | Activate of { service : string; role : string }
  | Self_appoint of { issuer : string; kind : string }

(* A witness flattened into dependency order (prerequisites before
   dependents, appointment issuance before use), duplicates removed.
   Executing the steps in order against a live world (fresh session, the
   adversary's wallet) must grant every one; the fuzzer checks this. *)
let plan witness =
  let module Reach = Oasis_policy.Reach in
  let steps = ref [] in
  let push step = if not (List.mem step !steps) then steps := step :: !steps in
  let rec walk = function
    | Reach.Held _ -> ()
    | Reach.Fired { service; head; premises; _ } -> (
        List.iter walk_premise premises;
        match head with
        | Reach.Role role -> push (Activate { service; role })
        | Reach.Appoint kind -> push (Self_appoint { issuer = service; kind }))
  and walk_premise = function
    | Reach.Role_premise w -> walk w
    | Reach.Appointment_premise { via; _ } -> Option.iter walk via
    | Reach.Env_premise _ -> ()
  in
  walk witness;
  List.rev !steps

(* A request whose reply nobody awaits: a one-way message over
   [Network.rpc], with a lost leg ignored. *)
let post engine net ~src ~dst msg =
  Oasis_sim.Proc.spawn engine (fun () ->
      try ignore (Oasis_sim.Network.rpc net ~src ~dst msg) with Oasis_sim.Network.Rpc_dropped -> ())

(* One certificate kind through [Codec]: a decode that yields the other
   kind is an error at the certificate's start. *)
let rmc_to_string r = Oasis_cert.Codec.to_string (Oasis_cert.Codec.Rmc r)
let appointment_to_string a = Oasis_cert.Codec.to_string (Oasis_cert.Codec.Appointment a)

let rmc_of_string s =
  match Oasis_cert.Codec.of_string s with
  | Ok (Oasis_cert.Codec.Rmc r) -> Ok r
  | Ok (Oasis_cert.Codec.Appointment _) ->
      Error { Oasis_cert.Codec.offset = 0; reason = "an appointment, not an rmc" }
  | Error e -> Error e

let appointment_of_string s =
  match Oasis_cert.Codec.of_string s with
  | Ok (Oasis_cert.Codec.Appointment a) -> Ok a
  | Ok (Oasis_cert.Codec.Rmc _) ->
      Error { Oasis_cert.Codec.offset = 0; reason = "an rmc, not an appointment" }
  | Error e -> Error e

let denial_testable =
  Alcotest.testable
    (fun ppf d -> Format.pp_print_string ppf (Protocol.denial_to_string d))
    (fun a b -> Protocol.denial_to_string a = Protocol.denial_to_string b)

(* The Grant records of a service's decision log, oldest first — the audit
   trail of Sect. 3: principal, action, arguments, supporting credentials. *)
let grants svc =
  List.filter
    (fun (r : Dlog.record) -> r.decision = Dlog.Grant)
    (Dlog.records (Service.decision_log svc))

(* Adds rules one statement at a time with [Service.add_rule], which
   bypasses the install lint gate: how a test reaches the runtime
   [Bad_request] containment for a deliberately broken rule. *)
let add_unlinted svc text = List.iter (Service.add_rule svc) (Parser.parse_exn text)

(* [(cert_id, args, principal)] of every valid RMC of [role] at [svc]. *)
let active_named svc role =
  List.filter_map
    (fun (cert_id, r, args, principal) ->
      if String.equal r role then Some (cert_id, args, principal) else None)
    (Service.active_roles svc)
