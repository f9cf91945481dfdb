(* What the four workloads share: the instance record the harness drives,
   the hospital domain of Fig. 2/3, and set-up helpers. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Domain = Oasis_domain.Domain
module Civ = Oasis_domain.Civ
module Env = Oasis_policy.Env
module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment
module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Rng = Oasis_util.Rng

(* Environment changes made by the workload, counted at the call: how many,
   and how many roles each one deactivated synchronously (the env-watch
   rechecks that found something to revoke). *)
type env_counters = { mutable changes : int; mutable useful : int }

type instance = {
  world : World.t;
  services : Service.t list;
  civs : Civ.t list;
  bound : float;  (** revocation deadline: delivery + heartbeat deadline + suspect grace *)
  next : unit -> Driver.op;
  expected_active : unit -> (string * string * Value.t list * Ident.t) list;
      (** (service, role, args, principal) the generator's model holds active *)
  check : unit -> string list;  (** workload-specific end-state failures *)
  sample_rmc : unit -> Rmc.t * string;  (** a live RMC and its session key *)
  sample_appt : unit -> Appointment.t;
  env : env_counters;
  sizes : (string * float) list;
}

type t = {
  name : string;
  build : seed:int -> smoke:bool -> instance;
  prefix : smoke:bool -> int;
  ops_per_s : float;
      (** measured ops per second of [--seconds]: about the rate the
          workload runs at on the reference machine in a slow spell, so a
          run measures for at most about [--seconds] there *)
  triggers : (string * float) list;
      (** each revocation trigger class in the stated op mix, with its share
          of the ops: the weights of the stratified revocation figures *)
}

let ok what = function
  | Ok v -> v
  | Error d -> failwith (Printf.sprintf "set-up %s denied: %s" what (Protocol.denial_to_string d))

let id p = Value.Id (Principal.id p)

let appoint civ p kind =
  let appt =
    Civ.issue civ ~kind ~args:[ id p ] ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p)
      ()
  in
  Principal.grant_appointment p appt;
  appt

(* Swaps a revoked appointment for a freshly issued one in the wallet. *)
let reappoint civ p (old : Appointment.t) =
  Principal.drop_appointment p old.Appointment.id;
  appoint civ p old.Appointment.kind

(* Counts every change, and the roles the synchronous re-check revoked. *)
let change_fact (counters : env_counters) services f =
  let revoked () =
    List.fold_left (fun acc s -> acc + (Service.stats s).Service.cascade_deactivations) 0 services
  in
  let before = revoked () in
  f ();
  counters.changes <- counters.changes + 1;
  counters.useful <- counters.useful + (revoked () - before)

(* Clients drop roles that collapsed under them: a deactivate on a dead
   RMC is answered by its issuer without further effect and removes it
   from the session, so presented wallets do not grow with every
   revocation. Runs inside a process. *)
let forget p session rmcs =
  List.iter (fun (r : Rmc.t) -> ignore (Principal.deactivate p session r : bool)) rmcs

let hospital_portal_policy ~qualified_at =
  Printf.sprintf
    {|
      initial logged_in(u) <- *appt:employee(u)@h.civ ;
      doctor(u) <- *logged_in(u), *appt:qualified(u)@%s ;
      treating_doctor(doc, pat) <- *doctor(doc), *env:assigned(doc, pat), env:!excluded(doc, pat) ;
    |}
    qualified_at

(* The hospital domain [h]: its CIV, the portal of Fig. 2 and a shared
   environment declaring the assignment and exclusion facts. *)
let hospital world ~qualified_at =
  let h = Domain.create world ~name:"h" () in
  Env.declare_fact (Domain.env h) "assigned";
  Env.declare_fact (Domain.env h) "excluded";
  let portal = Domain.add_service h ~name:"portal" ~policy:(hospital_portal_policy ~qualified_at) () in
  (h, portal)

let principals world n = Array.init n (fun i -> Principal.create world ~name:(Printf.sprintf "p%d" i))

(* Doctor [i] treats patients [2i] and [2i + 1]. The facts go in before any
   role is active: asserting one re-checks every active watcher of the
   predicate, so asserting while the population activates is quadratic. *)
let assign_patients env people =
  Array.mapi
    (fun i p ->
      let patients = [| 2 * i; (2 * i) + 1 |] in
      Array.iter (fun pat -> Env.assert_fact env "assigned" [ id p; Value.Int pat ]) patients;
      patients)
    people

(* A set-up activation, outside any measurement. *)
let activate world p session svc ~role ~args =
  ok role (World.run_proc world (fun () -> Principal.activate p session svc ~role ~args ()))
