(* Randomised whole-system invariants.

   Generates random worlds (an authority CIV plus a layer of services whose
   policies form a random dependency structure, all conditions
   membership-monitored) and random action sequences (grants, sessions,
   activations, revocations, environment changes). After the dust settles,
   the OASIS safety invariants must hold GLOBALLY:

     I1  an active base role implies a currently valid supporting
         appointment certificate for that principal;
     I2  role dependency: mid active => base active; top active => mid
         active (per service, per principal);
     I3  an active top role implies its environmental flag still holds;
     I4  bookkeeping: activations + invocations + appointments granted =
         Grant records in the decision log; active roles never exceed
         activation grants;
     I5  determinism: the same seed produces the identical trace summary. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Civ = Oasis_domain.Civ
module Env = Oasis_policy.Env
module Value = Oasis_util.Value
module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng
module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment

let n_services = 4
let n_kinds = 3
let n_principals = 5
let n_actions = 80

type fixture = {
  world : World.t;
  civ : Civ.t;
  services : Service.t array;
  kinds : string array;
  principals : Principal.t array;
  sessions : (int, Principal.session) Hashtbl.t; (* principal index -> session *)
  mutable grants : int;
  mutable attempts : int;
}

(* Service i's policy:
     base_i(u) <- *appt:kind_{i mod K}(u)@authority ;
     mid_i(u)  <- *base_i(u) ;
     top_i(u)  <- *mid_i(u), *env:flag(u) ;
     priv use_i(u) <- base_i(u) ;  *)
let build seed =
  let world = World.create ~seed () in
  let civ = Civ.create world ~name:"authority" () in
  let kinds = Array.init n_kinds (fun k -> Printf.sprintf "kind%d" k) in
  let services =
    Array.init n_services (fun i ->
        let policy =
          Printf.sprintf
            {|
              initial base%d(u) <- *appt:%s(u)@authority ;
              mid%d(u) <- *base%d(u) ;
              top%d(u) <- *mid%d(u), *env:flag(u) ;
              priv use%d(u) <- base%d(u) ;
            |}
            i
            kinds.(i mod n_kinds)
            i i i i i i
        in
        let svc = Service.create world ~name:(Printf.sprintf "svc%d" i) ~policy () in
        Env.declare_fact (Service.env svc) "flag";
        svc)
  in
  let principals =
    Array.init n_principals (fun i -> Principal.create world ~name:(Printf.sprintf "p%d" i))
  in
  {
    world;
    civ;
    services;
    kinds;
    principals;
    sessions = Hashtbl.create 8;
    grants = 0;
    attempts = 0;
  }

let session_for f pi =
  match Hashtbl.find_opt f.sessions pi with
  | Some s -> s
  | None ->
      let s = Principal.start_session f.principals.(pi) in
      Hashtbl.replace f.sessions pi s;
      s

let random_action f rng =
  let pi = Rng.int rng n_principals in
  let p = f.principals.(pi) in
  match Rng.int rng 10 with
  | 0 | 1 ->
      (* grant a random appointment kind *)
      let kind = f.kinds.(Rng.int rng n_kinds) in
      let appt =
        Civ.issue f.civ ~kind
          ~args:[ Value.Id (Principal.id p) ]
          ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ()
      in
      Principal.grant_appointment p appt;
      f.grants <- f.grants + 1
  | 2 | 3 | 4 | 5 ->
      (* try to activate a random role, or invoke the privilege, at a
         random service *)
      let si = Rng.int rng n_services in
      let svc = f.services.(si) and session = session_for f pi in
      f.attempts <- f.attempts + 1;
      World.run_proc f.world (fun () ->
          let role prefix = Printf.sprintf "%s%d" prefix si in
          match Rng.int rng 4 with
          | 0 -> ignore (Principal.activate p session svc ~role:(role "base") ())
          | 1 -> ignore (Principal.activate p session svc ~role:(role "mid") ())
          | 2 -> ignore (Principal.activate p session svc ~role:(role "top") ())
          | _ ->
              ignore
                (Principal.invoke p session svc ~privilege:(role "use")
                   ~args:[ Value.Id (Principal.id p) ]))
  | 6 ->
      (* revoke one of the principal's appointment certificates *)
      (match Principal.appointments p with
      | [] -> ()
      | appts ->
          let appt = Rng.pick rng appts in
          ignore (Civ.revoke f.civ appt.Appointment.id ~reason:"random revocation"))
  | 7 ->
      (* flip the environment flag for this principal at one service *)
      let si = Rng.int rng n_services in
      let env = Service.env f.services.(si) in
      let args = [ Value.Id (Principal.id p) ] in
      if Env.check env "flag" args then Env.retract_fact env "flag" args
      else Env.assert_fact env "flag" args
  | 8 ->
      (* revoke a random active RMC at a random service *)
      let si = Rng.int rng n_services in
      (match Service.active_roles f.services.(si) with
      | [] -> ()
      | roles ->
          let cert_id, _, _, _ = Rng.pick rng roles in
          ignore (Service.revoke_certificate f.services.(si) cert_id ~reason:"random rmc kill"))
  | _ ->
      (* let things settle mid-sequence *)
      World.settle f.world

(* One principal's currently valid appointment kinds, per the authority. *)
let valid_kinds f p =
  List.filter_map
    (fun (a : Appointment.t) -> if Civ.is_valid f.civ a.Appointment.id then Some a.kind else None)
    (Principal.appointments p)

let active_by_role f si =
  List.fold_left
    (fun acc (_, role, _, principal) -> (role, principal) :: acc)
    []
    (Service.active_roles f.services.(si))

let check_invariants f =
  World.settle f.world;
  World.settle f.world;
  (* two horizons: cascades triggered in the first settle finish in the second *)
  for si = 0 to n_services - 1 do
    let active = active_by_role f si in
    let has role principal =
      List.exists (fun (r, p) -> String.equal r role && Ident.equal p principal) active
    in
    List.iter
      (fun (role, principal) ->
        let p =
          Array.to_list f.principals
          |> List.find_opt (fun p -> Ident.equal (Principal.id p) principal)
        in
        match p with
        | None -> Alcotest.failf "active role for unknown principal %s" (Ident.to_string principal)
        | Some p ->
            (* I2: dependency chains *)
            if String.length role >= 3 && String.sub role 0 3 = "mid" then begin
              if not (has (Printf.sprintf "base%d" si) principal) then
                Alcotest.failf "I2 violated: %s active without base%d for %s" role si
                  (Principal.name p)
            end;
            if String.length role >= 3 && String.sub role 0 3 = "top" then begin
              if not (has (Printf.sprintf "mid%d" si) principal) then
                Alcotest.failf "I2 violated: %s active without mid%d" role si;
              (* I3: the environmental flag must hold *)
              if
                not
                  (Env.check (Service.env f.services.(si)) "flag" [ Value.Id principal ])
              then Alcotest.failf "I3 violated: %s active with flag retracted" role
            end;
            (* I1: base roles require a live supporting appointment *)
            if String.length role >= 4 && String.sub role 0 4 = "base" then begin
              let needed = f.kinds.(si mod n_kinds) in
              if not (List.mem needed (valid_kinds f p)) then
                Alcotest.failf "I1 violated: base%d active for %s without valid %s" si
                  (Principal.name p) needed
            end)
      active;
    (* I4: bookkeeping *)
    let st = Service.stats f.services.(si) in
    let granted =
      st.Service.activations_granted + st.Service.invocations_granted
      + st.Service.appointments_granted
    in
    let logged = List.length (Fixtures.grants f.services.(si)) in
    if granted <> logged then
      Alcotest.failf "I4 violated at svc%d: %d granted vs %d Grant records" si granted logged;
    if List.length (Service.active_roles f.services.(si)) > st.Service.activations_granted then
      Alcotest.fail "I4 violated: more active roles than grants"
  done

let summary f =
  let buffer = Buffer.create 256 in
  for si = 0 to n_services - 1 do
    let st = Service.stats f.services.(si) in
    Buffer.add_string buffer
      (Printf.sprintf "svc%d[+%d -%d act:%d rev:%d] " si st.Service.activations_granted
         st.Service.activations_denied
         (List.length (Service.active_roles f.services.(si)))
         st.Service.revocations)
  done;
  Buffer.contents buffer

let run_scenario seed =
  let f = build seed in
  let rng = Rng.create (seed * 7919) in
  World.settle f.world;
  for _ = 1 to n_actions do
    random_action f rng
  done;
  check_invariants f;
  summary f

let test_random_worlds () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:25 ~name:"random world invariants" QCheck.(int_range 1 10_000)
       (fun seed ->
         ignore (run_scenario seed);
         true))

let test_determinism () =
  (* I5: identical seeds, identical traces — and the traces show real
     activity (guards against the invariants passing vacuously). *)
  List.iter
    (fun seed ->
      let a = run_scenario seed and b = run_scenario seed in
      Alcotest.(check string) (Printf.sprintf "seed %d deterministic" seed) a b;
      let digits = String.to_seq a |> Seq.filter (fun c -> c >= '1' && c <= '9') in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d produced activity: %s" seed a)
        true
        (Seq.length digits > 4))
    [ 11; 42; 1234 ]

let suite =
  ( "invariants",
    [
      Alcotest.test_case "random worlds (qcheck)" `Slow test_random_worlds;
      Alcotest.test_case "determinism" `Quick test_determinism;
    ] )
