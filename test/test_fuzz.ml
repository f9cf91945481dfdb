(* Property-driven scenario fuzzer: the static analyzer and the live engine
   keep each other honest (ISSUE 7, extending the PR 5 chaos harness).

   Each seed generates a random world — services with random Horn policies
   (prerequisite roles, appointment conditions incl. cross-service kinds
   issued through appoint rules, negated environmental facts), a random set
   of asserted facts and a random wallet — then checks, with every fact
   predicate PINNED to its current truth:

     C1 (exactness): the set of roles a live principal can activate, given
        greedy self-appointment through the real Service/Solve engine,
        equals the analyzer's Reachable set exactly. A concrete activation
        the analyzer calls unreachable means the analyzer is unsound; an
        analyzer-reachable goal the engine refuses means it is incomplete
        (or the engine is broken) — either way a test failure.

     C2 (witnesses execute): for every Reachable goal, Reach.plan of its
        witness replays step by step against a fresh principal holding the
        same wallet, and every step is granted.

     C3 (two-valuedness): with all facts pinned and no timed built-ins in
        the generated grammar, no verdict may be Env_contingent.

   After the initial closure the fuzzer random-walks the world — fact
   flips, appointment revocations (CIV-issued and self-issued both) — and
   re-checks C1 against the surviving wallet each step, so the analyzer is
   also exercised against credential loss and environment drift.

   A diagnostic-stability property rides along: analyzer verdicts must
   survive printing the policy and re-parsing it (mirroring the PR 2 lint
   property). *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Civ = Oasis_domain.Civ
module Env = Oasis_policy.Env
module Parser = Oasis_policy.Parser
module Lint = Oasis_policy.Lint
module Reach = Oasis_policy.Reach
module Rng = Oasis_util.Rng
module Value = Oasis_util.Value
module Appointment = Oasis_cert.Appointment

(* ---------------- world specs ---------------- *)

type svc_spec = {
  sv_name : string;
  sv_roles : string list;
  sv_kind : string;  (* the one kind this service issues via an appoint rule *)
  sv_env : string list;  (* fact predicates, unique names across services *)
  sv_policy : string;
}

type spec = {
  services : svc_spec list;
  civ_kinds : string list;
  wallet : string list;  (* CIV kinds granted to the principal up front *)
  facts : (string * string) list;  (* (service, predicate) asserted true *)
  seed : int;
}

let pick rng l = List.nth l (Rng.int rng (List.length l))
let chance rng p = Rng.float rng 1.0 < p

(* Generates one service's policy text. All roles and kinds are arity 1
   over the single variable u (bound by every credential condition), so
   the generated rules always pass the strict-install lint gate. *)
let gen_service rng ~index ~all prior_roles =
  let sv_name = Printf.sprintf "s%d" index in
  let n_roles = 2 + Rng.int rng 3 in
  let sv_roles = List.init n_roles (fun i -> Printf.sprintf "%s_r%d" sv_name i) in
  let sv_kind = Printf.sprintf "%s_k" sv_name in
  let sv_env = List.init 2 (fun i -> Printf.sprintf "%s_e%d" sv_name i) in
  let buf = Buffer.create 256 in
  let all_roles () = prior_roles @ List.mapi (fun i r -> (sv_name, r, i)) sv_roles in
  List.iteri
    (fun j role ->
      let initial = j = 0 || chance rng 0.3 in
      let conds = ref [] in
      let add c = conds := c :: !conds in
      let star () = if chance rng 0.6 then "*" else "" in
      let appt_cond ~grounded =
        (* [grounded] biases towards CIV kinds the wallet may hold, so
           derivations get off the ground; otherwise bias towards kinds a
           service issues through its appoint rule, so chains form. *)
        let service_kind () =
          if chance rng 0.5 then Printf.sprintf "%sappt:%s(u)" (star ()) sv_kind
          else
            let osvc = Printf.sprintf "s%d" (Rng.int rng all) in
            Printf.sprintf "%sappt:%s_k(u)@%s" (star ()) osvc osvc
        in
        let civ_kind () = Printf.sprintf "%sappt:ck%d(u)@civ" (star ()) (Rng.int rng 3) in
        if chance rng (if grounded then 0.75 else 0.35) then civ_kind ()
        else service_kind ()
      in
      (* every rule needs >= 1 credential condition to bind u *)
      if initial then add (appt_cond ~grounded:true)
      else begin
        (match Rng.int rng 3 with
        | 0 -> add (appt_cond ~grounded:false)
        | _ ->
            (* a prerequisite role; bias towards earlier roles so plenty of
               worlds stay derivable, but allow forward/self edges (cycles)
               so the fixpoint gets exercised *)
            let candidates = all_roles () in
            let earlier = List.filter (fun (_, _, i) -> i < j) candidates in
            let pool = if earlier <> [] && chance rng 0.7 then earlier else candidates in
            let psvc, prole, _ = pick rng pool in
            add
              (if String.equal psvc sv_name then Printf.sprintf "%s%s(u)" (star ()) prole
               else Printf.sprintf "%s%s(u)@%s" (star ()) prole psvc));
        if chance rng 0.4 then add (appt_cond ~grounded:false)
      end;
      if chance rng 0.6 then begin
        let pred = pick rng sv_env in
        let neg = if chance rng 0.3 then "!" else "" in
        add (Printf.sprintf "%senv:%s%s(1)" (star ()) neg pred)
      end;
      Buffer.add_string buf
        (Printf.sprintf "%s%s(u) <- %s;\n"
           (if initial then "initial " else "")
           role
           (String.concat ", " (List.rev !conds))))
    sv_roles;
  (* the appoint rule for this service's own kind, sometimes env-gated;
     usually issued from the first role (the most reachable one) so that
     appointment chains actually occur in generated worlds *)
  Buffer.add_string buf
    (Printf.sprintf "appoint %s(u) <- %s(u)%s;\n" sv_kind
       (if chance rng 0.7 then List.hd sv_roles else pick rng sv_roles)
       (if chance rng 0.3 then Printf.sprintf ", env:%s(1)" (pick rng sv_env) else ""));
  { sv_name; sv_roles; sv_kind; sv_env; sv_policy = Buffer.contents buf }

let gen_spec seed =
  let rng = Rng.create ((seed * 2654435761) lxor 0x51ed270b) in
  let all = 2 + Rng.int rng 2 in
  let services =
    let rec go i prior acc =
      if i = all then List.rev acc
      else
        let sv = gen_service rng ~index:i ~all prior in
        let prior = prior @ List.mapi (fun k r -> (sv.sv_name, r, k)) sv.sv_roles in
        go (i + 1) prior (sv :: acc)
    in
    go 0 [] []
  in
  let civ_kinds = [ "ck0"; "ck1"; "ck2" ] in
  let wallet = List.filter (fun _ -> chance rng 0.55) civ_kinds in
  let facts =
    List.concat_map
      (fun sv -> List.filter_map (fun p -> if chance rng 0.5 then Some (sv.sv_name, p) else None) sv.sv_env)
      services
  in
  { services; civ_kinds; wallet; facts; seed }

(* ---------------- the live world ---------------- *)

type live = {
  world : World.t;
  civ : Civ.t;
  by_name : (string * Service.t) list;
  p : Principal.t;
  mutable fact_state : ((string * string) * bool) list;
}

let build spec =
  let world = World.create ~seed:spec.seed () in
  let civ = Civ.create world ~name:"civ" () in
  let by_name =
    List.map
      (fun sv ->
        let service = Service.create world ~name:sv.sv_name ~policy:sv.sv_policy () in
        List.iter (fun pred -> Env.declare_fact (Service.env service) pred) sv.sv_env;
        (sv.sv_name, service))
      spec.services
  in
  let fact_state =
    List.concat_map
      (fun sv ->
        List.map
          (fun pred -> ((sv.sv_name, pred), List.mem (sv.sv_name, pred) spec.facts))
          sv.sv_env)
      spec.services
  in
  List.iter
    (fun ((svc, pred), on) ->
      if on then Env.assert_fact (Service.env (List.assoc svc by_name)) pred [ Value.Int 1 ])
    fact_state;
  let p = Principal.create world ~name:"fuzz" in
  List.iter
    (fun kind ->
      let appt =
        Civ.issue civ ~kind
          ~args:[ Value.Id (Principal.id p) ]
          ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ()
      in
      Principal.grant_appointment p appt)
    spec.wallet;
  { world; civ; by_name; p; fact_state }

(* ---------------- analyzer inputs from live state ---------------- *)

let world_policy spec =
  Lint.
    {
      s_name = "civ";
      s_activations = [];
      s_authorizations = [];
      s_appointers = [];
      s_extra_kinds = spec.civ_kinds;
    }
  :: List.map
       (fun sv -> Lint.of_statements ~name:sv.sv_name (Parser.parse_exn sv.sv_policy))
       spec.services

let pins_of live =
  List.map (fun ((_, pred), on) -> (pred, on)) live.fact_state

(* The wallet as the analyzer sees it: every appointment certificate the
   principal still holds whose issuer still vouches for it. *)
let issuer_name live (id : Oasis_util.Ident.t) =
  if Oasis_util.Ident.equal id (Civ.id live.civ) then Some "civ"
  else
    List.find_map
      (fun (name, s) -> if Oasis_util.Ident.equal id (Service.id s) then Some name else None)
      live.by_name

let valid_wallet live principal =
  List.filter_map
    (fun (a : Appointment.t) ->
      match issuer_name live a.Appointment.issuer with
      | Some "civ" when Civ.is_valid live.civ a.Appointment.id -> Some ("civ", a.Appointment.kind)
      | Some name
        when name <> "civ"
             && Service.is_valid_certificate (List.assoc name live.by_name) a.Appointment.id ->
          Some (name, a.Appointment.kind)
      | _ -> None)
    (Principal.appointments principal)

(* ---------------- concrete closure (the live fixpoint) ---------------- *)

(* Greedy closure: keep trying every activation and every self-appointment
   until nothing new is granted. Returns the set of roles activated. *)
let concrete_closure live spec principal =
  let session = World.run_proc live.world (fun () -> Principal.start_session principal) in
  let active = Hashtbl.create 16 in
  let appointed = Hashtbl.create 8 in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun sv ->
        let service = List.assoc sv.sv_name live.by_name in
        List.iter
          (fun role ->
            if not (Hashtbl.mem active (sv.sv_name, role)) then
              World.run_proc live.world (fun () ->
                  match Principal.activate principal session service ~role () with
                  | Ok _ ->
                      Hashtbl.replace active (sv.sv_name, role) ();
                      progress := true
                  | Error _ -> ()))
          sv.sv_roles;
        if not (Hashtbl.mem appointed sv.sv_kind) then
          World.run_proc live.world (fun () ->
              match
                Principal.appoint principal session service ~kind:sv.sv_kind
                  ~args:[ Value.Id (Principal.id principal) ]
                  ~holder:principal ()
              with
              | Ok _ ->
                  Hashtbl.replace appointed sv.sv_kind ();
                  progress := true
              | Error _ -> ()))
      spec.services
  done;
  Hashtbl.fold (fun k () acc -> k :: acc) active [] |> List.sort compare

(* ---------------- the cross-check ---------------- *)

let reachable_set result =
  List.filter_map
    (fun g ->
      match g.Reach.g_verdict with
      | Reach.Reachable -> Some (g.Reach.g_service, g.Reach.g_role)
      | _ -> None)
    result.Reach.goals

let check_exactness ~what live spec principal =
  let wp = world_policy spec in
  let adversary =
    { Reach.held_appointments = valid_wallet live principal; held_roles = [] }
  in
  let result = Reach.analyse ~adversary ~pins:(pins_of live) wp in
  List.iter
    (fun g ->
      if g.Reach.g_verdict = Reach.Env_contingent then
        Alcotest.failf "seed %d %s: %s@%s env-contingent under full pinning" spec.seed what
          g.Reach.g_role g.Reach.g_service)
    result.Reach.goals;
  let symbolic = List.sort compare (reachable_set result) in
  let concrete = concrete_closure live spec principal in
  if symbolic <> concrete then begin
    let show set =
      String.concat ", " (List.map (fun (s, r) -> Printf.sprintf "%s@%s" r s) set)
    in
    Alcotest.failf "seed %d %s: analyzer and engine diverge\n  symbolic : %s\n  concrete : %s"
      spec.seed what (show symbolic) (show concrete)
  end;
  result

let replay_witnesses live spec result =
  (* A fresh principal with the same CIV wallet executes each Reachable
     witness plan; every step must be granted. *)
  let q = Principal.create live.world ~name:(Printf.sprintf "replay%d" spec.seed) in
  List.iter
    (fun kind ->
      let appt =
        Civ.issue live.civ ~kind
          ~args:[ Value.Id (Principal.id q) ]
          ~holder:(Principal.id q) ~holder_key:(Principal.longterm_public q) ()
      in
      Principal.grant_appointment q appt)
    spec.wallet;
  List.iter
    (fun g ->
      match (g.Reach.g_verdict, g.Reach.g_witness) with
      | Reach.Reachable, Some w ->
          let session = World.run_proc live.world (fun () -> Principal.start_session q) in
          List.iter
            (fun step ->
              World.run_proc live.world (fun () ->
                  match step with
                  | Reach.Activate { service; role } -> (
                      let s = List.assoc service live.by_name in
                      match Principal.activate q session s ~role () with
                      | Ok _ -> ()
                      | Error d ->
                          Alcotest.failf
                            "seed %d: witness step activate %s@%s refused by the engine (%s)"
                            spec.seed role service
                            (Oasis_core.Protocol.denial_to_string d))
                  | Reach.Self_appoint { issuer; kind } -> (
                      let s = List.assoc issuer live.by_name in
                      match
                        Principal.appoint q session s ~kind
                          ~args:[ Value.Id (Principal.id q) ]
                          ~holder:q ()
                      with
                      | Ok _ -> ()
                      | Error d ->
                          Alcotest.failf
                            "seed %d: witness step appoint %s@%s refused by the engine (%s)"
                            spec.seed kind issuer
                            (Oasis_core.Protocol.denial_to_string d))))
            (Reach.plan w)
      | _ -> ())
    result.Reach.goals

(* Random walk: flip facts and revoke appointments, then re-check. *)
let walk live spec rng steps =
  for step = 1 to steps do
    (match Rng.int rng 3 with
    | 0 | 1 -> (
        (* flip a random fact *)
        match live.fact_state with
        | [] -> ()
        | fs ->
            let (svc, pred), on = pick rng fs in
            let env = Service.env (List.assoc svc live.by_name) in
            if on then Env.retract_fact env pred [ Value.Int 1 ]
            else Env.assert_fact env pred [ Value.Int 1 ];
            live.fact_state <-
              List.map
                (fun ((k, v) as e) -> if k = (svc, pred) then (k, not v) else e)
                fs)
    | _ -> (
        (* revoke a random still-valid appointment (CIV- or self-issued) *)
        let valid =
          List.filter
            (fun (a : Appointment.t) ->
              match issuer_name live a.Appointment.issuer with
              | Some "civ" -> Civ.is_valid live.civ a.Appointment.id
              | Some name -> Service.is_valid_certificate (List.assoc name live.by_name) a.Appointment.id
              | None -> false)
            (Principal.appointments live.p)
        in
        match valid with
        | [] -> ()
        | certs -> (
            let a = pick rng certs in
            match issuer_name live a.Appointment.issuer with
            | Some "civ" -> ignore (Civ.revoke live.civ a.Appointment.id ~reason:"fuzz walk")
            | Some name ->
                ignore
                  (Service.revoke_certificate (List.assoc name live.by_name) a.Appointment.id
                     ~reason:"fuzz walk")
            | None -> ())));
    World.run_until live.world (World.now live.world +. 2.0);
    ignore (check_exactness ~what:(Printf.sprintf "walk step %d" step) live spec live.p)
  done

let run_seed seed =
  let spec = gen_spec seed in
  let live = build spec in
  let result = check_exactness ~what:"initial closure" live spec live.p in
  replay_witnesses live spec result;
  let rng = Rng.create ((seed * 40503) lxor 0x2545f491) in
  walk live spec rng 4

let n_seeds = 48

let test_cross_check () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:n_seeds
       ~name:"symbolic reachability == live engine closure (+witness replay)"
       QCheck.(int_range 1 1_000_000)
       (fun seed ->
         run_seed seed;
         true))

(* Vacuity guard: the generator must actually produce worlds where the
   interesting machinery fires — chained appointments, negation, denials. *)
let test_generator_not_vacuous () =
  let reachable = ref 0 and unreachable = ref 0 and chains = ref 0 and negs = ref 0 in
  for seed = 1 to 40 do
    let spec = gen_spec seed in
    List.iter
      (fun sv ->
        String.iter (fun c -> if c = '!' then incr negs) sv.sv_policy)
      spec.services;
    let wp = world_policy spec in
    let adversary =
      { Reach.held_appointments = List.map (fun k -> ("civ", k)) spec.wallet; held_roles = [] }
    in
    let pins =
      List.concat_map
        (fun sv -> List.map (fun p -> (p, List.mem (sv.sv_name, p) spec.facts)) sv.sv_env)
        spec.services
    in
    let result = Reach.analyse ~adversary ~pins wp in
    List.iter
      (fun g ->
        (match g.Reach.g_verdict with
        | Reach.Reachable -> incr reachable
        | Reach.Unreachable -> incr unreachable
        | Reach.Env_contingent -> ());
        let rec count_chains = function
          | Reach.Held _ -> ()
          | Reach.Fired { premises; _ } ->
              List.iter
                (function
                  | Reach.Role_premise w -> count_chains w
                  | Reach.Appointment_premise { via = Some w; _ } ->
                      incr chains;
                      count_chains w
                  | Reach.Appointment_premise _ | Reach.Env_premise _ -> ())
                premises
        in
        Option.iter count_chains g.Reach.g_witness)
      result.Reach.goals
  done;
  Alcotest.(check bool)
    (Printf.sprintf "generator exercises the machinery (%d reachable, %d unreachable, %d chains, %d negations)"
       !reachable !unreachable !chains !negs)
    true
    (!reachable > 20 && !unreachable > 20 && !chains > 3 && !negs > 3)

(* Verdicts are stable under print -> re-parse of every policy (the same
   diagnostic-stability property PR 2 proves for lint findings). *)
let test_print_reparse_stability () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:30 ~name:"reach verdicts survive print->re-parse"
       QCheck.(int_range 1 1_000_000)
       (fun seed ->
         let spec = gen_spec seed in
         let adversary =
           { Reach.held_appointments = List.map (fun k -> ("civ", k)) spec.wallet; held_roles = [] }
         in
         let verdicts wp =
           List.map
             (fun g -> (g.Reach.g_service, g.Reach.g_role, g.Reach.g_verdict))
             (Reach.analyse ~adversary wp).Reach.goals
         in
         let original = world_policy spec in
         let reprinted =
           Lint.
             {
               s_name = "civ";
               s_activations = [];
               s_authorizations = [];
               s_appointers = [];
               s_extra_kinds = spec.civ_kinds;
             }
           :: List.map
                (fun sv ->
                  let statements = Parser.parse_exn sv.sv_policy in
                  let printed = Parser.print statements in
                  Lint.of_statements ~name:sv.sv_name (Parser.parse_exn printed))
                spec.services
         in
         if verdicts original <> verdicts reprinted then
           QCheck.Test.fail_reportf "seed %d: verdicts changed after print->re-parse" seed;
         true))

let test_deterministic () =
  (* Same seed, same divergence-free run — twice. Cheap replay guard. *)
  run_seed 11;
  run_seed 11

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "analyzer vs engine cross-check (qcheck)" `Slow test_cross_check;
      Alcotest.test_case "generator is not vacuous" `Quick test_generator_not_vacuous;
      Alcotest.test_case "print->re-parse verdict stability (qcheck)" `Quick
        test_print_reparse_stability;
      Alcotest.test_case "fuzz runs are deterministic" `Quick test_deterministic;
    ] )
