(* Symbolic goal-reachability: adversarial verdicts, witness plans and the
   R-rule findings (lib/policy/reach.ml). The cross-check against the live
   engine lives in test_fuzz.ml; these are the analyzer's own edge cases. *)

module Reach = Oasis_policy.Reach
module Lint = Oasis_policy.Lint
module Parser = Oasis_policy.Parser

let policy name ?kinds src =
  Lint.of_statements ~name ?extra_kinds:kinds (Parser.parse_exn src)

let verdict_t : Reach.verdict Alcotest.testable =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Reach.verdict_to_string v))
    ( = )

let verdict ?adversary ?pins world ~service ~role =
  let result = Reach.analyse ?adversary ?pins world in
  match Reach.goal_for result ~service ~role with
  | Some g -> g.Reach.g_verdict
  | None -> Alcotest.failf "goal %s@%s not in result" role service

let privilege_verdict result ~service ~privilege =
  match
    List.find_opt
      (fun p -> String.equal p.Reach.p_service service && String.equal p.Reach.p_privilege privilege)
      result.Reach.privileges
  with
  | Some p -> p.Reach.p_verdict
  | None -> Alcotest.failf "privilege %s@%s not in result" privilege service

let dangling_codes world = List.map (fun f -> f.Lint.code) (Lint.dangling world)

let test_empty_wallet_unreachable () =
  let world = [ policy "h" "initial logged_in(u) <- appt:employee(u);" ] in
  Alcotest.check verdict_t "empty wallet" Reach.Unreachable
    (verdict world ~service:"h" ~role:"logged_in");
  Alcotest.check verdict_t "held employee"
    Reach.Reachable
    (verdict
       ~adversary:{ Reach.held_appointments = [ ("h", "employee") ]; held_roles = [] }
       world ~service:"h" ~role:"logged_in");
  (* A partial wallet restricts reachability: without qualified (which no
     appoint rule issues) doctor stays out of reach, and nothing dangles. *)
  let hospital =
    [
      policy "hospital" ~kinds:[ "employee"; "qualified" ]
        {|
          initial logged_in(u) <- appt:employee(u);
          doctor(u) <- *logged_in(u), appt:qualified(u);
        |};
    ]
  in
  let adversary = { Reach.held_appointments = [ ("hospital", "employee") ]; held_roles = [] } in
  Alcotest.check verdict_t "held employee: logged_in" Reach.Reachable
    (verdict ~adversary hospital ~service:"hospital" ~role:"logged_in");
  Alcotest.check verdict_t "held employee: no doctor" Reach.Unreachable
    (verdict ~adversary hospital ~service:"hospital" ~role:"doctor");
  Alcotest.(check (list string)) "nothing dangles" [] (dangling_codes hospital)

let test_appointment_chain () =
  (* The adversary holds only is_admin, but hr_admin can self-issue
     employee — the chain the naive analysis misses. *)
  let world =
    [
      policy "h"
        {|
          initial hr_admin(a) <- appt:is_admin(a);
          initial logged_in(u) <- appt:employee(u);
          appoint employee(u) <- hr_admin(_a);
        |};
    ]
  in
  let adversary = { Reach.held_appointments = [ ("h", "is_admin") ]; held_roles = [] } in
  Alcotest.check verdict_t "chained" Reach.Reachable
    (verdict ~adversary world ~service:"h" ~role:"logged_in");
  (* The witness must record the chain, and its plan must order the
     self-appointment after the issuing role and before the goal. *)
  let result = Reach.analyse ~adversary world in
  let g = Option.get (Reach.goal_for result ~service:"h" ~role:"logged_in") in
  let steps = Reach.plan (Option.get g.Reach.g_witness) in
  Alcotest.(check (list string)) "plan order"
    [ "activate hr_admin@h"; "appoint employee@h"; "activate logged_in@h" ]
    (List.map
       (function
         | Reach.Activate { service; role } -> Printf.sprintf "activate %s@%s" role service
         | Reach.Self_appoint { issuer; kind } -> Printf.sprintf "appoint %s@%s" kind issuer)
       steps)

let test_chain_cycle () =
  (* x needs appointment k; k is only appointable from x: a cycle through
     the appointment chain. Nothing is derivable from an empty wallet, but
     holding k breaks the knot. *)
  let world =
    [
      policy "s"
        {|
          x(u) <- appt:k(u);
          appoint k(u) <- x(u);
        |};
    ]
  in
  Alcotest.check verdict_t "cycle unreachable" Reach.Unreachable
    (verdict world ~service:"s" ~role:"x");
  Alcotest.check verdict_t "held k breaks the cycle" Reach.Reachable
    (verdict
       ~adversary:{ Reach.held_appointments = [ ("s", "k") ]; held_roles = [] }
       world ~service:"s" ~role:"x")

let test_prereq_cycle_unsolved () =
  (* Mutual prerequisites: lint flags the cycle; the fixpoint must refuse
     to treat it as reachable. *)
  let world = [ policy "s" "x(u) <- y(u); y(u) <- x(u);" ] in
  Alcotest.check verdict_t "x" Reach.Unreachable (verdict world ~service:"s" ~role:"x");
  Alcotest.check verdict_t "y" Reach.Unreachable (verdict world ~service:"s" ~role:"y");
  (* An insider holding one of them as an RMC unlocks the other. *)
  Alcotest.check verdict_t "insider"
    Reach.Reachable
    (verdict
       ~adversary:{ Reach.held_appointments = []; held_roles = [ ("s", "x") ] }
       world ~service:"s" ~role:"y");
  (* A two-role cycle beside an initial role, and a self-loop: every member
     is dead under the permissive wallet and gets its own R002, located at
     its rule; the initial role does not. *)
  let r002_lines world =
    List.filter_map
      (fun f -> if f.Lint.code = "R002" then Some (f.Lint.service, f.Lint.loc.Oasis_policy.Rule.line) else None)
      (Reach.findings world)
  in
  let cycle = [ policy "a" "initial seed <- env:eq(1, 1);\nx(u) <- y(u);\ny(u) <- x(u);" ] in
  Alcotest.(check (list (pair string int))) "R002 per cycle member" [ ("a", 2); ("a", 3) ]
    (r002_lines cycle);
  Alcotest.check verdict_t "seed" Reach.Reachable
    (verdict ~adversary:(Reach.permissive cycle) cycle ~service:"a" ~role:"seed");
  let self_loop = [ policy "a" "x(u) <- x(u);" ] in
  Alcotest.(check (list (pair string int))) "R002 on the self-loop" [ ("a", 1) ]
    (r002_lines self_loop)

let test_env_three_valued () =
  let world =
    [ policy "s" ~kinds:[ "k" ] "r(u) <- appt:k(u), env:!excluded(u, u);" ]
  in
  let adversary = { Reach.held_appointments = [ ("s", "k") ]; held_roles = [] } in
  Alcotest.check verdict_t "free negation is contingent" Reach.Env_contingent
    (verdict ~adversary world ~service:"s" ~role:"r");
  Alcotest.check verdict_t "pinned-false negation holds" Reach.Reachable
    (verdict ~adversary ~pins:[ ("excluded", false) ] world ~service:"s" ~role:"r");
  Alcotest.check verdict_t "pinned-true negation blocks" Reach.Unreachable
    (verdict ~adversary ~pins:[ ("excluded", true) ] world ~service:"s" ~role:"r");
  (* The contingent witness records the assumption with its polarity. *)
  let result = Reach.analyse ~adversary world in
  let g = Option.get (Reach.goal_for result ~service:"s" ~role:"r") in
  Alcotest.(check (list (pair string bool)))
    "assumption recorded" [ ("excluded", false) ] g.Reach.g_assumptions

let test_pure_builtins_decided () =
  let world =
    [
      policy "s"
        {|
          initial always <- env:eq(1, 1);
          initial never <- env:eq(1, 2);
          initial nocturnal <- env:hour_between(20, 8);
        |};
    ]
  in
  Alcotest.check verdict_t "eq(1,1) decided true" Reach.Reachable
    (verdict world ~service:"s" ~role:"always");
  Alcotest.check verdict_t "eq(1,2) decided false" Reach.Unreachable
    (verdict world ~service:"s" ~role:"never");
  Alcotest.check verdict_t "timed builtin stays contingent" Reach.Env_contingent
    (verdict world ~service:"s" ~role:"nocturnal");
  (* A free, non-built-in constraint is an assumption, not a dead end: the
     role is env-contingent under the permissive wallet and no R002 fires. *)
  let gated = [ policy "a" "initial gated <- env:impossible(1);" ] in
  Alcotest.check verdict_t "free constraint is contingent" Reach.Env_contingent
    (verdict ~adversary:(Reach.permissive gated) gated ~service:"a" ~role:"gated");
  Alcotest.(check bool) "no R002" false
    (List.exists (fun f -> f.Lint.code = "R002") (Reach.findings gated))

let test_dangling_references () =
  (* Multi-service danglers: unknown service, unknown role, unknown kind —
     all must read as unreachable rather than crash or over-approximate. *)
  let a =
    policy "a"
      {|
        r1(u) <- ghost(u)@nowhere;
        r2(u) <- real(u)@b;
        r3(u) <- appt:unissued(u)@b;
      |}
  in
  let b = policy "b" "initial other <- env:eq(1, 1);" in
  let world = [ a; b ] in
  let adversary = Reach.permissive world in
  List.iter
    (fun role ->
      Alcotest.check verdict_t (role ^ " dangling") Reach.Unreachable
        (verdict ~adversary world ~service:"a" ~role))
    [ "r1"; "r2"; "r3" ];
  Alcotest.(check (list string)) "one finding per dangler" [ "L103"; "L102"; "L104" ]
    (dangling_codes world);
  (* An unknown service and an unknown role in one rule: both reported,
     and the rule's role is dead. *)
  let a = policy "a" "r(u) <- ghost(u)@nowhere, real(u)@b;" in
  let world = [ a; b ] in
  Alcotest.(check (list string)) "L103 and L102" [ "L103"; "L102" ] (dangling_codes world);
  Alcotest.check verdict_t "r dead" Reach.Unreachable
    (verdict ~adversary:(Reach.permissive world) world ~service:"a" ~role:"r")

let test_cross_service_chain () =
  (* The appointment is issued by ANOTHER service, whose appoint rule
     fires from a role reachable there: a chain across services. *)
  let hr = policy "hr" ~kinds:[ "staff_card" ] {|
      initial officer(o) <- appt:staff_card(o);
      appoint employee(u) <- officer(_o);
    |} in
  let hospital = policy "hospital" "initial logged_in(u) <- appt:employee(u)@hr;" in
  let world = [ hr; hospital ] in
  Alcotest.check verdict_t "cross-service chain" Reach.Reachable
    (verdict
       ~adversary:{ Reach.held_appointments = [ ("hr", "staff_card") ]; held_roles = [] }
       world ~service:"hospital" ~role:"logged_in");
  Alcotest.check verdict_t "without the card" Reach.Unreachable
    (verdict world ~service:"hospital" ~role:"logged_in");
  (* A plain cross-service prerequisite under the permissive wallet. *)
  let world =
    [ policy "a" ~kinds:[ "card" ] "initial base(u) <- appt:card(u);"; policy "b" "derived(u) <- base(u)@a;" ]
  in
  let adversary = Reach.permissive world in
  Alcotest.check verdict_t "base@a" Reach.Reachable (verdict ~adversary world ~service:"a" ~role:"base");
  Alcotest.check verdict_t "derived@b" Reach.Reachable
    (verdict ~adversary world ~service:"b" ~role:"derived")

let find_codes findings = List.map (fun f -> f.Lint.code) findings |> List.sort_uniq compare

let test_r001_open_privilege () =
  let world = [ policy "s" "initial open_door <- env:eq(1, 1);" ] in
  let findings = Reach.findings world in
  Alcotest.(check (list string)) "R001 fires" [ "R001" ] (find_codes findings);
  let f = List.hd findings in
  Alcotest.(check string) "error grade" "error" (Lint.severity_to_string f.Lint.severity);
  Alcotest.(check bool) "located" true (f.Lint.loc.Oasis_policy.Rule.line > 0);
  (* Env-gated but credential-free is still open: anyone can wait for the
     environment. The message says which assumptions it rides on. *)
  let contingent = [ policy "s" "initial nightly <- env:hour_between(20, 8);" ] in
  match Reach.findings contingent with
  | [ f ] ->
      Alcotest.(check string) "R001" "R001" f.Lint.code;
      Alcotest.(check bool) "mentions the assumption" true
        (let msg = f.Lint.message in
         let has sub =
           let n = String.length sub and m = String.length msg in
           let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
           go 0
         in
         has "hour_between")
  | fs -> Alcotest.failf "expected one R001, got %d findings" (List.length fs)

let test_r002_dead_grant () =
  let world =
    [ policy "s" ~kinds:[ "k" ] "r(u) <- appt:k(u); dead(u) <- appt:nobody_issues(u);" ]
  in
  let findings = Reach.findings world in
  Alcotest.(check (list string)) "R002 fires" [ "R002" ] (find_codes findings);
  let f = List.hd findings in
  Alcotest.(check bool) "names the dead role" true
    (let has sub =
       let msg = f.Lint.message in
       let n = String.length sub and m = String.length msg in
       let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
       go 0
     in
     has "dead");
  (* Dead roles and dead privileges under the permissive wallet: consultant
     needs a fellowship appointment the hospital cannot issue, so it and the
     privilege it guards are dead, and the kind dangles (L104). *)
  let hospital =
    [
      policy "hospital" ~kinds:[ "employee"; "qualified" ]
        {|
          initial logged_in(u) <- appt:employee(u);
          doctor(u) <- *logged_in(u), appt:qualified(u);
          consultant(u) <- doctor(u), appt:fellowship(u);
          priv read(u) <- doctor(u);
          priv sign(u) <- consultant(u);
        |};
    ]
  in
  let result = Reach.analyse ~adversary:(Reach.permissive hospital) hospital in
  Alcotest.(check (list (pair string string)))
    "verdicts"
    [
      ("consultant", "unreachable"); ("doctor", "reachable"); ("logged_in", "reachable");
    ]
    (List.map (fun g -> (g.Reach.g_role, Reach.verdict_to_string g.Reach.g_verdict)) result.Reach.goals);
  Alcotest.check verdict_t "read grantable" Reach.Reachable
    (privilege_verdict result ~service:"hospital" ~privilege:"read");
  Alcotest.check verdict_t "sign dead" Reach.Unreachable
    (privilege_verdict result ~service:"hospital" ~privilege:"sign");
  Alcotest.(check (list string)) "R002 on consultant" [ "R002" ]
    (List.filter_map
       (fun f -> if f.Lint.code = "R002" then Some f.Lint.code else None)
       (Reach.findings hospital));
  Alcotest.(check (list string)) "fellowship dangles" [ "L104" ] (dangling_codes hospital)

let test_r003_revocation_exempt () =
  (* An UNmonitored appointment guards a role that guards a privilege:
     revoke the appointment and the privilege-holding role survives. *)
  let world =
    [
      policy "s" ~kinds:[ "badge" ]
        {|
          initial operator(u) <- appt:badge(u);
          priv launch(u) <- operator(u);
        |};
    ]
  in
  (match Reach.findings world with
  | [ f ] ->
      Alcotest.(check string) "R003" "R003" f.Lint.code;
      Alcotest.(check string) "warning grade" "warning" (Lint.severity_to_string f.Lint.severity)
  | fs -> Alcotest.failf "expected exactly R003, got %d" (List.length fs));
  (* Starring the appointment silences it. *)
  let starred =
    [
      policy "s" ~kinds:[ "badge" ]
        {|
          initial operator(u) <- *appt:badge(u);
          priv launch(u) <- operator(u);
        |};
    ]
  in
  Alcotest.(check (list string)) "starred is clean" [] (find_codes (Reach.findings starred));
  (* Unmonitored appointments NOT on a path to anything sensitive are
     L202's business, not R003's. *)
  let benign = [ policy "s" ~kinds:[ "badge" ] "initial lobby(u) <- appt:badge(u);" ] in
  Alcotest.(check (list string)) "no sensitive role, no R003" []
    (find_codes (Reach.findings benign))

let test_waivers_apply () =
  let src = {|// lint:allow R003
initial operator(u) <- appt:badge(u);
priv launch(u) <- operator(u);
|} in
  let world = [ policy "s" ~kinds:[ "badge" ] src ] in
  let findings =
    Reach.findings world |> Lint.apply_waivers ~waivers:(Lint.waivers src)
  in
  Alcotest.(check (list string)) "R003 waived" [] (find_codes findings)

let test_json_smoke () =
  let world =
    [ policy "s" ~kinds:[ "k" ] "r(u) <- appt:k(u), env:f(u); dead(u) <- appt:x(u);" ]
  in
  let result = Reach.analyse ~adversary:(Reach.permissive world) world in
  let json = Reach.to_json ~findings:(Reach.findings world) result in
  List.iter
    (fun needle ->
      let has =
        let n = String.length needle and m = String.length json in
        let rec go i = i + n <= m && (String.sub json i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (Printf.sprintf "json contains %s" needle) true has)
    [
      "\"verdict\":\"env-contingent\"";
      "\"verdict\":\"unreachable\"";
      "\"assumptions\":[{\"pred\":\"f\",\"value\":true}]";
      "\"code\":\"R002\"";
      "\"errors\":1";
    ];
  (* The text rendering carries every goal and every privilege. *)
  let world = [ policy "a" "initial r <- env:eq(1, 1);\npriv p <- r;" ] in
  let text = Format.asprintf "%a" Reach.pp_result (Reach.analyse world) in
  List.iter
    (fun needle ->
      let n = String.length needle and m = String.length text in
      let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "text contains %s" needle) true (go 0))
    [ "reachable      r@a"; "reachable      priv p@a" ]

let suite =
  ( "reach",
    [
      Alcotest.test_case "empty wallet" `Quick test_empty_wallet_unreachable;
      Alcotest.test_case "appointment chain + plan" `Quick test_appointment_chain;
      Alcotest.test_case "appointment-chain cycle" `Quick test_chain_cycle;
      Alcotest.test_case "prereq cycle unsolved" `Quick test_prereq_cycle_unsolved;
      Alcotest.test_case "three-valued negation" `Quick test_env_three_valued;
      Alcotest.test_case "pure builtins decided" `Quick test_pure_builtins_decided;
      Alcotest.test_case "dangling references" `Quick test_dangling_references;
      Alcotest.test_case "cross-service chain" `Quick test_cross_service_chain;
      Alcotest.test_case "R001 open privilege" `Quick test_r001_open_privilege;
      Alcotest.test_case "R002 dead grant" `Quick test_r002_dead_grant;
      Alcotest.test_case "R003 revocation exempt" `Quick test_r003_revocation_exempt;
      Alcotest.test_case "waivers apply to R rules" `Quick test_waivers_apply;
      Alcotest.test_case "json smoke" `Quick test_json_smoke;
    ] )
