(* The scenario script runner. *)

module Scenario = Oasis_script.Scenario

let run src =
  match Scenario.run_string src with
  | Ok outcome -> outcome
  | Error e -> Alcotest.failf "scenario error: %a" Scenario.pp_error e

let expect_ok src =
  let outcome = run src in
  if outcome.Scenario.failures <> [] then
    Alcotest.failf "expectations failed:\n%s" (String.concat "\n" outcome.Scenario.failures)

let test_full_flow () =
  expect_ok
    {|
      seed 5
      service hospital {
        initial logged_in(u) <- appt:employee(u)@civ ;
        doctor(u) <- *logged_in(u), *appt:qualified(u)@civ ;
        treating(doc, pat) <- *doctor(doc), *env:assigned(doc, pat), env:!excluded(doc, pat) ;
        priv read(doc, pat) <- treating(doc, pat) ;
      }
      declare hospital assigned
      declare hospital excluded
      principal alice
      grant employee(alice) to alice as emp
      grant qualified(alice) to alice as qual
      session alice s
      activate alice s hospital logged_in expect granted
      activate alice s hospital doctor expect granted
      activate alice s hospital treating expect denied
      fact hospital assigned(alice, 5)
      activate alice s hospital treating expect granted
      invoke alice s hospital read(alice, 5) expect granted
      invoke alice s hospital read(alice, 6) expect denied
      revoke qual
      settle
      expect-active hospital 1
      invoke alice s hospital read(alice, 5) expect denied
      show hospital
    |}

let test_appoint_command () =
  expect_ok
    {|
      service svc {
        initial nurse(n) <- appt:shift(n)@civ ;
        initial doc(d) <- appt:reg(d)@civ ;
        treating(d, pat) <- *doc(d), *appt:alloc(d, pat) ;
        appoint alloc(d, pat) <- nurse(n) ;
      }
      principal niamh
      principal dara
      grant shift(niamh) to niamh
      grant reg(dara) to dara
      session niamh ns
      session dara ds
      activate niamh ns svc nurse expect granted
      activate dara ds svc doc expect granted
      appoint niamh ns svc alloc(dara, 7) to dara as allocation expect granted
      activate dara ds svc treating expect granted
      revoke allocation
      settle
      expect-active svc 2
    |}

let test_pins_and_labels () =
  expect_ok
    {|
      service svc {
        initial member(u, level) <- appt:card(u, level)@civ ;
      }
      principal p
      grant card(p, 1) to p
      grant card(p, 2) to p
      session p s
      activate p s svc member(_, 2) as gold expect granted
      activate p s svc member(_, 3) expect denied
      revoke gold
      settle
      expect-active svc 0
    |}

let test_expiry_and_time () =
  expect_ok
    {|
      service svc {
        initial member(u) <- *appt:card(u)@civ ;
      }
      principal p
      grant card(p) to p expires 100.0
      session p s
      activate p s svc member expect granted
      expect-active svc 1
      run-until 101.0
      settle
      expect-active svc 0
      activate p s svc member expect denied
    |}

let test_logout () =
  expect_ok
    {|
      service svc {
        initial root <- appt:k(u)@civ ;
        leaf <- root ;
      }
      principal p
      grant k(p) to p
      session p s
      activate p s svc root expect granted
      activate p s svc leaf expect granted
      expect-active svc 2
      logout p s
      settle
      expect-active svc 0
    |}

let test_expectation_failures_reported () =
  let outcome =
    run
      {|
        service svc {
          initial r <- env:eq(1, 1) ;
        }
        principal p
        session p s
        activate p s svc r expect denied
        expect-active svc 9
      |}
  in
  Alcotest.(check int) "two failures" 2 (List.length outcome.Scenario.failures)

(* Trust-robustness directives (DESIGN.md §16): half-issuance plus
   anti-entropy heal, the hysteresis hold band, and time decay. *)
let test_trust_churn_directives () =
  expect_ok
    {|
      seed 11
      service gate {
        initial customer(u) <- *appt:account(u)@civ ;
        trusted(u) <- *customer(u), *env:trust_score(u) >= 0.6 ~ 0.15 ;
        priv order(u) <- trusted(u) ;
      }
      principal alice
      principal bob
      grant account(alice) to alice as acct
      session alice s
      activate alice s gate customer expect granted

      # Half-issuance: the registrar crashes between the two wallet
      # filings — exactly one wallet updated.
      interact-crash alice bob fulfilled
      expect-wallet alice == 1
      expect-wallet bob == 0

      # Heal: restart anti-entropy re-delivers the missing half,
      # idempotently (alice's copy is not double-counted).
      fault restart civ
      settle
      expect-wallet alice == 1
      expect-wallet bob == 1

      # Earn trust, activate through the full gate.
      interact alice bob fulfilled
      expect-trust alice >= 0.7
      activate alice s gate trusted expect granted

      # Two breaches: (2+1)/(4+2) = 0.5 — below the grant gate but inside
      # the 0.15 hold band. The role survives; the flap is counted.
      interact alice bob breached fulfilled
      interact alice bob breached fulfilled
      expect-trust alice < 0.6
      expect-active gate 2
      expect-metric trust.flaps_suppressed{service=gate} >= 1

      # Re-activation uses the grant threshold, not the band.
      invoke alice s gate order(alice) expect granted

      # Decay: the score relaxes toward the 0.5 prior, which still sits
      # inside the band — hysteresis keeps the role stable.
      trust-decay 0.05 0.5
      run-until 200.0
      expect-trust alice <= 0.52
      expect-trust alice >= 0.48
      expect-active gate 2
    |}

(* A tight band: decay alone (no new interactions) sinks the score below
   θ - δ, and the periodic re-assessment tick revokes the role. *)
let test_decay_revokes_through_tick () =
  expect_ok
    {|
      seed 3
      service gate {
        initial customer(u) <- *appt:account(u)@civ ;
        trusted(u) <- *customer(u), *env:trust_score(u) >= 0.6 ~ 0.05 ;
      }
      principal alice
      principal bob
      grant account(alice) to alice as acct
      session alice s
      activate alice s gate customer expect granted
      interact alice bob fulfilled
      interact alice bob fulfilled
      expect-trust alice >= 0.7
      activate alice s gate trusted expect granted
      expect-active gate 2
      trust-decay 0.05 0.5
      run-until 100.0
      expect-trust alice < 0.55
      expect-active gate 1
    |}

let expect_error src =
  match Scenario.run_string src with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "expected scenario error for %s" src

let test_errors () =
  expect_error "frobnicate";
  expect_error "activate ghost s svc r";
  expect_error "service s {\n initial r ;";
  (* unterminated *)
  expect_error "principal p\ngrant k(p) p";
  (* missing 'to' *)
  expect_error "seed x";
  expect_error "service s {\n broken policy (((\n}"

let test_seed_must_be_first () =
  expect_error "principal p\nseed 4"

(* The CIV is created with the world, so a signing scheme chosen after the
   world exists would apply to later services only. *)
let test_late_offline_sign_rejected () =
  let script first second =
    Printf.sprintf
      "seed 7\n%s\n%s\nservice hospital {\n  initial logged_in(u) <- *appt:employee(u)@civ ;\n}"
      first second
  in
  expect_ok (script "offline-sign off" "principal alice");
  match Scenario.run_string (script "principal alice" "offline-sign off") with
  | Error e ->
      Alcotest.(check int) "error names the directive's line" 3 e.Scenario.line;
      Alcotest.(check string) "placement error"
        "offline-sign must come before anything else" e.Scenario.message
  | Ok _ -> Alcotest.fail "late offline-sign accepted"

let test_string_and_bool_args () =
  expect_ok
    {|
      service svc {
        initial member(tag, flag) <- appt:card(tag, flag)@civ ;
      }
      principal p
      grant card("gold tier", true) to p
      session p s
      activate p s svc member("gold tier", true) expect granted
      activate p s svc member("silver", true) expect denied
    |}

let test_extract_policies () =
  let src =
    {|
      service a {
        initial base(u) <- appt:card(u)@civ ;
      }
      principal p
      service b {
        derived(u) <- base(u)@a ;
        orphan(u) <- missing(u)@a ;
      }
    |}
  in
  match Scenario.extract_policies src with
  | Error e -> Alcotest.failf "extract: %a" Scenario.pp_error e
  | Ok world ->
      Alcotest.(check int) "civ + two services" 3 (List.length world);
      let module Reach = Oasis_policy.Reach in
      let result = Reach.analyse ~adversary:(Reach.permissive world) world in
      let verdict role =
        Option.map (fun g -> g.Reach.g_verdict) (Reach.goal_for result ~service:"b" ~role)
      in
      Alcotest.(check bool) "derived reachable" true (verdict "derived" = Some Reach.Reachable);
      Alcotest.(check bool) "orphan dead" true (verdict "orphan" = Some Reach.Unreachable);
      Alcotest.(check (list string)) "missing flagged" [ "L102" ]
        (List.map (fun f -> f.Oasis_policy.Lint.code) (Oasis_policy.Lint.dangling world))

let test_extract_reports_policy_errors () =
  match Scenario.extract_policies "service a {\n broken ((( \n}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let suite =
  ( "scenario",
    [
      Alcotest.test_case "full flow" `Quick test_full_flow;
      Alcotest.test_case "appoint command" `Quick test_appoint_command;
      Alcotest.test_case "pins and labels" `Quick test_pins_and_labels;
      Alcotest.test_case "expiry" `Quick test_expiry_and_time;
      Alcotest.test_case "logout" `Quick test_logout;
      Alcotest.test_case "failures reported" `Quick test_expectation_failures_reported;
      Alcotest.test_case "trust churn directives" `Quick test_trust_churn_directives;
      Alcotest.test_case "decay revokes via tick" `Quick test_decay_revokes_through_tick;
      Alcotest.test_case "errors" `Quick test_errors;
      Alcotest.test_case "seed placement" `Quick test_seed_must_be_first;
      Alcotest.test_case "late offline-sign" `Quick test_late_offline_sign_rejected;
      Alcotest.test_case "string/bool args" `Quick test_string_and_bool_args;
      Alcotest.test_case "extract policies" `Quick test_extract_policies;
      Alcotest.test_case "extract errors" `Quick test_extract_reports_policy_errors;
    ] )
