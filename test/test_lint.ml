(* Policy linter: one positive and one negative case per lint rule, the
   install gate, waivers, JSON, and a print/re-parse diagnostic-stability
   property. *)

module Lint = Oasis_policy.Lint
module Parser = Oasis_policy.Parser
module Rule = Oasis_policy.Rule
module Term = Oasis_policy.Term
module Env = Oasis_policy.Env
module World = Oasis_core.World
module Service = Oasis_core.Service
module Value = Oasis_util.Value

let svc ?(name = "svc") ?kinds src = Lint.of_statements ~name ?extra_kinds:kinds (Parser.parse_exn src)

let codes findings = List.map (fun f -> f.Lint.code) findings

let has code findings = List.mem code (codes findings)

let count code findings = List.length (List.filter (String.equal code) (codes findings))

(* ---------------- dataflow ---------------- *)

let test_unbound_head () =
  (* Positive: the head parameter appears in no condition at all. *)
  let f = Lint.check [ svc "initial broken(u) <- env:eq(1, 1);" ] in
  Alcotest.(check int) "L001 reported" 1 (count "L001" f);
  Alcotest.(check bool) "is an error" true
    (List.exists (fun f -> f.Lint.code = "L001" && f.Lint.severity = Lint.Error) f);
  (* Negative: a computed constraint validates the caller-pinned value, and
     credential arguments derive it. *)
  let f =
    Lint.check ~closed:false
      [ svc "initial pinned(u) <- env:eq(u, 10);\ninitial derived(u) <- appt:badge(u)@civ;" ]
  in
  Alcotest.(check bool) "no L001" false (has "L001" f)

let test_singleton_var () =
  (* Positive: a body variable used exactly once is a likely typo. *)
  let f = Lint.check ~closed:false [ svc "appoint allocated(d, p) <- nurse(n)@other;" ] in
  Alcotest.(check int) "L002 reported" 1 (count "L002" f);
  (* Negative: the underscore prefix marks the don't-care. Head variables
     of priv/appoint rules are request-bound and never flagged. *)
  let f = Lint.check ~closed:false [ svc "appoint allocated(d, p) <- nurse(_n)@other;" ] in
  Alcotest.(check bool) "no L002" false (has "L002" f)

let test_nonground_negation () =
  (* Positive: nothing binds [u] before the negation. *)
  let f = Lint.check ~closed:false [ svc "initial risky(u) <- env:!banned(u);" ] in
  Alcotest.(check int) "L003 reported" 1 (count "L003" f);
  (* Negative: the prerequisite binds [u] first (left-to-right), and priv
     arguments are request-bound. *)
  let f =
    Lint.check ~closed:false
      [
        svc
          "safe(u) <- member(u)@other, env:!banned(u);\n\
           priv read(d, p) <- member(d)@other, env:!excluded(d, p);";
      ]
  in
  Alcotest.(check bool) "no L003" false (has "L003" f)

(* ---------------- consistency ---------------- *)

let test_arity_mismatch () =
  (* Positive, all three flavours: definition drift, reference mismatch,
     built-in misuse. *)
  let drift = Lint.check ~closed:false [ svc "r(u) <- appt:k(u)@o;\nr(u, v) <- appt:k(u)@o, appt:j(v)@o;" ] in
  Alcotest.(check bool) "definition drift" true (has "L101" drift);
  let badref =
    Lint.check [ svc "initial base(u) <- env:eq(u, 1);\npriv p(u) <- base(u, u);" ]
  in
  Alcotest.(check bool) "reference mismatch" true (has "L101" badref);
  let badbuiltin = Lint.check ~closed:false [ svc "initial r <- env:before(1, 2);" ] in
  Alcotest.(check bool) "built-in arity" true (has "L101" badbuiltin);
  (* Env fact predicates must be used consistently within one policy. *)
  let factdrift =
    Lint.check ~closed:false
      [ svc "initial a <- env:assigned(1, 2);\ninitial b <- env:assigned(1);" ]
  in
  Alcotest.(check bool) "fact arity drift" true (has "L101" factdrift);
  (* Negative: consistent arities everywhere. *)
  let f =
    Lint.check
      [ svc "initial base(u) <- env:eq(u, 1);\npriv p(u) <- base(u);\ninitial t <- env:before(5);" ]
  in
  Alcotest.(check bool) "no L101" false (has "L101" f)

let test_unknown_role () =
  let f = Lint.check [ svc "initial a <- env:eq(1, 1);\nb(u) <- ghost(u);" ] in
  Alcotest.(check bool) "L102 reported" true (has "L102" f);
  let f = Lint.check [ svc "initial a(u) <- env:eq(u, 1);\nb(u) <- a(u);" ] in
  Alcotest.(check bool) "no L102" false (has "L102" f)

let test_unknown_service () =
  let world = [ svc "r(u) <- staff(u)@partner;" ] in
  Alcotest.(check bool) "L103 in closed world" true (has "L103" (Lint.check world));
  (* Open-world linting of a single file assumes peers resolve. *)
  Alcotest.(check bool) "no L103 open" false (has "L103" (Lint.check ~closed:false world))

let test_unknown_appointment () =
  let f = Lint.check [ svc "initial r(u) <- appt:badge(u);" ] in
  Alcotest.(check bool) "L104 reported" true (has "L104" f);
  (* Negative: declared via extra_kinds (a CIV-style external issuer) or
     defined by an appoint rule. *)
  let f = Lint.check [ svc ~kinds:[ "badge" ] "initial r(u) <- appt:badge(u);" ] in
  Alcotest.(check bool) "no L104 with extra kind" false (has "L104" f);
  let f =
    Lint.check
      [ svc "initial hr(a) <- appt:badge(a);\nappoint badge(u) <- hr(_a);" ]
  in
  Alcotest.(check bool) "no L104 with appoint rule" false (has "L104" f)

(* ---------------- membership / revocation ---------------- *)

let test_unmonitorable_membership () =
  let f = Lint.check ~closed:false [ svc "initial r <- *env:eq(1, 1);" ] in
  Alcotest.(check bool) "L201 on starred pure built-in" true (has "L201" f);
  (* Timed built-ins and fact predicates are monitorable. *)
  let f =
    Lint.check ~closed:false [ svc "initial r <- *env:before(100);\ninitial s(u) <- *env:on_duty(u);" ]
  in
  Alcotest.(check bool) "no L201" false (has "L201" f)

let test_unmonitored_appointment () =
  let f = Lint.check ~closed:false [ svc "initial r(u) <- appt:badge(u)@civ;" ] in
  Alcotest.(check bool) "L202 on unstarred appointment" true (has "L202" f);
  let f = Lint.check ~closed:false [ svc "initial r(u) <- *appt:badge(u)@civ;" ] in
  Alcotest.(check bool) "no L202 when starred" false (has "L202" f)

let test_cascade_depth () =
  let chain =
    svc
      "initial a1 <- env:eq(1, 1);\n\
       a2 <- a1;\na3 <- a2;\na4 <- a3;\na5 <- a4;"
  in
  let depths = Lint.cascade_depths [ chain ] in
  Alcotest.(check (option int)) "a1 depth" (Some 1) (List.assoc_opt ("svc", "a1") depths);
  Alcotest.(check (option int)) "a5 depth" (Some 5) (List.assoc_opt ("svc", "a5") depths);
  let f = Lint.check ~max_cascade_depth:3 [ chain ] in
  Alcotest.(check int) "L203 for a4 and a5" 2 (count "L203" f);
  Alcotest.(check bool) "info severity" true
    (List.for_all (fun f -> f.Lint.severity = Lint.Info)
       (List.filter (fun f -> f.Lint.code = "L203") f));
  (* Under the default threshold (4) only the deepest role is over; cycles
     do not loop the analysis. *)
  Alcotest.(check int) "one L203 at default" 1 (count "L203" (Lint.check [ chain ]));
  let cyclic = svc "x(u) <- y(u);\ny(u) <- x(u);" in
  Alcotest.(check bool) "cycle terminates" true (Lint.cascade_depths [ cyclic ] <> [])

(* ---------------- locations ---------------- *)

let test_locations () =
  let f =
    Lint.check ~closed:false
      [ svc "initial fine <- env:eq(1, 1);\n\ninitial broken(u) <- env:eq(1, 1);" ]
  in
  match List.filter (fun f -> f.Lint.code = "L001") f with
  | [ f ] -> Alcotest.(check int) "line 3" 3 f.Lint.loc.Rule.line
  | other -> Alcotest.failf "expected one L001, got %d" (List.length other)

(* ---------------- install gate ---------------- *)

let test_install_gate_rejects () =
  let world = World.create ~seed:1 () in
  (match
     Service.create world ~name:"bad" ~policy:"initial broken(u) <- env:eq(1, 1);" ()
   with
  | _ -> Alcotest.fail "install-blocking policy accepted"
  | exception Service.Policy_rejected [ f ] ->
      Alcotest.(check string) "L001 blocks" "L001" f.Lint.code
  | exception Service.Policy_rejected _ -> Alcotest.fail "expected a single finding");
  (* Warnings and world-dependent findings do not block: unknown services,
     kinds issued by a CIV, singletons. *)
  let ok =
    Service.create world ~name:"ok"
      ~policy:"initial r(u) <- appt:badge(u)@civ;\nappoint other(u) <- r(_a);" ()
  in
  ignore ok;
  (* The gate guards policy installation only: the same rule added on its
     own is accepted, so the runtime containment path (test_world,
     test_regressions) stays reachable. *)
  let lax = Service.create world ~name:"lax" ~policy:"" () in
  Fixtures.add_unlinted lax "initial broken(u) <- env:eq(1, 1);";
  let p = Oasis_core.Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Oasis_core.Principal.start_session p in
      match Oasis_core.Principal.activate p s lax ~role:"broken" ~args:[ Some (Value.Int 1) ] () with
      | Ok _ -> ()
      | Error d ->
          Alcotest.failf "rule not installed past the gate: %s"
            (Oasis_core.Protocol.denial_to_string d))

let test_install_blocking_classification () =
  let blocking f = Lint.install_blocking f in
  let one src = List.filter blocking (Lint.check ~closed:false [ svc src ]) in
  Alcotest.(check bool) "L003 blocks" true (one "initial r(u) <- env:!banned(u);" <> []);
  Alcotest.(check bool) "L101 blocks" true (one "initial r <- env:before(1, 2);" <> []);
  Alcotest.(check bool) "L202 does not block" true
    (one "initial r(u) <- appt:badge(u)@civ;" = [])

(* ---------------- waivers ---------------- *)

let test_waivers () =
  let src =
    "// lint:allow L202\n\
     initial r(u) <- appt:badge(u)@civ;\n\
     initial s(u) <- appt:badge(u)@civ; // lint:allow L202,L002\n\
     initial t(u) <- appt:badge(u)@civ;"
  in
  let ws = Lint.waivers src in
  Alcotest.(check int) "two waiver comments" 2 (List.length ws);
  Alcotest.(check (list string)) "codes parsed" [ "L202"; "L002" ] (List.assoc 3 ws);
  let findings = Lint.check ~closed:false [ svc src ] in
  Alcotest.(check int) "three L202 before waiving" 3 (count "L202" findings);
  let kept = Lint.apply_waivers ~waivers:ws findings in
  (* Line 2 is waived by the line above, line 3 by its own suffix. *)
  Alcotest.(check int) "one L202 left" 1 (count "L202" kept);
  Alcotest.(check int) "the unwaived line" 4
    (match List.filter (fun f -> f.Lint.code = "L202") kept with
    | [ f ] -> f.Lint.loc.Rule.line
    | _ -> -1)

(* ---------------- JSON ---------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_json () =
  let s = svc "initial broken(u) <- env:eq(1, 1);" in
  let json = Lint.to_json ~depths:(Lint.cascade_depths [ s ]) (Lint.check ~closed:false [ s ]) in
  Alcotest.(check bool) "findings array" true (contains json "\"code\":\"L001\"");
  Alcotest.(check bool) "error count" true (contains json "\"errors\":1");
  Alcotest.(check bool) "depths" true (contains json "\"role\":\"broken\"");
  (* Strings are escaped. *)
  let f =
    {
      Lint.code = "X";
      check = "x";
      severity = Lint.Info;
      service = "a\"b\nc";
      loc = Rule.no_loc;
      message = "";
    }
  in
  Alcotest.(check bool) "escaping" true
    (contains (Lint.to_json [ f ]) "\"service\":\"a\\\"b\\nc\"")

(* ---------------- print / re-parse stability ---------------- *)

(* Generated rules reuse the canonical printer; diagnostics must not depend
   on layout, only on structure. Sources are built with random blank-line
   padding so locations genuinely differ from the canonical print. *)
open QCheck.Gen

let name_gen =
  let+ base = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  "n" ^ base

let var_gen =
  let+ base = string_size ~gen:(char_range 'a' 'z') (int_range 1 4) in
  "v" ^ base

let term_gen =
  oneof
    [
      map (fun v -> Term.Var v) var_gen;
      map (fun n -> Term.Const (Value.Int n)) (int_range 0 99);
    ]

let terms_gen = list_size (int_bound 3) term_gen

let cred_ref_gen =
  let* name = name_gen in
  let* args = terms_gen in
  let* service = opt name_gen in
  return { Rule.service; name; args }

let condition_gen ~allow_prereq =
  let constraint_gen =
    let* negated = bool in
    let* name = name_gen in
    let* args = terms_gen in
    return (Rule.Constraint ((if negated then "!" ^ name else name), args))
  in
  let appointment_gen = map (fun r -> Rule.Appointment r) cred_ref_gen in
  let prereq_gen = map (fun r -> Rule.Prereq r) cred_ref_gen in
  if allow_prereq then oneof [ constraint_gen; appointment_gen; prereq_gen ]
  else oneof [ constraint_gen; appointment_gen ]

let statement_gen =
  let activation =
    let* initial = bool in
    let* role = name_gen in
    let* params = terms_gen in
    let* n = if initial then int_bound 3 else int_range 1 3 in
    let* conditions = list_repeat n (condition_gen ~allow_prereq:(not initial)) in
    let* membership = list_repeat n bool in
    return (Parser.Activation (Rule.activation ~initial ~role ~params (List.combine membership conditions)))
  in
  let authorization appointer =
    let* privilege = name_gen in
    let* priv_args = terms_gen in
    let* required_roles = list_size (int_range 1 3) cred_ref_gen in
    let* constraints =
      list_size (int_bound 2)
        (let* name = name_gen in
         let* args = terms_gen in
         return (name, args))
    in
    let rule = { Rule.privilege; priv_args; required_roles; constraints; loc = Rule.no_loc } in
    return (if appointer then Parser.Appointer rule else Parser.Authorization rule)
  in
  oneof [ activation; authorization false; authorization true ]

let padded_source_gen =
  let* statements = list_size (int_range 1 6) statement_gen in
  let* pads = list_repeat (List.length statements) (int_bound 3) in
  return
    (String.concat ""
       (List.map2
          (fun s p -> String.make (p + 1) '\n' ^ Parser.print_statement s)
          statements pads))

let diagnostics src =
  match Parser.parse src with
  | Error _ -> None
  | Ok statements ->
      Some
        ( statements,
          Lint.check ~closed:false [ Lint.of_statements ~name:"svc" statements ]
          |> List.map (fun f ->
                 (f.Lint.code, f.Lint.check, f.Lint.severity, f.Lint.service, f.Lint.message))
          |> List.sort compare )

let test_print_reparse_diagnostics () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"diagnostics survive print/re-parse"
       (QCheck.make padded_source_gen)
       (fun src ->
         match diagnostics src with
         | None -> false
         | Some (statements, d1) -> (
             match diagnostics (Parser.print statements) with
             | None -> false
             | Some (_, d2) -> d1 = d2)))

let suite =
  ( "lint",
    [
      Alcotest.test_case "L001 unbound head" `Quick test_unbound_head;
      Alcotest.test_case "L002 singleton var" `Quick test_singleton_var;
      Alcotest.test_case "L003 nonground negation" `Quick test_nonground_negation;
      Alcotest.test_case "L101 arity mismatch" `Quick test_arity_mismatch;
      Alcotest.test_case "L102 unknown role" `Quick test_unknown_role;
      Alcotest.test_case "L103 unknown service" `Quick test_unknown_service;
      Alcotest.test_case "L104 unknown appointment" `Quick test_unknown_appointment;
      Alcotest.test_case "L201 unmonitorable membership" `Quick test_unmonitorable_membership;
      Alcotest.test_case "L202 unmonitored appointment" `Quick test_unmonitored_appointment;
      Alcotest.test_case "L203 cascade depth" `Quick test_cascade_depth;
      Alcotest.test_case "finding locations" `Quick test_locations;
      Alcotest.test_case "strict install gate" `Quick test_install_gate_rejects;
      Alcotest.test_case "install-blocking classification" `Quick test_install_blocking_classification;
      Alcotest.test_case "waivers" `Quick test_waivers;
      Alcotest.test_case "json report" `Quick test_json;
      Alcotest.test_case "print/re-parse (qcheck)" `Quick test_print_reparse_diagnostics;
    ] )
