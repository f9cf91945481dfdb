(* Terms, substitutions, environment predicates and rules. *)

module Term = Oasis_policy.Term
module Env = Oasis_policy.Env
module Rule = Oasis_policy.Rule
module Value = Oasis_util.Value
module Ident = Oasis_util.Ident
module Clock = Oasis_util.Clock

let value = Alcotest.testable Value.pp Value.equal

(* ---------------- Terms ---------------- *)

let test_unify_var_binds () =
  match Term.unify Term.Subst.empty (Term.Var "x") (Value.Int 3) with
  | Some subst -> Alcotest.(check (option value)) "bound" (Some (Value.Int 3)) (Term.Subst.find subst "x")
  | None -> Alcotest.fail "unification failed"

let test_unify_const () =
  Alcotest.(check bool) "matching const" true
    (Term.unify Term.Subst.empty (Term.Const (Value.Int 3)) (Value.Int 3) <> None);
  Alcotest.(check bool) "clashing const" true
    (Term.unify Term.Subst.empty (Term.Const (Value.Int 3)) (Value.Int 4) = None)

let test_unify_repeated_var () =
  (* x unified against 3 then against 4 must fail; against 3 twice succeeds. *)
  let s = Option.get (Term.unify Term.Subst.empty (Term.Var "x") (Value.Int 3)) in
  Alcotest.(check bool) "consistent rebind" true (Term.unify s (Term.Var "x") (Value.Int 3) <> None);
  Alcotest.(check bool) "clash" true (Term.unify s (Term.Var "x") (Value.Int 4) = None)

let test_unify_args () =
  let terms = [ Term.Var "a"; Term.Const (Value.Str "k"); Term.Var "a" ] in
  (match Term.unify_args Term.Subst.empty terms [ Value.Int 1; Value.Str "k"; Value.Int 1 ] with
  | Some _ -> ()
  | None -> Alcotest.fail "should unify");
  Alcotest.(check bool) "repeated var clash" true
    (Term.unify_args Term.Subst.empty terms [ Value.Int 1; Value.Str "k"; Value.Int 2 ] = None);
  Alcotest.(check bool) "arity mismatch" true
    (Term.unify_args Term.Subst.empty terms [ Value.Int 1 ] = None)

let test_apply_ground () =
  let s = Option.get (Term.unify Term.Subst.empty (Term.Var "x") (Value.Int 3)) in
  Alcotest.(check (option value)) "ground bound" (Some (Value.Int 3)) (Term.ground s (Term.Var "x"));
  Alcotest.(check (option value)) "ground free" None (Term.ground s (Term.Var "y"))

let test_vars_order_dedup () =
  let vars = Term.vars [ Term.Var "b"; Term.Const (Value.Int 1); Term.Var "a"; Term.Var "b" ] in
  Alcotest.(check (list string)) "first-occurrence order" [ "b"; "a" ] vars

(* ---------------- Env ---------------- *)

let make_env ?(start = 0.0) () =
  let clock = Clock.manual () in
  Clock.advance_to clock start;
  (clock, Env.create clock)

let test_facts () =
  let _, env = make_env () in
  let args = [ Value.Int 1; Value.Str "x" ] in
  Env.assert_fact env "p" args;
  Alcotest.(check bool) "holds" true (Env.check env "p" args);
  Alcotest.(check bool) "other tuple" false (Env.check env "p" [ Value.Int 2; Value.Str "x" ]);
  Env.retract_fact env "p" args;
  Alcotest.(check bool) "retracted" false (Env.check env "p" args)

let test_fact_idempotence () =
  let _, env = make_env () in
  let fired = ref 0 in
  Env.on_change env (fun _ _ _ -> incr fired);
  Env.assert_fact env "p" [ Value.Int 1 ];
  Env.assert_fact env "p" [ Value.Int 1 ];
  Alcotest.(check int) "one change event" 1 !fired;
  Env.retract_fact env "p" [ Value.Int 1 ];
  Env.retract_fact env "p" [ Value.Int 1 ];
  Alcotest.(check int) "one retract event" 2 !fired

let test_unknown_predicate_raises () =
  let _, env = make_env () in
  Alcotest.(check bool) "raises" true
    (match Env.check env "nonsense" [] with
    | _ -> false
    | exception Env.Unknown_predicate "nonsense" -> true)

let test_declare_allows_empty () =
  let _, env = make_env () in
  Env.declare_fact env "excluded";
  Alcotest.(check bool) "empty predicate false" false (Env.check env "excluded" [ Value.Int 1 ]);
  Alcotest.(check bool) "negation true" true (Env.check env "!excluded" [ Value.Int 1 ]);
  Alcotest.(check (list (list value))) "enumerates empty" [] (Env.enumerate env "excluded")

let test_negation () =
  let _, env = make_env () in
  Env.assert_fact env "excluded" [ Value.Int 7 ];
  Alcotest.(check bool) "negated hit" false (Env.check env "!excluded" [ Value.Int 7 ]);
  Alcotest.(check bool) "negated miss" true (Env.check env "!excluded" [ Value.Int 8 ])

let test_builtin_comparisons () =
  let _, env = make_env () in
  Alcotest.(check bool) "eq" true (Env.check env "eq" [ Value.Int 2; Value.Int 2 ]);
  Alcotest.(check bool) "eq mixed" true (Env.check env "eq" [ Value.Int 2; Value.Time 2.0 ]);
  Alcotest.(check bool) "ne" true (Env.check env "ne" [ Value.Int 2; Value.Int 3 ]);
  Alcotest.(check bool) "lt" true (Env.check env "lt" [ Value.Int 2; Value.Int 3 ]);
  Alcotest.(check bool) "le eq" true (Env.check env "le" [ Value.Int 3; Value.Int 3 ]);
  Alcotest.(check bool) "gt" false (Env.check env "gt" [ Value.Int 2; Value.Int 3 ]);
  Alcotest.(check bool) "ge" true (Env.check env "ge" [ Value.Int 3; Value.Int 3 ]);
  Alcotest.(check bool) "string compare" true
    (Env.check env "lt" [ Value.Str "a"; Value.Str "b" ]);
  Alcotest.(check bool) "wrong arity" false (Env.check env "eq" [ Value.Int 1 ])

let test_builtin_time () =
  let clock, env = make_env ~start:100.0 () in
  Alcotest.(check bool) "before future" true (Env.check env "before" [ Value.Time 200.0 ]);
  Alcotest.(check bool) "before past" false (Env.check env "before" [ Value.Time 50.0 ]);
  Alcotest.(check bool) "after past" true (Env.check env "after" [ Value.Time 50.0 ]);
  Alcotest.(check bool) "after future" false (Env.check env "after" [ Value.Time 200.0 ]);
  Clock.advance_to clock 250.0;
  Alcotest.(check bool) "before flips" false (Env.check env "before" [ Value.Time 200.0 ])

let test_hour_between () =
  (* Start at 10:00 (36000 s). *)
  let _, env = make_env ~start:36000.0 () in
  Alcotest.(check bool) "in window" true (Env.check env "hour_between" [ Value.Int 9; Value.Int 17 ]);
  Alcotest.(check bool) "out of window" false
    (Env.check env "hour_between" [ Value.Int 11; Value.Int 17 ]);
  (* Wrapping window 22–6 does not contain 10:00, does contain 23:00. *)
  Alcotest.(check bool) "wrap out" false (Env.check env "hour_between" [ Value.Int 22; Value.Int 6 ]);
  let _, env_night = make_env ~start:(23.0 *. 3600.0) () in
  Alcotest.(check bool) "wrap in" true
    (Env.check env_night "hour_between" [ Value.Int 22; Value.Int 6 ])

let test_next_change_time () =
  let _, env = make_env ~start:100.0 () in
  Alcotest.(check (option (float 1e-9))) "before" (Some 200.0)
    (Env.next_change_time env "before" [ Value.Time 200.0 ]);
  Alcotest.(check (option (float 1e-9))) "already past" None
    (Env.next_change_time env "before" [ Value.Time 50.0 ]);
  Alcotest.(check (option (float 1e-9))) "facts have none" None
    (Env.next_change_time env "whatever" [ Value.Int 1 ]);
  match Env.next_change_time env "hour_between" [ Value.Int 9; Value.Int 17 ] with
  | Some t -> Alcotest.(check bool) "future boundary" true (t > 100.0)
  | None -> Alcotest.fail "expected a boundary"

let test_register_computed () =
  let _, env = make_env () in
  Env.register env "even" (function [ Value.Int n ] -> n mod 2 = 0 | _ -> false);
  Alcotest.(check bool) "even 4" true (Env.check env "even" [ Value.Int 4 ]);
  Alcotest.(check bool) "even 3" false (Env.check env "even" [ Value.Int 3 ]);
  Alcotest.(check (list (list value))) "computed enumerate empty" [] (Env.enumerate env "even")

let test_register_conflicts () =
  let _, env = make_env () in
  Env.assert_fact env "p" [ Value.Int 1 ];
  Alcotest.(check bool) "register over fact raises" true
    (match Env.register env "p" (fun _ -> true) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "assert over computed raises" true
    (match Env.assert_fact env "eq" [] with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_enumerate () =
  let _, env = make_env () in
  Env.assert_fact env "p" [ Value.Int 2 ];
  Env.assert_fact env "p" [ Value.Int 1 ];
  Alcotest.(check int) "two tuples" 2 (List.length (Env.enumerate env "p"))

(* ---------------- Rules ---------------- *)

let cref name args : Rule.cred_ref = { service = None; name; args }

let test_initial_rejects_prereq () =
  Alcotest.(check bool) "raises" true
    (match
       Rule.activation ~initial:true ~role:"r" ~params:[]
         [ (false, Rule.Prereq (cref "other" [])) ]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_non_initial_needs_conditions () =
  Alcotest.(check bool) "raises" true
    (match Rule.activation ~role:"r" ~params:[] [] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_membership_conditions () =
  let rule =
    Rule.activation ~role:"r"
      ~params:[ Term.Var "x" ]
      [
        (true, Rule.Prereq (cref "a" [ Term.Var "x" ]));
        (false, Rule.Constraint ("eq", [ Term.Var "x"; Term.Var "x" ]));
        (true, Rule.Appointment (cref "k" []));
      ]
  in
  let monitored = Rule.membership_conditions rule in
  Alcotest.(check (list int)) "indices" [ 0; 2 ] (List.map fst monitored);
  Alcotest.(check (list string)) "head vars" [ "x" ] (Rule.head_vars rule)

let test_pp_smoke () =
  let rule =
    Rule.activation ~initial:true ~role:"logged_in"
      ~params:[ Term.Var "u" ]
      [ (true, Rule.Appointment { service = Some "admin"; name = "employee"; args = [ Term.Var "u" ] }) ]
  in
  let s = Format.asprintf "%a" Rule.pp_activation rule in
  Alcotest.(check bool) "mentions role" true (String.length s > 0)

let suite =
  ( "policy",
    [
      Alcotest.test_case "unify var" `Quick test_unify_var_binds;
      Alcotest.test_case "unify const" `Quick test_unify_const;
      Alcotest.test_case "unify repeated var" `Quick test_unify_repeated_var;
      Alcotest.test_case "unify args" `Quick test_unify_args;
      Alcotest.test_case "apply/ground" `Quick test_apply_ground;
      Alcotest.test_case "vars order" `Quick test_vars_order_dedup;
      Alcotest.test_case "facts" `Quick test_facts;
      Alcotest.test_case "fact idempotence" `Quick test_fact_idempotence;
      Alcotest.test_case "unknown predicate" `Quick test_unknown_predicate_raises;
      Alcotest.test_case "declare empty" `Quick test_declare_allows_empty;
      Alcotest.test_case "negation" `Quick test_negation;
      Alcotest.test_case "comparisons" `Quick test_builtin_comparisons;
      Alcotest.test_case "time predicates" `Quick test_builtin_time;
      Alcotest.test_case "hour_between" `Quick test_hour_between;
      Alcotest.test_case "next_change_time" `Quick test_next_change_time;
      Alcotest.test_case "register computed" `Quick test_register_computed;
      Alcotest.test_case "register conflicts" `Quick test_register_conflicts;
      Alcotest.test_case "enumerate" `Quick test_enumerate;
      Alcotest.test_case "initial rejects prereq" `Quick test_initial_rejects_prereq;
      Alcotest.test_case "non-initial needs conditions" `Quick test_non_initial_needs_conditions;
      Alcotest.test_case "membership conditions" `Quick test_membership_conditions;
      Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
    ] )
