(* The backtracking rule solver. *)

module Solve = Oasis_policy.Solve
module Rule = Oasis_policy.Rule
module Term = Oasis_policy.Term
module Env = Oasis_policy.Env
module Value = Oasis_util.Value
module Ident = Oasis_util.Ident
module Clock = Oasis_util.Clock

let cred ?(issuer = Ident.make "svc" 0) ~id ~name args =
  { Solve.cred_id = Ident.make "cert" id; issuer; cred_name = name; cred_args = args }

(* A context over in-memory credential lists and a fresh env. All symbolic
   service references resolve to the default issuer "svc#0"; a reference to
   an unknown service yields no candidates, as in the real resolver. *)
let context ?(rmcs = []) ?(appts = []) ?(env_setup = fun _ -> ()) () =
  let env = Env.create (Clock.manual ()) in
  env_setup env;
  let filter ~service ~name creds =
    match service with
    | Some s when s <> "svc" -> []
    | _ -> List.filter (fun (c : Solve.cred) -> String.equal c.cred_name name) creds
  in
  {
    Solve.find_rmcs = (fun ~service ~name -> filter ~service ~name rmcs);
    find_appointments = (fun ~issuer ~name -> filter ~service:issuer ~name appts);
    env_check = Env.check env;
    env_enumerate = Env.enumerate env;
  }

let cref ?service name args : Rule.cred_ref = { service; name; args }

let test_prereq_binds_head () =
  let ctx = context ~rmcs:[ cred ~id:1 ~name:"doctor" [ Value.Int 9 ] ] () in
  let rule =
    Rule.activation ~role:"senior" ~params:[ Term.Var "u" ]
      [ (false, Rule.Prereq (cref "doctor" [ Term.Var "u" ])) ]
  in
  match Solve.activation ctx rule () with
  | Some proof ->
      Alcotest.(check int) "head bound" 1 (List.length proof.Solve.role_args);
      Alcotest.(check bool) "value" true (Value.equal (List.hd proof.Solve.role_args) (Value.Int 9));
      (match proof.Solve.support with
      | [ Solve.By_rmc c ] -> Alcotest.(check string) "support" "doctor" c.Solve.cred_name
      | _ -> Alcotest.fail "wrong support")
  | None -> Alcotest.fail "no proof"

let test_no_candidates_fails () =
  let ctx = context () in
  let rule =
    Rule.activation ~role:"r" ~params:[]
      [ (false, Rule.Prereq (cref "doctor" [ Term.Var "u" ])) ]
  in
  Alcotest.(check bool) "no proof" true (Solve.activation ctx rule () = None)

let test_backtracking_across_candidates () =
  (* First doctor credential fails the later constraint; solver must try the
     second. *)
  let ctx =
    context
      ~rmcs:[ cred ~id:1 ~name:"doctor" [ Value.Int 1 ]; cred ~id:2 ~name:"doctor" [ Value.Int 2 ] ]
      ~env_setup:(fun env -> Env.assert_fact env "on_duty" [ Value.Int 2 ])
      ()
  in
  let rule =
    Rule.activation ~role:"r" ~params:[ Term.Var "u" ]
      [
        (false, Rule.Prereq (cref "doctor" [ Term.Var "u" ]));
        (false, Rule.Constraint ("on_duty", [ Term.Var "u" ]));
      ]
  in
  match Solve.activation ctx rule () with
  | Some proof -> Alcotest.(check bool) "picked second" true
      (Value.equal (List.hd proof.Solve.role_args) (Value.Int 2))
  | None -> Alcotest.fail "no proof"

let test_join_across_conditions () =
  (* Shared variable between two credentials forces a join. *)
  let ctx =
    context
      ~rmcs:[ cred ~id:1 ~name:"a" [ Value.Int 1 ]; cred ~id:2 ~name:"a" [ Value.Int 2 ] ]
      ~appts:[ cred ~id:3 ~name:"b" [ Value.Int 2; Value.Str "ok" ] ]
      ()
  in
  let rule =
    Rule.activation ~role:"r" ~params:[ Term.Var "x"; Term.Var "y" ]
      [
        (false, Rule.Prereq (cref "a" [ Term.Var "x" ]));
        (false, Rule.Appointment (cref "b" [ Term.Var "x"; Term.Var "y" ]));
      ]
  in
  match Solve.activation ctx rule () with
  | Some proof ->
      Alcotest.(check bool) "x=2" true (Value.equal (List.nth proof.Solve.role_args 0) (Value.Int 2));
      Alcotest.(check bool) "y=ok" true
        (Value.equal (List.nth proof.Solve.role_args 1) (Value.Str "ok"))
  | None -> Alcotest.fail "no proof"

let test_env_enumeration_binds () =
  (* Free variable in a fact constraint: enumeration must bind it. *)
  let ctx =
    context
      ~rmcs:[ cred ~id:1 ~name:"doctor" [ Value.Int 5 ] ]
      ~env_setup:(fun env ->
        Env.assert_fact env "assigned" [ Value.Int 5; Value.Int 100 ];
        Env.assert_fact env "assigned" [ Value.Int 6; Value.Int 200 ])
      ()
  in
  let rule =
    Rule.activation ~role:"treating" ~params:[ Term.Var "d"; Term.Var "p" ]
      [
        (false, Rule.Prereq (cref "doctor" [ Term.Var "d" ]));
        (false, Rule.Constraint ("assigned", [ Term.Var "d"; Term.Var "p" ]));
      ]
  in
  match Solve.activation ctx rule () with
  | Some proof ->
      Alcotest.(check bool) "p bound via enumeration" true
        (Value.equal (List.nth proof.Solve.role_args 1) (Value.Int 100))
  | None -> Alcotest.fail "no proof"

let test_negated_constraint_requires_ground () =
  (* '!' predicates cannot enumerate; with the variable bound they check. *)
  let ctx =
    context
      ~rmcs:[ cred ~id:1 ~name:"doctor" [ Value.Int 5 ] ]
      ~env_setup:(fun env -> Env.declare_fact env "excluded")
      ()
  in
  let good =
    Rule.activation ~role:"r" ~params:[ Term.Var "d" ]
      [
        (false, Rule.Prereq (cref "doctor" [ Term.Var "d" ]));
        (false, Rule.Constraint ("!excluded", [ Term.Var "d" ]));
      ]
  in
  Alcotest.(check bool) "ground negation holds" true (Solve.activation ctx good () <> None);
  let ungrounded =
    Rule.activation ~role:"r" ~params:[ Term.Var "z" ]
      [ (false, Rule.Constraint ("!excluded", [ Term.Var "z" ])) ]
  in
  (* A non-ground negation used to yield a silent "no proof"; it is a policy
     configuration error and must fail loudly. *)
  Alcotest.check_raises "non-ground negation raises" (Solve.Nonground_negation "!excluded")
    (fun () -> ignore (Solve.activation ctx ungrounded ()))

let test_exception_pattern () =
  (* The paper's Fred Smith case: doctor excluded from one patient. *)
  let ctx =
    context
      ~rmcs:[ cred ~id:1 ~name:"doctor" [ Value.Str "fred" ] ]
      ~env_setup:(fun env ->
        Env.assert_fact env "assigned" [ Value.Str "fred"; Value.Int 1 ];
        Env.assert_fact env "assigned" [ Value.Str "fred"; Value.Int 2 ];
        Env.assert_fact env "excluded" [ Value.Str "fred"; Value.Int 1 ])
      ()
  in
  let rule patient =
    Rule.activation ~role:"treating" ~params:[ Term.Var "d"; Term.Const (Value.Int patient) ]
      [
        (false, Rule.Prereq (cref "doctor" [ Term.Var "d" ]));
        (false, Rule.Constraint ("assigned", [ Term.Var "d"; Term.Const (Value.Int patient) ]));
        (false, Rule.Constraint ("!excluded", [ Term.Var "d"; Term.Const (Value.Int patient) ]));
      ]
  in
  Alcotest.(check bool) "excluded patient denied" true (Solve.activation ctx (rule 1) () = None);
  Alcotest.(check bool) "other patient allowed" true (Solve.activation ctx (rule 2) () <> None)

let test_seed_pins_parameters () =
  let ctx =
    context
      ~rmcs:[ cred ~id:1 ~name:"doctor" [ Value.Int 1 ]; cred ~id:2 ~name:"doctor" [ Value.Int 2 ] ]
      ()
  in
  let rule =
    Rule.activation ~role:"r" ~params:[ Term.Var "u" ]
      [ (false, Rule.Prereq (cref "doctor" [ Term.Var "u" ])) ]
  in
  let seed = Option.get (Term.unify Term.Subst.empty (Term.Var "u") (Value.Int 2)) in
  match Solve.activation ctx rule ~seed () with
  | Some proof ->
      Alcotest.(check bool) "seed respected" true
        (Value.equal (List.hd proof.Solve.role_args) (Value.Int 2))
  | None -> Alcotest.fail "no proof"

let test_unbound_head_raises () =
  let ctx = context ~rmcs:[ cred ~id:1 ~name:"doctor" [ Value.Int 1 ] ] () in
  let rule =
    Rule.activation ~role:"r" ~params:[ Term.Var "unbound" ]
      [ (false, Rule.Prereq (cref "doctor" [ Term.Var "u" ])) ]
  in
  Alcotest.(check bool) "raises" true
    (match Solve.activation ctx rule () with
    | _ -> false
    | exception Solve.Unbound_head ("r", "unbound") -> true)

let test_unknown_service_reference () =
  let ctx = context ~rmcs:[ cred ~id:1 ~name:"doctor" [] ] () in
  let rule =
    Rule.activation ~role:"r" ~params:[]
      [ (false, Rule.Prereq { service = Some "nowhere"; name = "doctor"; args = [] }) ]
  in
  Alcotest.(check bool) "no proof via unknown service" true (Solve.activation ctx rule () = None)

let test_authorization () =
  let ctx =
    context
      ~rmcs:[ cred ~id:1 ~name:"treating" [ Value.Int 5; Value.Int 7 ] ]
      ~env_setup:(fun env -> Env.declare_fact env "excluded")
      ()
  in
  let auth =
    {
      Rule.privilege = "read";
      priv_args = [ Term.Var "d"; Term.Var "p" ];
      required_roles = [ cref "treating" [ Term.Var "d"; Term.Var "p" ] ];
      constraints = [ ("!excluded", [ Term.Var "d"; Term.Var "p" ]) ];
      loc = Rule.no_loc;
    }
  in
  let seed =
    Option.get
      (Term.unify_args Term.Subst.empty
         [ Term.Var "d"; Term.Var "p" ]
         [ Value.Int 5; Value.Int 7 ])
  in
  Alcotest.(check bool) "authorized" true (Solve.authorization ctx auth ~seed () <> None);
  let wrong_seed =
    Option.get
      (Term.unify_args Term.Subst.empty
         [ Term.Var "d"; Term.Var "p" ]
         [ Value.Int 5; Value.Int 8 ])
  in
  Alcotest.(check bool) "wrong args denied" true (Solve.authorization ctx auth ~seed:wrong_seed () = None)

let test_condition_order_matters_for_grounding () =
  (* Putting the binding credential first is the documented convention;
     a ground check before binding just fails (computed predicates cannot
     enumerate) rather than looping or raising. *)
  let ctx =
    context
      ~rmcs:[ cred ~id:1 ~name:"doctor" [ Value.Int 3 ] ]
      ()
  in
  let bad_order =
    Rule.activation ~role:"r" ~params:[ Term.Var "u" ]
      [
        (false, Rule.Constraint ("eq", [ Term.Var "u"; Term.Const (Value.Int 3) ]));
        (false, Rule.Prereq (cref "doctor" [ Term.Var "u" ]));
      ]
  in
  Alcotest.(check bool) "unbound computed constraint fails" true
    (Solve.activation ctx bad_order () = None)

(* ------------------------------------------------------------------ *)
(* Property: completeness and soundness on generated instances.        *)
(*                                                                     *)
(* We first draw a satisfying assignment (variables -> values), then   *)
(* build a rule whose conditions are instantiated by it: credentials   *)
(* matching each prereq/appointment condition and facts for each       *)
(* constraint, plus random decoy credentials that do NOT satisfy       *)
(* anything (to force backtracking). The solver must find a proof, the *)
(* head must be bound to the assignment, and every supporting          *)
(* credential must actually match its condition.                       *)
(* ------------------------------------------------------------------ *)

let instance_gen =
  let open QCheck.Gen in
  let value_gen = oneof [ map (fun n -> Value.Int n) (int_range 0 50);
                          map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'c') (int_range 1 2)) ] in
  let* nvars = int_range 1 4 in
  let* assignment = list_repeat nvars value_gen in
  let vars = List.mapi (fun i v -> (Printf.sprintf "v%d" i, v)) assignment in
  let* nconds = int_range 1 5 in
  let cond_gen index =
    let* kind = int_bound 2 in
    (* Each condition mentions a random non-empty subset of variables plus
       possibly a constant. *)
    let* used = list_size (int_range 1 nvars) (int_bound (nvars - 1)) in
    let used = List.sort_uniq compare used in
    let terms = List.map (fun i -> Term.Var (Printf.sprintf "v%d" i)) used in
    let ground = List.map (fun i -> List.nth assignment i) used in
    let name = Printf.sprintf "c%d" index in
    return
      (match kind with
      | 0 -> `Prereq (name, terms, ground)
      | 1 -> `Appt (name, terms, ground)
      | _ -> `Fact (name, terms, ground))
  in
  let* conds = flatten_l (List.init nconds cond_gen) in
  (* Guarantee head boundness: one extra prereq carrying every variable. *)
  let all_terms = List.map (fun (v, _) -> Term.Var v) vars in
  let all_ground = List.map snd vars in
  let conds = `Prereq ("anchor", all_terms, all_ground) :: conds in
  let* decoys = int_bound 4 in
  return (vars, conds, decoys)

let run_instance (vars, conds, decoys) =
  let rmcs = ref [] and appts = ref [] and facts = ref [] in
  let idx = ref 0 in
  let conditions =
    List.map
      (fun c ->
        incr idx;
        match c with
        | `Prereq (name, terms, ground) ->
            rmcs := cred ~id:!idx ~name ground :: !rmcs;
            Rule.Prereq (cref name terms)
        | `Appt (name, terms, ground) ->
            appts := cred ~id:(1000 + !idx) ~name ground :: !appts;
            Rule.Appointment (cref name terms)
        | `Fact (name, terms, ground) ->
            facts := (name, ground) :: !facts;
            Rule.Constraint (name, terms))
      conds
  in
  (* Decoys: same names as real credentials but mismatching arity, so they
     never unify yet must be skipped by backtracking. *)
  for d = 1 to decoys do
    match !rmcs with
    | c :: _ ->
        rmcs :=
          { c with Solve.cred_id = Ident.make "decoy" d;
                   cred_args = Value.Str "decoy" :: c.Solve.cred_args }
          :: !rmcs
    | [] -> ()
  done;
  let ctx =
    context ~rmcs:!rmcs ~appts:!appts
      ~env_setup:(fun env ->
        List.iter (fun (name, ground) -> Env.assert_fact env name ground) !facts)
      ()
  in
  let params = List.map (fun (v, _) -> Term.Var v) vars in
  let rule =
    Rule.activation ~role:"generated" ~params (List.map (fun c -> (false, c)) conditions)
  in
  match Solve.activation ctx rule () with
  | None -> false
  | Some proof ->
      (* Soundness: head bound to the assignment... *)
      List.for_all2 (fun (_, want) got -> Value.equal want got) vars proof.Solve.role_args
      (* ...and every credential support matches its condition's name. *)
      && List.for_all2
           (fun condition support ->
             match (condition, support) with
             | Rule.Prereq r, Solve.By_rmc c -> String.equal r.Rule.name c.Solve.cred_name
             | Rule.Appointment r, Solve.By_appointment c ->
                 String.equal r.Rule.name c.Solve.cred_name
             | Rule.Constraint (n, _), Solve.By_env (n', _) -> String.equal n n'
             | _ -> false)
           conditions proof.Solve.support

let test_completeness_property () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"solver complete and sound on satisfiable instances"
       (QCheck.make instance_gen) run_instance)

let suite =
  ( "solve",
    [
      Alcotest.test_case "prereq binds head" `Quick test_prereq_binds_head;
      Alcotest.test_case "no candidates" `Quick test_no_candidates_fails;
      Alcotest.test_case "backtracking" `Quick test_backtracking_across_candidates;
      Alcotest.test_case "join" `Quick test_join_across_conditions;
      Alcotest.test_case "env enumeration" `Quick test_env_enumeration_binds;
      Alcotest.test_case "negation needs ground" `Quick test_negated_constraint_requires_ground;
      Alcotest.test_case "exception pattern" `Quick test_exception_pattern;
      Alcotest.test_case "seed pins" `Quick test_seed_pins_parameters;
      Alcotest.test_case "unbound head" `Quick test_unbound_head_raises;
      Alcotest.test_case "unknown service" `Quick test_unknown_service_reference;
      Alcotest.test_case "authorization" `Quick test_authorization;
      Alcotest.test_case "condition order" `Quick test_condition_order_matters_for_grounding;
      Alcotest.test_case "completeness (qcheck)" `Quick test_completeness_property;
    ] )
