(* Static policy linting: dataflow, consistency and membership/revocation
   checks over parsed rules, with source-located diagnostics. See lint.mli
   for the rule catalogue. *)

type severity = Error | Warning | Info

let severity_to_string = function Error -> "error" | Warning -> "warning" | Info -> "info"

type finding = {
  code : string;
  check : string;
  severity : severity;
  service : string;
  loc : Rule.loc;
  message : string;
}

let pp_finding ppf f =
  Format.fprintf ppf "%a: %s %s [%s] %s (%s)" Rule.pp_loc f.loc
    (severity_to_string f.severity) f.code f.check f.message f.service

type service = {
  s_name : string;
  s_activations : Rule.activation list;
  s_authorizations : Rule.authorization list;
  s_appointers : Rule.authorization list;
  s_extra_kinds : string list;
}

let of_statements ~name ?(extra_kinds = []) statements =
  {
    s_name = name;
    s_activations = Parser.activations statements;
    s_authorizations = Parser.authorizations statements;
    s_appointers = Parser.appointers statements;
    s_extra_kinds = extra_kinds;
  }

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                     *)
(* ------------------------------------------------------------------ *)

let find_service world name = List.find_opt (fun s -> String.equal s.s_name name) world

let builtin name =
  List.find_opt (fun (n, _, _) -> String.equal n name) Env.builtin_predicates

(* A built-in may admit several arities (trust_score with and without its
   hysteresis band); arity checks must accept any of them. *)
let builtin_arities name =
  List.filter_map
    (fun (n, a, _) -> if String.equal n name then Some a else None)
    Env.builtin_predicates

(* Variable occurrences, duplicates preserved (Term.vars dedups). *)
let var_occurrences terms =
  List.filter_map (function Term.Var v -> Some v | Term.Const _ -> None) terms

let condition_args = function
  | Rule.Prereq r | Rule.Appointment r -> r.Rule.args
  | Rule.Constraint (_, args) -> args

(* Variables a condition can bind during proof search: credential arguments
   unify against presented certificates; a non-negated fact constraint
   enumerates tuples. Negated constraints and computed built-ins bind
   nothing (Solve: negation needs ground args; built-ins enumerate []). *)
let binder_vars = function
  | Rule.Prereq r | Rule.Appointment r -> var_occurrences r.Rule.args
  | Rule.Constraint (name, args) ->
      if Env.negated name || builtin (Env.base_name name) <> None then []
      else var_occurrences args

(* An authorization body in the order Solve.authorization evaluates it. *)
let auth_conditions (auth : Rule.authorization) =
  List.map (fun r -> Rule.Prereq r) auth.required_roles
  @ List.map (fun (n, a) -> Rule.Constraint (n, a)) auth.constraints

let dedup l = List.sort_uniq compare l

let intentional v = String.length v > 0 && v.[0] = '_'

let quote_vars vs = String.concat ", " (List.map (fun v -> "'" ^ v ^ "'") vs)

(* ------------------------------------------------------------------ *)
(* Dataflow: L001 unbound-head, L002 singleton-var, L003 nonground     *)
(* ------------------------------------------------------------------ *)

let nonground_negations ~service ~where ~loc ~seed conditions =
  let rec walk bound acc = function
    | [] -> List.rev acc
    | condition :: rest ->
        let acc =
          match condition with
          | Rule.Constraint (name, args) when Env.negated name ->
              let free =
                dedup (var_occurrences args) |> List.filter (fun v -> not (List.mem v bound))
              in
              if free = [] then acc
              else
                {
                  code = "L003";
                  check = "nonground-negation";
                  severity = Error;
                  service;
                  loc;
                  message =
                    Printf.sprintf
                      "negated constraint 'env:%s' in %s is reached with unbound variable(s) \
                       %s; negation as failure is sound only over ground instances, so this \
                       raises Nonground_negation (Bad_request) at request time — bind the \
                       variable(s) in an earlier condition"
                      name where (quote_vars free);
                }
                :: acc
          | _ -> acc
        in
        walk (binder_vars condition @ bound) acc rest
  in
  walk seed [] conditions

let lint_activation s (a : Rule.activation) =
  let body_vars =
    List.concat_map (fun c -> var_occurrences (condition_args c)) a.conditions
  in
  let head_vars = Term.vars a.params in
  (* A head parameter the body never even mentions can neither be derived
     (so unpinned activation raises Unbound_head) nor validated (a pinned
     value is accepted unchecked). Parameters that appear only in computed
     constraints are fine: the caller pins them and the constraint checks
     them ("parameters are related in a specified way", Sect. 2). *)
  let unbound = List.filter (fun v -> not (List.mem v body_vars)) head_vars in
  let l001 =
    List.map
      (fun v ->
        {
          code = "L001";
          check = "unbound-head";
          severity = Error;
          service = s.s_name;
          loc = a.loc;
          message =
            Printf.sprintf
              "head parameter '%s' of role '%s' appears in no condition: the rule can \
               neither derive it (unpinned activation raises Unbound_head) nor validate a \
               caller-supplied value"
              v a.role;
        })
      unbound
  in
  let occurrences =
    var_occurrences a.params @ List.concat_map (fun c -> var_occurrences (condition_args c)) a.conditions
  in
  let l002 =
    dedup occurrences
    |> List.filter (fun v ->
           List.length (List.filter (String.equal v) occurrences) = 1
           && (not (intentional v))
           && not (List.mem v unbound))
    |> List.map (fun v ->
           {
             code = "L002";
             check = "singleton-var";
             severity = Warning;
             service = s.s_name;
             loc = a.loc;
             message =
               Printf.sprintf
                 "variable '%s' occurs exactly once in the rule for role '%s' — likely a \
                  typo; prefix it with '_' if the single occurrence is intentional"
                 v a.role;
           })
  in
  let l003 =
    nonground_negations ~service:s.s_name
      ~where:(Printf.sprintf "the rule for role '%s'" a.role)
      ~loc:a.loc ~seed:[] a.conditions
  in
  l001 @ l002 @ l003

let lint_authorization s ~keyword (auth : Rule.authorization) =
  let conditions = auth_conditions auth in
  let head_vars = Term.vars auth.priv_args in
  let occurrences = List.concat_map (fun c -> var_occurrences (condition_args c)) conditions in
  (* Head parameters of priv/appoint rules are bound by the invocation
     itself, so — unlike activation heads — they need no binder and a
     body-free head variable is idiomatic ("appoint employee(u) ..."). *)
  let l002 =
    dedup occurrences
    |> List.filter (fun v ->
           List.length (List.filter (String.equal v) occurrences) = 1
           && (not (intentional v))
           && not (List.mem v head_vars))
    |> List.map (fun v ->
           {
             code = "L002";
             check = "singleton-var";
             severity = Warning;
             service = s.s_name;
             loc = auth.loc;
             message =
               Printf.sprintf
                 "variable '%s' occurs exactly once in the body of '%s %s' — likely a typo; \
                  prefix it with '_' if the single occurrence is intentional"
                 v keyword auth.privilege;
           })
  in
  let l003 =
    nonground_negations ~service:s.s_name
      ~where:(Printf.sprintf "'%s %s'" keyword auth.privilege)
      ~loc:auth.loc ~seed:head_vars conditions
  in
  l002 @ l003

(* ------------------------------------------------------------------ *)
(* Membership / revocation: L201, L202                                 *)
(* ------------------------------------------------------------------ *)

let lint_membership s (a : Rule.activation) =
  List.concat
    (List.map2
       (fun monitored condition ->
         match condition with
         | Rule.Constraint (name, _) when monitored -> (
             match builtin (Env.base_name name) with
             | Some (_, _, `Pure) ->
                 [
                   {
                     code = "L201";
                     check = "unmonitorable-membership";
                     severity = Warning;
                     service = s.s_name;
                     loc = a.loc;
                     message =
                       Printf.sprintf
                         "membership mark on 'env:%s' in role '%s' is unmonitorable: the \
                          predicate depends only on its arguments, so no fact change or \
                          timer ever re-checks it — the '*' has no effect"
                         name a.role;
                   };
                 ]
             | _ -> [])
         | Rule.Appointment r when not monitored ->
             [
               {
                 code = "L202";
                 check = "unmonitored-appointment";
                 severity = Warning;
                 service = s.s_name;
                 loc = a.loc;
                 message =
                   Printf.sprintf
                     "appointment condition 'appt:%s' of role '%s' is not membership-marked; \
                      revoking the certificate will never deactivate the role, so the \
                      session tree does not collapse (Sect. 4) — mark it '*appt:%s' unless \
                      activation-time checking is intended"
                     r.Rule.name a.role r.Rule.name;
               };
             ]
         | _ -> [])
       a.membership a.conditions)

(* ------------------------------------------------------------------ *)
(* Consistency: L101 arity-mismatch                                    *)
(* ------------------------------------------------------------------ *)

let defines_role s role =
  List.exists (fun (a : Rule.activation) -> String.equal a.role role) s.s_activations

let role_def_arities s role =
  List.filter_map
    (fun (a : Rule.activation) ->
      if String.equal a.role role then Some (List.length a.params) else None)
    s.s_activations
  |> dedup

let kind_def_arities s kind =
  List.filter_map
    (fun (ap : Rule.authorization) ->
      if String.equal ap.privilege kind then Some (List.length ap.priv_args) else None)
    s.s_appointers
  |> dedup

let issues_kind s kind =
  kind_def_arities s kind <> [] || List.mem kind s.s_extra_kinds

let arity_finding ~service ~loc message =
  { code = "L101"; check = "arity-mismatch"; severity = Error; service; loc; message }

(* Several rules defining one name must agree on arity; each rule whose
   arity differs from the first definition's is flagged. *)
let def_drift ~service ~what defs =
  match defs with
  | [] | [ _ ] -> []
  | (_, first_arity, _) :: rest ->
      List.filter_map
        (fun (name, arity, loc) ->
          if arity = first_arity then None
          else
            Some
              (arity_finding ~service ~loc
                 (Printf.sprintf
                    "%s '%s' is defined here with arity %d but with arity %d elsewhere; \
                     requests and references can match only one of them"
                    what name arity first_arity)))
        rest

let group_by_name defs =
  let names = dedup (List.map (fun (n, _, _) -> n) defs) in
  List.map (fun n -> List.filter (fun (n', _, _) -> String.equal n' n) defs) names

let lint_def_arities s =
  let activation_defs =
    List.map (fun (a : Rule.activation) -> (a.role, List.length a.params, a.loc)) s.s_activations
  in
  let priv_defs =
    List.map
      (fun (p : Rule.authorization) -> (p.privilege, List.length p.priv_args, p.loc))
      s.s_authorizations
  in
  let kind_defs =
    List.map
      (fun (p : Rule.authorization) -> (p.privilege, List.length p.priv_args, p.loc))
      s.s_appointers
  in
  List.concat_map (def_drift ~service:s.s_name ~what:"role") (group_by_name activation_defs)
  @ List.concat_map (def_drift ~service:s.s_name ~what:"privilege") (group_by_name priv_defs)
  @ List.concat_map
      (def_drift ~service:s.s_name ~what:"appointment kind")
      (group_by_name kind_defs)

(* References must match the referent's arity. *)
let lint_ref_arities world s =
  let check_cred ~loc ~kind_ref (r : Rule.cred_ref) =
    let target = match r.Rule.service with None -> s.s_name | Some t -> t in
    let arity = List.length r.Rule.args in
    match find_service world target with
    | None -> []
    | Some tsvc ->
        let def_arities =
          if kind_ref then kind_def_arities tsvc r.Rule.name else role_def_arities tsvc r.Rule.name
        in
        if def_arities = [] || List.mem arity def_arities then []
        else
          [
            arity_finding ~service:s.s_name ~loc
              (Printf.sprintf
                 "%s '%s'%s is referenced with arity %d but defined with arity %s; the \
                  reference can never unify"
                 (if kind_ref then "appointment kind" else "role")
                 r.Rule.name
                 (match r.Rule.service with None -> "" | Some t -> "@" ^ t)
                 arity
                 (String.concat "/" (List.map string_of_int def_arities)));
          ]
  in
  let check_condition ~loc = function
    | Rule.Prereq r -> check_cred ~loc ~kind_ref:false r
    | Rule.Appointment r -> check_cred ~loc ~kind_ref:true r
    | Rule.Constraint _ -> []
  in
  List.concat_map
    (fun (a : Rule.activation) -> List.concat_map (check_condition ~loc:a.loc) a.conditions)
    s.s_activations
  @ List.concat_map
      (fun (auth : Rule.authorization) ->
        List.concat_map (check_cred ~loc:auth.loc ~kind_ref:false) auth.required_roles)
      (s.s_authorizations @ s.s_appointers)

(* Environmental predicates: built-ins have fixed arities; fact predicates
   must be used consistently within one service (first use is canonical). *)
let lint_env_arities s =
  let uses =
    List.concat_map
      (fun (a : Rule.activation) ->
        List.filter_map
          (function Rule.Constraint (n, args) -> Some (n, args, a.loc) | _ -> None)
          a.conditions)
      s.s_activations
    @ List.concat_map
        (fun (auth : Rule.authorization) ->
          List.map (fun (n, args) -> (n, args, auth.loc)) auth.constraints)
        (s.s_authorizations @ s.s_appointers)
  in
  let first_seen = Hashtbl.create 8 in
  List.concat_map
    (fun (name, args, loc) ->
      let base = Env.base_name name in
      let arity = List.length args in
      match builtin_arities base with
      | _ :: _ as expected ->
          if List.mem arity expected then []
          else
            [
              arity_finding ~service:s.s_name ~loc
                (Printf.sprintf
                   "built-in predicate 'env:%s' takes %s argument(s) but is used with %d; \
                    the constraint silently never holds"
                   base
                   (String.concat " or " (List.map string_of_int expected))
                   arity);
            ]
      | [] -> (
          match Hashtbl.find_opt first_seen base with
          | None ->
              Hashtbl.add first_seen base arity;
              []
          | Some expected when expected = arity -> []
          | Some expected ->
              [
                arity_finding ~service:s.s_name ~loc
                  (Printf.sprintf
                     "environmental predicate 'env:%s' is used with arity %d here but arity \
                      %d elsewhere in this policy; one of the uses can never hold"
                     base arity expected);
              ]))
    uses

(* ------------------------------------------------------------------ *)
(* Resolution: L102 unknown-role, L103 unknown-service, L104 kind      *)
(* ------------------------------------------------------------------ *)

let dangling ?(closed = true) world =
  let findings = ref [] in
  let note code check ~at ~loc message =
    let f = { code; check; severity = Error; service = at; loc; message } in
    if not (List.mem f !findings) then findings := f :: !findings
  in
  let check_ref ~at ~rule ~loc ~kind_ref (r : Rule.cred_ref) =
    let target = match r.Rule.service with None -> at | Some t -> t in
    match find_service world target with
    | None ->
        if closed then
          note "L103" "unknown-service" ~at ~loc
            (Printf.sprintf
               "rule '%s' references service '%s', which is not part of the analysed world" rule
               target)
    | Some tsvc ->
        if kind_ref then begin
          if not (issues_kind tsvc r.Rule.name) then
            note "L104" "unknown-appointment" ~at ~loc
              (Printf.sprintf
                 "rule '%s' requires appointment kind '%s' from '%s', which '%s' neither \
                  defines an appoint rule for nor is declared to issue"
                 rule r.Rule.name target target)
        end
        else if not (defines_role tsvc r.Rule.name) then
          note "L102" "unknown-role" ~at ~loc
            (Printf.sprintf
               "rule '%s' requires role '%s@%s', but service '%s' has no activation rule for \
                it — likely a typo"
               rule r.Rule.name target target)
  in
  List.iter
    (fun s ->
      let at = s.s_name in
      List.iter
        (fun (a : Rule.activation) ->
          List.iter
            (function
              | Rule.Prereq r -> check_ref ~at ~rule:a.role ~loc:a.loc ~kind_ref:false r
              | Rule.Appointment r -> check_ref ~at ~rule:a.role ~loc:a.loc ~kind_ref:true r
              | Rule.Constraint _ -> ())
            a.conditions)
        s.s_activations;
      List.iter
        (fun (auth : Rule.authorization) ->
          List.iter
            (check_ref ~at ~rule:("priv " ^ auth.privilege) ~loc:auth.loc ~kind_ref:false)
            auth.required_roles)
        s.s_authorizations;
      List.iter
        (fun (auth : Rule.authorization) ->
          List.iter
            (check_ref ~at ~rule:("appoint " ^ auth.privilege) ~loc:auth.loc ~kind_ref:false)
            auth.required_roles)
        s.s_appointers)
    world;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Revocation cascade depth: L203                                      *)
(* ------------------------------------------------------------------ *)

let cascade_depths world =
  let memo = Hashtbl.create 32 in
  let visiting = Hashtbl.create 8 in
  let rec depth ((sname, role) as node) =
    match Hashtbl.find_opt memo node with
    | Some d -> d
    | None ->
        if Hashtbl.mem visiting node then 0 (* prerequisite cycle: contributes nothing *)
        else begin
          Hashtbl.replace visiting node ();
          let d =
            match find_service world sname with
            | None -> 0
            | Some s ->
                let rules =
                  List.filter (fun (a : Rule.activation) -> String.equal a.role role) s.s_activations
                in
                if rules = [] then 0
                else
                  1
                  + List.fold_left
                      (fun acc (a : Rule.activation) ->
                        List.fold_left
                          (fun acc condition ->
                            match condition with
                            | Rule.Prereq r ->
                                let target =
                                  match r.Rule.service with None -> sname | Some t -> t
                                in
                                max acc (depth (target, r.Rule.name))
                            | Rule.Appointment _ | Rule.Constraint _ -> acc)
                          acc a.conditions)
                      0 rules
          in
          Hashtbl.remove visiting node;
          Hashtbl.replace memo node d;
          d
        end
  in
  List.concat_map
    (fun s -> List.map (fun (a : Rule.activation) -> (s.s_name, a.role)) s.s_activations)
    world
  |> dedup
  |> List.map (fun node -> (node, depth node))

let depth_findings world ~max_cascade_depth =
  List.filter_map
    (fun (((sname, role) as node), d) ->
      if d <= max_cascade_depth then None
      else
        let loc =
          match find_service world sname with
          | None -> Rule.no_loc
          | Some s -> (
              match
                List.find_opt (fun (a : Rule.activation) -> String.equal a.role role) s.s_activations
              with
              | Some a -> a.loc
              | None -> Rule.no_loc)
        in
        ignore node;
        Some
          {
            code = "L203";
            check = "cascade-depth";
            severity = Info;
            service = sname;
            loc;
            message =
              Printf.sprintf
                "role '%s' sits at worst-case revocation cascade depth %d (threshold %d); \
                 revoking its deepest prerequisite crosses %d hops before this role \
                 deactivates (Sect. 4)"
                role d max_cascade_depth (d - 1);
          })
    (cascade_depths world)

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let sort_findings findings =
  List.sort
    (fun a b ->
      compare
        (a.service, a.loc.Rule.line, a.loc.Rule.col, a.code, a.message)
        (b.service, b.loc.Rule.line, b.loc.Rule.col, b.code, b.message))
    findings

let check ?(closed = true) ?(max_cascade_depth = 4) world =
  let per_service s =
    List.concat_map (lint_activation s) s.s_activations
    @ List.concat_map (lint_authorization s ~keyword:"priv") s.s_authorizations
    @ List.concat_map (lint_authorization s ~keyword:"appoint") s.s_appointers
    @ List.concat_map (lint_membership s) s.s_activations
    @ lint_def_arities s
    @ lint_ref_arities world s
    @ lint_env_arities s
  in
  sort_findings
    (List.concat_map per_service world
    @ dangling ~closed world
    @ depth_findings world ~max_cascade_depth)

let install_blocking f =
  f.severity = Error && List.mem f.code [ "L001"; "L003"; "L101" ]

(* ------------------------------------------------------------------ *)
(* Waivers                                                             *)
(* ------------------------------------------------------------------ *)

let find_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let waivers src =
  let marker = "lint:allow" in
  String.split_on_char '\n' src
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter_map (fun (line, text) ->
         match find_substring text marker with
         | None -> None
         | Some at ->
             (* A standalone comment waives the statement on the next line;
                a trailing comment waives its own line. *)
             let comment_start =
               let cand sub =
                 match find_substring text sub with Some i when i <= at -> Some i | _ -> None
               in
               match (cand "//", cand "#") with
               | Some a, Some b -> Some (min a b)
               | (Some _ as s), None | None, (Some _ as s) -> s
               | None, None -> None
             in
             let standalone =
               match comment_start with
               | Some i -> String.trim (String.sub text 0 i) = ""
               | None -> false
             in
             let line = if standalone then line + 1 else line in
             let rest = String.sub text (at + String.length marker) (String.length text - at - String.length marker) in
             let is_code_char c =
               (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
               || c = '_' || c = '-'
             in
             (* Codes: comma-separated tokens immediately after the marker. *)
             let buf = Buffer.create 16 in
             let codes = ref [] in
             let flush () =
               if Buffer.length buf > 0 then begin
                 codes := Buffer.contents buf :: !codes;
                 Buffer.clear buf
               end
             in
             let stop = ref false in
             String.iter
               (fun c ->
                 if not !stop then
                   if is_code_char c then Buffer.add_char buf c
                   else if c = ' ' || c = '\t' then (if Buffer.length buf > 0 then stop := true)
                   else if c = ',' then flush ()
                   else stop := true)
               (String.trim rest);
             flush ();
             let codes = List.rev !codes in
             if codes = [] then None else Some (line, codes))

let apply_waivers ~waivers findings =
  List.filter
    (fun f ->
      not
        (List.exists
           (fun (line, codes) ->
             line = f.loc.Rule.line && (List.mem f.code codes || List.mem f.check codes))
           waivers))
    findings

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_string = Oasis_obs.Obs.json_string

let finding_json f =
  Printf.sprintf
    "{\"code\":%s,\"check\":%s,\"severity\":%s,\"service\":%s,\"line\":%d,\"col\":%d,\"message\":%s}"
    (json_string f.code) (json_string f.check)
    (json_string (severity_to_string f.severity))
    (json_string f.service) f.loc.Rule.line f.loc.Rule.col (json_string f.message)

let to_json ?(depths = []) findings =
  let count sev = List.length (List.filter (fun f -> f.severity = sev) findings) in
  let depth_json ((service, role), d) =
    Printf.sprintf "{\"service\":%s,\"role\":%s,\"depth\":%d}" (json_string service)
      (json_string role) d
  in
  Printf.sprintf
    "{\"findings\":[%s],\"errors\":%d,\"warnings\":%d,\"infos\":%d,\"cascade_depths\":[%s]}"
    (String.concat "," (List.map finding_json findings))
    (count Error) (count Warning) (count Info)
    (String.concat "," (List.map depth_json depths))
