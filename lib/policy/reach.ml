(* Symbolic goal-reachability over the world's Horn rules (see reach.mli).

   The fixpoint is a classic monotone least-fixpoint over a two-level
   lattice per goal: unknown < conditionally-derivable < definitely-
   derivable. Negation as failure appears only on environmental
   constraints, never on role atoms, so the rule set is monotone in roles
   and the fixpoint is exact — no stratification subtleties. *)

type adversary = {
  held_appointments : (string * string) list;
  held_roles : (string * string) list;
}

let no_credentials = { held_appointments = []; held_roles = [] }

let permissive (world : Lint.service list) =
  {
    held_appointments =
      List.concat_map
        (fun (s : Lint.service) ->
          List.map (fun (a : Rule.authorization) -> a.privilege) s.s_appointers @ s.s_extra_kinds
          |> List.sort_uniq compare
          |> List.map (fun kind -> (s.s_name, kind)))
        world;
    held_roles = [];
  }

type verdict = Reachable | Env_contingent | Unreachable

let verdict_to_string = function
  | Reachable -> "reachable"
  | Env_contingent -> "env-contingent"
  | Unreachable -> "unreachable"

type head = Role of string | Appoint of string

type witness =
  | Held of { service : string; role : string }
  | Fired of { service : string; head : head; loc : Rule.loc; premises : premise list }

and premise =
  | Role_premise of witness
  | Appointment_premise of {
      issuer : string;
      kind : string;
      monitored : bool;
      via : witness option;
    }
  | Env_premise of { pred : string; args : Term.t list; assumed : bool }

type goal = {
  g_service : string;
  g_role : string;
  g_verdict : verdict;
  g_witness : witness option;
  g_assumptions : (string * bool) list;
}

type privilege = { p_service : string; p_privilege : string; p_verdict : verdict }

type result = {
  goals : goal list;
  privileges : privilege list;
  r_adversary : adversary;
  r_pins : (string * bool) list;
}

(* ---------------- three-valued environmental constraints ---------------- *)

(* Ground pure built-ins are evaluated outright; [Env.builtin_predicates]
   marks the comparisons `Pure and the clock-reading predicates `Timed. *)
let pure_builtin base =
  List.exists
    (fun (name, _, kind) -> kind = `Pure && String.equal name base)
    Env.builtin_predicates

let eval_pure base (a : Oasis_util.Value.t) (b : Oasis_util.Value.t) =
  let c = Oasis_util.Value.compare a b in
  match base with
  | "eq" -> Some (c = 0)
  | "ne" -> Some (c <> 0)
  | "lt" -> Some (c < 0)
  | "le" -> Some (c <= 0)
  | "gt" -> Some (c > 0)
  | "ge" -> Some (c >= 0)
  | _ -> None

(* `True / `False are decided (pinned, or a ground pure built-in); `Maybe is
   a free predicate the derivation may assume favourable. *)
let eval_constraint pins pred args =
  let negated = Env.negated pred in
  let base = Env.base_name pred in
  let oriented v = if v <> negated then `True else `False in
  match List.assoc_opt base pins with
  | Some pinned -> oriented pinned
  | None -> (
      match args with
      | [ Term.Const a; Term.Const b ] when pure_builtin base -> (
          match eval_pure base a b with Some v -> oriented v | None -> `Maybe)
      | _ -> `Maybe)

(* ---------------- the fixpoint ---------------- *)

type strength = Conditional | Definite

let min_strength a b = if a = Definite && b = Definite then Definite else Conditional

let better candidate = function
  | None -> true
  | Some (existing, _) -> candidate = Definite && existing = Conditional

let analyse ?(adversary = no_credentials) ?(pins = []) (world : Lint.service list) =
  let service_of name = List.find_opt (fun (s : Lint.service) -> String.equal s.s_name name) world in
  let table : (string * string, strength * witness) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (service, role) ->
      Hashtbl.replace table (service, role) (Definite, Held { service; role }))
    adversary.held_roles;
  let held_appointment issuer kind =
    List.exists
      (fun (i, k) -> String.equal i issuer && String.equal k kind)
      adversary.held_appointments
  in
  (* Evaluates one body condition under the current table. [None] = not (yet)
     satisfiable; [Some (strength, premise)] otherwise. *)
  let rec eval_condition ~at ~monitored = function
    | Rule.Constraint (pred, args) -> (
        match eval_constraint pins pred args with
        | `True -> Some (Definite, Env_premise { pred; args; assumed = false })
        | `Maybe -> Some (Conditional, Env_premise { pred; args; assumed = true })
        | `False -> None)
    | Rule.Prereq r -> (
        let target = match r.Rule.service with None -> at | Some s -> s in
        match Hashtbl.find_opt table (target, r.Rule.name) with
        | Some (strength, w) -> Some (strength, Role_premise w)
        | None -> None)
    | Rule.Appointment r -> (
        let issuer = match r.Rule.service with None -> at | Some s -> s in
        let kind = r.Rule.name in
        if held_appointment issuer kind then
          Some (Definite, Appointment_premise { issuer; kind; monitored; via = None })
        else
          (* Appointment chain: an [appoint kind <- ...] rule at the issuer
             the adversary can fire grants self-issuance. *)
          match service_of issuer with
          | None -> None
          | Some s ->
              s.s_appointers
              |> List.filter (fun (a : Rule.authorization) -> String.equal a.privilege kind)
              |> List.filter_map (fun (a : Rule.authorization) ->
                     eval_authorization ~at:issuer a
                     |> Option.map (fun (strength, premises) ->
                            ( strength,
                              Fired { service = issuer; head = Appoint kind; loc = a.loc; premises }
                            )))
              |> pick_best
              |> Option.map (fun (strength, w) ->
                     (strength, Appointment_premise { issuer; kind; monitored; via = Some w })))
  (* The body of a [priv] or [appoint] rule: its required roles, then its
     constraints, all evaluated at the rule's own service. *)
  and eval_authorization ~at (a : Rule.authorization) =
    let roles =
      List.map
        (fun (r : Rule.cred_ref) -> eval_condition ~at ~monitored:false (Rule.Prereq r))
        a.required_roles
    in
    let constraints =
      List.map
        (fun (pred, args) -> eval_condition ~at ~monitored:false (Rule.Constraint (pred, args)))
        a.constraints
    in
    combine (roles @ constraints)
  and combine evaluated =
    List.fold_left
      (fun acc c ->
        match (acc, c) with
        | Some (s, ps), Some (s', p) -> Some (min_strength s s', p :: ps)
        | _ -> None)
      (Some (Definite, []))
      evaluated
    |> Option.map (fun (s, ps) -> (s, List.rev ps))
  and pick_best candidates =
    List.fold_left
      (fun acc c ->
        match (acc, c) with
        | None, c -> Some c
        | Some (Definite, _), _ -> acc
        | Some (Conditional, _), (Definite, _) -> Some c
        | Some _, _ -> acc)
      None candidates
  in
  let sweep () =
    let improved = ref false in
    List.iter
      (fun (s : Lint.service) ->
        List.iter
          (fun (a : Rule.activation) ->
            let key = (s.s_name, a.role) in
            let current = Hashtbl.find_opt table key in
            if current = None || fst (Option.get current) = Conditional then
              let evaluated =
                List.map2
                  (fun monitored c -> eval_condition ~at:s.s_name ~monitored c)
                  a.membership a.conditions
              in
              match combine evaluated with
              | Some (strength, premises) when better strength current ->
                  Hashtbl.replace table key
                    ( strength,
                      Fired { service = s.s_name; head = Role a.role; loc = a.loc; premises } );
                  improved := true
              | _ -> ())
          s.s_activations)
      world;
    !improved
  in
  while sweep () do
    ()
  done;
  let assumptions_of witness =
    let acc = ref [] in
    let note pred =
      let entry = (Env.base_name pred, not (Env.negated pred)) in
      if not (List.mem entry !acc) then acc := entry :: !acc
    in
    let rec walk = function
      | Held _ -> ()
      | Fired { premises; _ } -> List.iter walk_premise premises
    and walk_premise = function
      | Role_premise w -> walk w
      | Appointment_premise { via; _ } -> Option.iter walk via
      | Env_premise { pred; assumed; _ } -> if assumed then note pred
    in
    walk witness;
    List.sort compare !acc
  in
  let all_roles =
    List.concat_map
      (fun (s : Lint.service) ->
        List.map (fun (a : Rule.activation) -> (s.s_name, a.role)) s.s_activations)
      world
    |> List.sort_uniq compare
  in
  let goals =
    List.map
      (fun (service, role) ->
        match Hashtbl.find_opt table (service, role) with
        | Some (Definite, w) ->
            {
              g_service = service;
              g_role = role;
              g_verdict = Reachable;
              g_witness = Some w;
              g_assumptions = [];
            }
        | Some (Conditional, w) ->
            {
              g_service = service;
              g_role = role;
              g_verdict = Env_contingent;
              g_witness = Some w;
              g_assumptions = assumptions_of w;
            }
        | None ->
            {
              g_service = service;
              g_role = role;
              g_verdict = Unreachable;
              g_witness = None;
              g_assumptions = [];
            })
      all_roles
  in
  (* A privilege is as grantable as its best [priv] rule; the role table is
     final, so each rule body is evaluated once. *)
  let rule_strengths =
    List.concat_map
      (fun (s : Lint.service) ->
        List.map
          (fun (a : Rule.authorization) ->
            ((s.s_name, a.privilege), Option.map fst (eval_authorization ~at:s.s_name a)))
          s.s_authorizations)
      world
  in
  let privileges =
    List.sort_uniq compare (List.map fst rule_strengths)
    |> List.map (fun ((service, privilege) as key) ->
           let strengths =
             List.filter_map (fun (k, st) -> if k = key then st else None) rule_strengths
           in
           {
             p_service = service;
             p_privilege = privilege;
             p_verdict =
               (if List.mem Definite strengths then Reachable
                else if strengths <> [] then Env_contingent
                else Unreachable);
           })
  in
  { goals; privileges; r_adversary = adversary; r_pins = pins }

let goal_for result ~service ~role =
  List.find_opt
    (fun g -> String.equal g.g_service service && String.equal g.g_role role)
    result.goals

(* ---------------- R-rule findings ---------------- *)

let first_rule_loc (world : Lint.service list) service role =
  List.find_map
    (fun (s : Lint.service) ->
      if String.equal s.s_name service then
        List.find_map
          (fun (a : Rule.activation) ->
            if String.equal a.role role then Some a.loc else None)
          s.s_activations
      else None)
    world
  |> Option.value ~default:Rule.no_loc

(* Roles that guard something: required by a privilege or by appointment
   issuance. A revocation-exempt path to one of these is worth a finding. *)
let sensitive_roles (world : Lint.service list) =
  List.concat_map
    (fun (s : Lint.service) ->
      List.concat_map
        (fun (auth : Rule.authorization) ->
          List.map
            (fun (r : Rule.cred_ref) ->
              ((match r.Rule.service with None -> s.s_name | Some s -> s), r.Rule.name))
            auth.required_roles)
        (s.s_authorizations @ s.s_appointers))
    world
  |> List.sort_uniq compare

(* The prerequisite closure of a role: every (service, role) some derivation
   of it may rest on, over all rules (conservative — not witness-specific). *)
let prereq_closure (world : Lint.service list) seed =
  let rules_of (service, role) =
    List.concat_map
      (fun (s : Lint.service) ->
        if String.equal s.s_name service then
          List.filter
            (fun (a : Rule.activation) -> String.equal a.role role)
            s.s_activations
          |> List.map (fun a -> (service, a))
        else [])
      world
  in
  let rec grow closure frontier =
    match frontier with
    | [] -> closure
    | node :: rest ->
        if List.mem node closure then grow closure rest
        else
          let next =
            List.concat_map
              (fun (at, (a : Rule.activation)) ->
                List.filter_map
                  (function
                    | Rule.Prereq r ->
                        Some ((match r.Rule.service with None -> at | Some s -> s), r.Rule.name)
                    | Rule.Appointment _ | Rule.Constraint _ -> None)
                  a.conditions)
              (rules_of node)
          in
          grow (node :: closure) (next @ rest)
  in
  grow [] [ seed ]

let findings (world : Lint.service list) =
  let r_empty = analyse ~adversary:no_credentials world in
  let r_full = analyse ~adversary:(permissive world) world in
  let r001 =
    List.filter_map
      (fun g ->
        match g.g_verdict with
        | Unreachable -> None
        | v ->
            let loc =
              match g.g_witness with
              | Some (Fired { loc; _ }) -> loc
              | _ -> first_rule_loc world g.g_service g.g_role
            in
            Some
              {
                Lint.code = "R001";
                check = "open-privilege";
                severity = Lint.Error;
                service = g.g_service;
                loc;
                message =
                  Printf.sprintf "role %s is activable with an empty credential wallet%s" g.g_role
                    (match v with
                    | Env_contingent ->
                        Printf.sprintf " when the environment cooperates (%s)"
                          (String.concat ", "
                             (List.map
                                (fun (p, v) -> Printf.sprintf "%s=%b" p v)
                                g.g_assumptions))
                    | _ -> "");
              })
      r_empty.goals
  in
  let r002 =
    List.filter_map
      (fun g ->
        if g.g_verdict = Unreachable then
          Some
            {
              Lint.code = "R002";
              check = "dead-grant";
              severity = Lint.Error;
              service = g.g_service;
              loc = first_rule_loc world g.g_service g.g_role;
              message =
                Printf.sprintf
                  "role %s cannot fire under any credential set or environment (dead grant)"
                  g.g_role;
            }
        else None)
      r_full.goals
  in
  let r003 =
    let reachable_sensitive =
      List.filter
        (fun node ->
          match goal_for r_full ~service:(fst node) ~role:(snd node) with
          | Some g -> g.g_verdict <> Unreachable
          | None -> false)
        (sensitive_roles world)
    in
    let seen = Hashtbl.create 16 in
    List.concat_map
      (fun ((s_svc, s_role) as sensitive) ->
        let closure = prereq_closure world sensitive in
        List.concat_map
          (fun (s : Lint.service) ->
            List.concat_map
              (fun (a : Rule.activation) ->
                if not (List.mem (s.s_name, a.role) closure) then []
                else
                  List.filter_map
                    (fun (monitored, condition) ->
                      match condition with
                      | Rule.Appointment r when not monitored ->
                          let issuer =
                            match r.Rule.service with None -> s.s_name | Some s -> s
                          in
                          let key = (s.s_name, a.loc, r.Rule.name) in
                          if Hashtbl.mem seen key then None
                          else begin
                            Hashtbl.replace seen key ();
                            Some
                              {
                                Lint.code = "R003";
                                check = "revocation-exempt";
                                severity = Lint.Warning;
                                service = s.s_name;
                                loc = a.loc;
                                message =
                                  Printf.sprintf
                                    "appointment %s@%s on a path to sensitive role %s@%s is not \
                                     membership-monitored; revoking it never cascades"
                                    r.Rule.name issuer s_role s_svc;
                              }
                          end
                      | _ -> None)
                    (List.combine a.membership a.conditions))
              s.s_activations)
          world)
      reachable_sensitive
  in
  Lint.sort_findings (r001 @ r002 @ r003)

(* ---------------- rendering ---------------- *)

let pp_head ppf = function
  | Role r -> Format.pp_print_string ppf r
  | Appoint k -> Format.fprintf ppf "appoint %s" k

let pp_args ppf = function
  | [] -> ()
  | args ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Term.pp)
        args

let rec pp_witness ppf = function
  | Held { service; role } -> Format.fprintf ppf "held RMC %s@%s" role service
  | Fired { service; head; loc; premises } ->
      Format.fprintf ppf "@[<v 2>rule %a@%s [%a]%a@]" pp_head head service Rule.pp_loc loc
        (fun ppf -> List.iter (fun p -> Format.fprintf ppf "@,- %a" pp_premise p))
        premises

and pp_premise ppf = function
  | Role_premise w -> pp_witness ppf w
  | Appointment_premise { issuer; kind; monitored; via } -> (
      let star = if monitored then "*" else "" in
      match via with
      | None -> Format.fprintf ppf "%sappt %s@%s (held)" star kind issuer
      | Some w -> Format.fprintf ppf "@[<v 2>%sappt %s@%s (self-issued)@,- %a@]" star kind issuer pp_witness w)
  | Env_premise { pred; args; assumed } ->
      Format.fprintf ppf "env %s%a (%s)" pred pp_args args
        (if assumed then "assumed" else "decided")

let pp_goal ppf g =
  Format.fprintf ppf "@[<v 2>%-14s %s@%s" (verdict_to_string g.g_verdict) g.g_role g.g_service;
  if g.g_assumptions <> [] then
    Format.fprintf ppf " assuming %s"
      (String.concat ", " (List.map (fun (p, v) -> Printf.sprintf "%s=%b" p v) g.g_assumptions));
  (match g.g_witness with
  | Some w -> Format.fprintf ppf "@,%a" pp_witness w
  | None -> ());
  Format.fprintf ppf "@]"

let pp_result ppf r =
  Format.fprintf ppf "@[<v>adversary: %d appointment(s), %d role(s) held"
    (List.length r.r_adversary.held_appointments)
    (List.length r.r_adversary.held_roles);
  if r.r_adversary.held_appointments <> [] then
    Format.fprintf ppf " — %s"
      (String.concat ", "
         (List.map (fun (i, k) -> Printf.sprintf "%s@%s" k i) r.r_adversary.held_appointments));
  if r.r_pins <> [] then
    Format.fprintf ppf "@,pins: %s"
      (String.concat ", " (List.map (fun (p, v) -> Printf.sprintf "%s=%b" p v) r.r_pins));
  List.iter (fun g -> Format.fprintf ppf "@,%a" pp_goal g) r.goals;
  List.iter
    (fun p ->
      Format.fprintf ppf "@,%-14s priv %s@%s" (verdict_to_string p.p_verdict) p.p_privilege
        p.p_service)
    r.privileges;
  Format.fprintf ppf "@]"

(* ---------------- JSON ---------------- *)

let json_string = Lint.json_string

let rec witness_json = function
  | Held { service; role } ->
      Printf.sprintf "{\"held\":{\"service\":%s,\"role\":%s}}" (json_string service)
        (json_string role)
  | Fired { service; head; loc; premises } ->
      let kind, name =
        match head with Role r -> ("role", r) | Appoint k -> ("appoint", k)
      in
      Printf.sprintf
        "{\"rule\":{\"service\":%s,\"kind\":%s,\"head\":%s,\"line\":%d,\"col\":%d},\"premises\":[%s]}"
        (json_string service) (json_string kind) (json_string name) loc.Rule.line loc.Rule.col
        (String.concat "," (List.map premise_json premises))

and premise_json = function
  | Role_premise w -> Printf.sprintf "{\"type\":\"role\",\"witness\":%s}" (witness_json w)
  | Appointment_premise { issuer; kind; monitored; via } ->
      Printf.sprintf "{\"type\":\"appointment\",\"issuer\":%s,\"kind\":%s,\"monitored\":%b%s}"
        (json_string issuer) (json_string kind) monitored
        (match via with
        | None -> ",\"held\":true"
        | Some w -> Printf.sprintf ",\"via\":%s" (witness_json w))
  | Env_premise { pred; args; assumed } ->
      Printf.sprintf "{\"type\":\"env\",\"pred\":%s,\"args\":[%s],\"assumed\":%b}"
        (json_string pred)
        (String.concat "," (List.map (fun t -> json_string (Term.to_string t)) args))
        assumed

let to_json ?(findings = []) r =
  let goal_json g =
    Printf.sprintf
      "{\"service\":%s,\"role\":%s,\"verdict\":%s,\"assumptions\":[%s],\"witness\":%s}"
      (json_string g.g_service) (json_string g.g_role)
      (json_string (verdict_to_string g.g_verdict))
      (String.concat ","
         (List.map
            (fun (p, v) -> Printf.sprintf "{\"pred\":%s,\"value\":%b}" (json_string p) v)
            g.g_assumptions))
      (match g.g_witness with None -> "null" | Some w -> witness_json w)
  in
  let privilege_json p =
    Printf.sprintf "{\"service\":%s,\"privilege\":%s,\"verdict\":%s}" (json_string p.p_service)
      (json_string p.p_privilege)
      (json_string (verdict_to_string p.p_verdict))
  in
  let count sev = List.length (List.filter (fun (f : Lint.finding) -> f.severity = sev) findings) in
  Printf.sprintf
    "{\"adversary\":{\"held_appointments\":[%s],\"held_roles\":[%s]},\"pins\":[%s],\"goals\":[%s],\"privileges\":[%s],\"findings\":[%s],\"errors\":%d,\"warnings\":%d,\"infos\":%d}"
    (String.concat ","
       (List.map
          (fun (i, k) ->
            Printf.sprintf "{\"issuer\":%s,\"kind\":%s}" (json_string i) (json_string k))
          r.r_adversary.held_appointments))
    (String.concat ","
       (List.map
          (fun (s, role) ->
            Printf.sprintf "{\"service\":%s,\"role\":%s}" (json_string s) (json_string role))
          r.r_adversary.held_roles))
    (String.concat ","
       (List.map
          (fun (p, v) -> Printf.sprintf "{\"pred\":%s,\"value\":%b}" (json_string p) v)
          r.r_pins))
    (String.concat "," (List.map goal_json r.goals))
    (String.concat "," (List.map privilege_json r.privileges))
    (String.concat "," (List.map Lint.finding_json findings))
    (count Lint.Error) (count Lint.Warning) (count Lint.Info)
