module Rule = Oasis_policy.Rule
module Parser = Oasis_policy.Parser
module World = Oasis_core.World
module Service = Oasis_core.Service

type clause =
  | Accept_appointment of {
      at : string;
      role : string;
      params : Oasis_policy.Term.t list;
      kind : string;
      cert_args : Oasis_policy.Term.t list;
      issuer : string;
      monitored : bool;
      extra : (bool * Rule.condition) list;
      initial : bool;
    }
  | Accept_role of {
      at : string;
      role : string;
      params : Oasis_policy.Term.t list;
      foreign_role : string;
      role_args : Oasis_policy.Term.t list;
      issuer : string;
      monitored : bool;
      extra : (bool * Rule.condition) list;
    }

type t = {
  sname : string;
  parties : string * string;
  established_at : float;
  clauses : clause list;
  rules : (string * Rule.activation) list;
}

let rule_of_clause = function
  | Accept_appointment { role; params; kind; cert_args; issuer; monitored; extra; initial; _ } ->
      Rule.activation ~initial ~role ~params
        ((monitored, Rule.Appointment { service = Some issuer; name = kind; args = cert_args })
        :: extra)
  | Accept_role { role; params; foreign_role; role_args; issuer; monitored; extra; _ } ->
      Rule.activation ~role ~params
        ((monitored, Rule.Prereq { service = Some issuer; name = foreign_role; args = role_args })
        :: extra)

let clause_host = function Accept_appointment { at; _ } | Accept_role { at; _ } -> at

let establish world ~name ~between ~and_ ~clauses =
  let party_a = Service.service_name between in
  let party_b = Service.service_name and_ in
  let host_of clause =
    let at = clause_host clause in
    if String.equal at party_a then between
    else if String.equal at party_b then and_
    else
      invalid_arg
        (Printf.sprintf "Sla.establish: clause names %s, which is not a party to %s" at name)
  in
  let rules =
    List.map
      (fun clause ->
        let host = host_of clause in
        let rule = rule_of_clause clause in
        Service.add_rule host (Parser.Activation rule);
        (Service.service_name host, rule))
      clauses
  in
  {
    sname = name;
    parties = (party_a, party_b);
    established_at = World.now world;
    clauses;
    rules;
  }

let clauses t = t.clauses

let pp ppf t =
  let a, b = t.parties in
  Format.fprintf ppf "@[<v>SLA %S between %s and %s (t=%g):@,%a@]" t.sname a b t.established_at
    (Format.pp_print_list (fun ppf (host, rule) ->
         Format.fprintf ppf "  at %s: %a" host Rule.pp_activation rule))
    t.rules
