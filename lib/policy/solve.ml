module Value = Oasis_util.Value
module Ident = Oasis_util.Ident
module Subst = Term.Subst
module Obs = Oasis_obs.Obs

type cred = {
  cred_id : Ident.t;
  issuer : Ident.t;
  cred_name : string;
  cred_args : Value.t list;
}

type context = {
  find_rmcs : service:string option -> name:string -> cred list;
  find_appointments : issuer:string option -> name:string -> cred list;
  env_check : string -> Value.t list -> bool;
  env_enumerate : string -> Value.t list list;
}

type support =
  | By_rmc of cred
  | By_appointment of cred
  | By_env of string * Value.t list

type proof = {
  rule : Rule.activation;
  subst : Subst.t;
  role_args : Value.t list;
  support : support list;
}

exception Unbound_head of string * string
exception Nonground_negation of string

(* Generic depth-first proof search over the conditions. [emit] receives each
   full solution; it returns [true] to continue searching or [false] to cut.
   [on_step] fires once per condition visit — the proof-search cost metric. *)
let search ?(on_step = fun () -> ()) ctx conditions ~seed ~emit =
  let rec go subst acc = function
    | [] -> emit subst (List.rev acc)
    | condition :: rest ->
        on_step ();
        let try_creds kind candidates (r : Rule.cred_ref) =
          (* Try each candidate credential that unifies with the pattern. *)
          let rec loop = function
            | [] -> true
            | cred :: more -> (
                match Term.unify_args subst r.Rule.args cred.cred_args with
                | None -> loop more
                | Some subst' ->
                    if go subst' (kind cred :: acc) rest then loop more else false)
          in
          loop candidates
        in
        (match condition with
        | Rule.Prereq r ->
            try_creds (fun c -> By_rmc c) (ctx.find_rmcs ~service:r.service ~name:r.name) r
        | Rule.Appointment r ->
            try_creds
              (fun c -> By_appointment c)
              (ctx.find_appointments ~issuer:r.service ~name:r.name)
              r
        | Rule.Constraint (name, args) -> (
            match List.map (Term.ground subst) args with
            | grounded when List.for_all Option.is_some grounded ->
                let values = List.map Option.get grounded in
                if ctx.env_check name values then
                  go subst (By_env (name, values) :: acc) rest
                else true
            | _ when String.length name > 0 && name.[0] = '!' ->
                (* A negated constraint with free variables would enumerate
                   no tuples and "prove" nothing, silently. Negation as
                   failure is only sound over ground instances: refuse. *)
                raise (Nonground_negation name)
            | _ ->
                (* Free variables: enumerate matching facts to bind them. *)
                let rec loop = function
                  | [] -> true
                  | tuple :: more -> (
                      match Term.unify_args subst args tuple with
                      | None -> loop more
                      | Some subst' ->
                          if go subst' (By_env (name, tuple) :: acc) rest then loop more
                          else false)
                in
                loop (ctx.env_enumerate name)))
  in
  ignore (go seed [] conditions)

let ground_head (rule : Rule.activation) subst =
  List.map
    (fun param ->
      match Term.ground subst param with
      | Some v -> v
      | None ->
          let var = match param with Term.Var v -> v | Term.Const _ -> assert false in
          raise (Unbound_head (rule.role, var)))
    rule.params

(* Where searches report: the registry, and the [solve.steps{kind}]
   histogram of each entry point, looked up once, at its first search, so
   a kind never searched registers no key. *)
type observer = {
  obs : Obs.t;
  activation_steps : Obs.Histogram.t Lazy.t;
  authorization_steps : Obs.Histogram.t Lazy.t;
}

let observer obs =
  let steps kind = lazy (Obs.histogram obs "solve.steps" ~labels:[ ("kind", kind) ]) in
  {
    obs;
    activation_steps = steps "activation";
    authorization_steps = steps "authorization";
  }

(* Wraps one solver entry point: counts condition visits into its
   [solve.steps] histogram and (when tracing) brackets the search in a
   [solve.<kind>] span. Without an observer the search runs untouched. *)
let observed ?obs ~kind ~histogram ~rule f =
  match obs with
  | None -> f (fun () -> ())
  | Some o ->
      let steps = ref 0 in
      let run () = f (fun () -> incr steps) in
      let result =
        if Obs.tracing o.obs then Obs.span o.obs ("solve." ^ kind) ~labels:[ ("rule", rule) ] run
        else run ()
      in
      Obs.Histogram.observe (Lazy.force (histogram o)) (float_of_int !steps);
      result

let activation ?obs ctx (rule : Rule.activation) ?(seed = Subst.empty) () =
  observed ?obs ~kind:"activation" ~histogram:(fun o -> o.activation_steps) ~rule:rule.role
    (fun on_step ->
      let result = ref None in
      search ~on_step ctx rule.conditions ~seed ~emit:(fun subst support ->
          result := Some { rule; subst; role_args = ground_head rule subst; support };
          false);
      !result)

let authorization ?obs ctx (auth : Rule.authorization) ?(seed = Subst.empty) () =
  observed ?obs ~kind:"authorization" ~histogram:(fun o -> o.authorization_steps)
    ~rule:auth.privilege (fun on_step ->
      let conditions =
        List.map (fun r -> Rule.Prereq r) auth.required_roles
        @ List.map (fun (name, args) -> Rule.Constraint (name, args)) auth.constraints
      in
      let result = ref None in
      search ~on_step ctx conditions ~seed ~emit:(fun subst support ->
          result := Some (subst, support);
          false);
      !result)
