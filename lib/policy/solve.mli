(** Backtracking evaluation of activation and authorization rules.

    The solver proves a rule's body from the credentials a principal has
    presented plus the environment, binding role parameters by unification.
    Conditions are tried left to right with backtracking, so policy authors
    order variable-binding conditions (credentials, fact lookups) before
    ground checks — the convention used throughout the examples.

    A successful proof records {e which} credential supported each
    condition: the active-security layer needs exactly this to wire event
    channels for the membership rule (Fig. 5). *)

(** A candidate credential as abstracted by the credential store: the solver
    never sees signatures, only validated content. *)
type cred = {
  cred_id : Oasis_util.Ident.t;  (** certificate identifier *)
  issuer : Oasis_util.Ident.t;  (** issuing service *)
  cred_name : string;  (** role name / appointment kind *)
  cred_args : Oasis_util.Value.t list;
}

(** How the store and environment answer the solver. [service]/[issuer]
    filters carry the {e symbolic} names out of the rule; the store resolves
    them. *)
type context = {
  find_rmcs : service:string option -> name:string -> cred list;
  find_appointments : issuer:string option -> name:string -> cred list;
  env_check : string -> Oasis_util.Value.t list -> bool;
  env_enumerate : string -> Oasis_util.Value.t list list;
}

type support =
  | By_rmc of cred
  | By_appointment of cred
  | By_env of string * Oasis_util.Value.t list
      (** the ground instance that held *)

type proof = {
  rule : Rule.activation;
  subst : Term.Subst.t;
  role_args : Oasis_util.Value.t list;  (** ground head parameters *)
  support : support list;  (** one entry per body condition, in order *)
}

exception Unbound_head of string * string
(** [(role, variable)]: the rule proved but left a head parameter unbound —
    a policy bug; RMCs must be ground (Fig. 4 protects concrete fields). *)

exception Nonground_negation of string
(** A negated environmental constraint (e.g. [env:!excluded(doc, pat)]) was
    reached with unbound arguments. Negation as failure cannot enumerate the
    (unbounded) complement of a predicate, so earlier conditions must bind
    every variable it mentions; anything else is a policy configuration
    error that must surface loudly rather than yield "no proof". *)

type observer
(** Where searches report: a registry, with each entry point's
    [solve.steps{kind}] histogram looked up once, at its first search. *)

val observer : Oasis_obs.Obs.t -> observer

val activation :
  ?obs:observer -> context -> Rule.activation -> ?seed:Term.Subst.t -> unit -> proof option
(** First proof found, or [None]. [seed] pre-binds head variables when the
    principal requests specific parameters (e.g. a particular patient).
    With [obs], condition visits feed the [solve.steps{kind=activation}]
    histogram and tracing brackets the search in a [solve.activation] span
    labelled with the role. *)

val activation_all : context -> Rule.activation -> ?seed:Term.Subst.t -> unit -> proof list
(** All proofs (distinct supporting-credential combinations), unobserved;
    used by tests. *)

val authorization :
  ?obs:observer ->
  context ->
  Rule.authorization ->
  ?seed:Term.Subst.t ->
  unit ->
  (Term.Subst.t * support list) option
(** Proves an invocation rule: required roles first, then constraints. *)
