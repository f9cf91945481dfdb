(** Role activation rules, membership rules and authorization rules.

    Sect. 2: "Activation of any role in OASIS is explicitly controlled by a
    role activation rule [which] specifies, in Horn clause logic, the
    conditions that a user must meet in order to activate the role. The
    conditions may include prerequisite roles, appointment credentials and
    environmental constraints." The membership rule is the subset of those
    conditions that "must continue to be true for the role to remain
    active"; authorization rules guard service invocation. *)

(** Source position of a rule in its policy file: 1-based line and column
    of the statement's first token. Rules built programmatically carry
    {!no_loc} (line 0). The linter reports findings at these positions. *)
type loc = { line : int; col : int }

val no_loc : loc

val pp_loc : Format.formatter -> loc -> unit
(** ["line:col"], or ["<unlocated>"] for {!no_loc}. *)

(** A reference to a credential-shaped condition. [service = None] means the
    rule-owning service itself; [Some name] is a symbolic service name
    resolved against the world's registry when policy is installed. *)
type cred_ref = {
  service : string option;
  name : string;  (** role name or appointment kind *)
  args : Term.t list;
}

type condition =
  | Prereq of cred_ref  (** an RMC for a prerequisite role *)
  | Appointment of cred_ref  (** an appointment certificate *)
  | Constraint of string * Term.t list  (** environmental predicate *)

(** One activation rule for a role. A role may have several rules; any
    satisfied rule admits the principal (Horn clause disjunction). *)
type activation = {
  role : string;
  params : Term.t list;  (** head parameters, usually variables *)
  conditions : condition list;
  membership : bool list;
      (** same length as [conditions]; [true] marks a membership condition
          that is actively monitored for the life of the role *)
  initial : bool;
      (** an initial role starts a session; its rule has no prerequisite
          roles (Sect. 2) *)
  loc : loc;  (** source position; {!no_loc} for programmatic rules *)
}

val activation :
  ?initial:bool ->
  ?loc:loc ->
  role:string ->
  params:Term.t list ->
  (bool * condition) list ->
  activation
(** [(monitored, condition)] pairs. Raises [Invalid_argument] if [initial]
    is set and a prerequisite role appears, or if a non-initial rule has no
    conditions at all. *)

(** Authorization of a privilege (method invocation) at a service:
    "possession of role membership certificates of this and other services
    together with environmental constraints". *)
type authorization = {
  privilege : string;
  priv_args : Term.t list;
  required_roles : cred_ref list;
  constraints : (string * Term.t list) list;
  loc : loc;  (** source position; {!no_loc} for programmatic rules *)
}

val pp_activation : Format.formatter -> activation -> unit
val pp_authorization : Format.formatter -> authorization -> unit

val head_vars : activation -> string list
(** Variables appearing in the head. *)

val membership_conditions : activation -> (int * condition) list
(** Indexed conditions tagged for monitoring. *)
