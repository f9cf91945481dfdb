(** Service-level agreements (Sect. 3, 5).

    "Widely distributed services may establish agreements on the use of one
    another's appointment certificates ... The doctor can enter the role
    visiting doctor in the research institute through an activation rule
    which recognises the home domain appointment certificate as a
    precondition; this activation rule is part of the policy established by
    the service level agreement between the hospital and the research
    institute."

    An SLA is therefore realised as activation/authorization rules installed
    at the party services, referencing the other party's roles and
    appointment certificates; validation happens by callback to the issuer
    as usual. This module installs such rules and keeps the agreement as a
    first-class record (parties, date, clauses) for inspection. *)

type t

type clause =
  | Accept_appointment of {
      at : string;  (** installing service's registered name *)
      role : string;  (** local role the foreign credential admits *)
      params : Oasis_policy.Term.t list;
      kind : string;  (** foreign appointment kind *)
      cert_args : Oasis_policy.Term.t list;
      issuer : string;  (** registered name of the foreign issuer (e.g. a CIV) *)
      monitored : bool;  (** membership-monitor the foreign credential *)
      extra : (bool * Oasis_policy.Rule.condition) list;
          (** additional conditions, e.g. environmental constraints *)
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
      extra : (bool * Oasis_policy.Rule.condition) list;
    }
      (** Accept the other party's RMC as prerequisite — the Fig. 3 pattern
          where the national EHR service recognises hospital RMCs. *)

val establish :
  Oasis_core.World.t ->
  name:string ->
  between:Oasis_core.Service.t ->
  and_:Oasis_core.Service.t ->
  clauses:clause list ->
  t
(** Installs every clause's activation rule at the named party service and
    records the agreement. Raises [Invalid_argument] if a clause names a
    service that is neither party. *)

val name : t -> string
val parties : t -> string * string
val clauses : t -> clause list
val rules_installed : t -> (string * Oasis_policy.Rule.activation) list

val pp : Format.formatter -> t -> unit
