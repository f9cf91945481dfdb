(** Administrative domains (Sect. 1, 3).

    "Distributed systems contain many domains; for example the healthcare
    domain comprises subdomains of public and private hospitals, primary
    care practices, research institutes, clinics ... as well as national
    services such as electronic health record management."

    A domain groups services that share an environment database (the
    intra-domain "database lookup at some service" of Sect. 2) and a CIV
    cluster that issues and validates the domain's appointment
    certificates. *)

type t

val create :
  Oasis_core.World.t -> name:string -> ?offline_sign:bool -> unit -> t
(** Creates the domain with its CIV cluster registered as ["<name>.civ"];
    [offline_sign] picks the cluster's signing scheme ({!Civ.create}). *)

val civ : t -> Civ.t

val env : t -> Oasis_policy.Env.t
(** The domain's shared environment database. *)

val add_service :
  t ->
  name:string ->
  ?config:Oasis_core.Service.config ->
  policy:string ->
  unit ->
  Oasis_core.Service.t
(** Creates a service inside the domain: it shares the domain environment
    and registers under ["<domain>.<name>"]. Policy rules within the domain
    can therefore reference siblings as [@<domain>.<sibling>] and the CIV
    as [@<domain>.civ]. *)

val services : t -> Oasis_core.Service.t list

val find_service : t -> string -> Oasis_core.Service.t option
(** Lookup by the short (unqualified) name. *)
