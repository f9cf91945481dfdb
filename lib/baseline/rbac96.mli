(** Centralised RBAC96 baseline (Sandhu et al., ref [15]).

    The paper positions OASIS against "other RBAC schemes" with globally
    centralised administration of role naming and privilege management.
    This module is that comparator: a single administration point with
    user–role assignment (UA), permission–role assignment (PA), a role
    hierarchy, static separation of duty, and sessions (RBAC0–RBAC2).
    Every administrative mutation increments {!admin_ops}; experiment E6
    compares this churn against OASIS appointments and plain ACLs. *)

type t

type permission = { operation : string; target : string }

val create : unit -> t

(** {1 Administration (counted)} *)

val add_role : t -> string -> unit
(** Idempotent; counted only when it changes state (likewise below). *)

val add_inheritance : t -> senior:string -> junior:string -> unit
(** Seniors inherit juniors' permissions. Raises [Invalid_argument] on
    unknown roles or if the edge would create a cycle. *)

val add_user : t -> Oasis_util.Ident.t -> unit
val assign_user : t -> Oasis_util.Ident.t -> string -> unit
val deassign_user : t -> Oasis_util.Ident.t -> string -> unit
(** Deassignment also drops the role (and its dependants via hierarchy)
    from the user's live sessions — centralised revocation. *)

val grant_permission : t -> string -> permission -> unit

val add_ssd : t -> string -> string -> unit
(** Static separation of duty: no user may be assigned both roles
    (ref [16]). Raises [Invalid_argument] if some user already holds both. *)

val admin_ops : t -> int

(** {1 Sessions} *)

type session

val create_session : t -> Oasis_util.Ident.t -> session

val activate_role : t -> session -> string -> (unit, string) result
(** Allowed when the user is assigned the role or a senior of it. *)

val active_roles : session -> string list

val check : t -> session -> permission -> bool
(** Permission flows up the hierarchy: an active senior role carries its
    juniors' permissions. *)

(** {1 Introspection} *)

val assigned_roles : t -> Oasis_util.Ident.t -> string list
val authorized_roles : t -> Oasis_util.Ident.t -> string list
(** Assigned roles plus everything junior to them. *)

val users_of_role : t -> string -> Oasis_util.Ident.t list
val role_count : t -> int
val user_count : t -> int
