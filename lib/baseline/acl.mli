(** Plain access-control-list baseline.

    "RBAC ... provides a means of expressing access control which is
    scalable to large numbers of principals. The detailed management of
    large numbers of access control lists, as people change their employment
    or function, is avoided." (Sect. 1) This module is the strawman that
    claim measures against: per-object principal lists, so onboarding and
    offboarding a principal touches every object they may access. *)

type t

val create : unit -> t

val add_object : t -> string -> unit

val grant : t -> principal:Oasis_util.Ident.t -> obj:string -> operation:string -> unit
(** Counted when it changes state. Raises [Invalid_argument] on an unknown
    object. *)

val revoke : t -> principal:Oasis_util.Ident.t -> obj:string -> operation:string -> unit

val check : t -> principal:Oasis_util.Ident.t -> obj:string -> operation:string -> bool

val offboard : t -> Oasis_util.Ident.t -> int
(** Removes the principal from every ACL; returns (and counts) the entries
    touched — the churn RBAC avoids. *)

val admin_ops : t -> int
val entry_count : t -> int
