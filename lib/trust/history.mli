(** A party's interaction history.

    "Each party will accumulate audit certificates which embody its
    interaction history" (abstract). Parties present their history when
    approaching an unknown counterparty; the assessor validates what is
    presented. A party controls its own wallet — it can withhold
    unfavourable certificates, which is why assessors also weigh volume and
    recency ({!Assess}). *)

type t

val create : Oasis_util.Ident.t -> t

val add : t -> Audit.t -> bool
(** Only certificates involving the owner are kept; others are ignored, as
    is any certificate whose id the wallet already holds (re-presenting one
    favourable certificate ten times must not count it ten times). Returns
    whether the certificate was actually filed — [false] means it was a
    duplicate or did not involve the owner, so downstream aggregates need
    no update (anti-entropy re-delivery relies on this idempotence). *)

val present : t -> Audit.t list
(** Everything, newest first. *)

val present_favourable : t -> Audit.t list
(** What a strategic party shows: only certificates where its own outcome is
    {!Audit.Fulfilled}. *)

val size : t -> int
