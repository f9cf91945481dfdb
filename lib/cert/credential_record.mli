(** Credential records (CR) — issuer-side validity state (Fig. 1, 4, 5).

    "The issuer keeps information on the RMC, including its current
    validity, in a credential record (CR). The credential record reference
    (CRR) in the RMC allows the issuer and the CR to be located." (Sect. 4)

    A store holds the records of one issuing service. A revoked record keeps
    its revocation's time and reason for good, so it is also the
    revocation's tombstone: other nodes read it through
    {!Oasis_core.World.revocation}. The issuer announces revocations on its
    one event channel, which remote caches and dependent roles watch (the
    ECR proxies of Fig. 5 are those watches).

    Storage is sharded sixteen ways by certificate sequence number
    (DESIGN.md §14): a store of 10^6 records pays per-shard hashtable resizes instead of store-wide
    pauses, and lookups stay O(1) within a shard. The interface is
    unchanged — sharding is invisible except to the allocator. *)

type status =
  | Valid
  | Revoked of { at : float; reason : string }

type kind = Kind_rmc | Kind_appointment

type t = private {
  cert_id : Oasis_util.Ident.t;
  issuer : Oasis_util.Ident.t;
  kind : kind;
  principal : Oasis_util.Ident.t;  (** real principal identity, kept for audit *)
  name : string;  (** role name or appointment kind *)
  args : Oasis_util.Value.t list;
  issued_at : float;
  mutable status : status;
}

val is_valid : t -> bool

type store

val create_store : unit -> store

val add :
  store ->
  cert_id:Oasis_util.Ident.t ->
  issuer:Oasis_util.Ident.t ->
  kind:kind ->
  principal:Oasis_util.Ident.t ->
  name:string ->
  args:Oasis_util.Value.t list ->
  issued_at:float ->
  t
(** Raises [Invalid_argument] on duplicate certificate ids. *)

val find : store -> Oasis_util.Ident.t -> t option

val revoke : store -> Oasis_util.Ident.t -> at:float -> reason:string -> t option
(** Marks the record revoked. [Some record] if it existed and was valid
    (i.e. this call changed its state); [None] otherwise. Revocation is
    permanent — OASIS re-activates roles by issuing fresh certificates, it
    never resurrects old ones. *)

val count : store -> int

val iter : store -> (t -> unit) -> unit
