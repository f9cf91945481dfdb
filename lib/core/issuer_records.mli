(** The issuer side of active security (Fig. 5, Sect. 4).

    "The issuer keeps information on the RMC, including its current
    validity, in a credential record." Every issuer — a service issuing RMCs
    and appointments, or a domain's CIV cluster issuing appointments —
    keeps its records here and announces a record's death on that record's
    event channel: a retained [Invalidated] tombstone under change-event
    monitoring, or the end of the record's periodic [Beat]s under heartbeat
    monitoring. Which of the two the issuer runs follows from
    {!World.monitoring}.

    Signing is {!Oasis_cert.Issuer_key}'s business; relying-side monitoring
    (dependency watches, suspects, reconciliation) is the relying service's.
    What a revocation costs its caller — counters, decision-log records,
    tearing down the role's own watches, replication — the caller passes to
    {!revoke}. *)

type t

val create : World.t -> issuer:Oasis_util.Ident.t -> is_down:(unit -> bool) -> t
(** An empty record store for [issuer]. [is_down] says whether the issuer
    can act now: an expiry that falls due while it holds is deferred to
    {!resume}. *)

val add :
  t ->
  cert_id:Oasis_util.Ident.t ->
  kind:Oasis_cert.Credential_record.kind ->
  principal:Oasis_util.Ident.t ->
  name:string ->
  args:Oasis_util.Value.t list ->
  ?expiry:float * (unit -> unit) ->
  unit ->
  Oasis_cert.Credential_record.t
(** Files a valid record issued now and, under heartbeat monitoring, starts
    its emitter (first beat one period from now). With [expiry = (at,
    expire)] and [at] in the future, [expire] — the caller's revoke with
    reason ["expired"] — runs at [at], or at the next {!resume} if the
    issuer is down then, so dependent roles collapse at the deadline rather
    than at their next validation. Raises [Invalid_argument] on a duplicate
    id. *)

val revoke :
  t ->
  Oasis_util.Ident.t ->
  reason:string ->
  bookkeeping:(Oasis_cert.Credential_record.t -> unit) ->
  bool
(** Revokes a valid record, in this order: flip it in the store, run the
    caller's [bookkeeping], stop its emitter, publish the retained
    [Invalidated] tombstone on its channel. The publish comes last so the
    caller's trace events and decision records precede the broker's.
    [false] (and nothing runs) if the record is unknown or already
    revoked. *)

val is_valid : t -> Oasis_util.Ident.t -> bool
(** Whether the record exists and is valid; [false] for an unknown id. *)

val find : t -> Oasis_util.Ident.t -> Oasis_cert.Credential_record.t option

val find_named : t -> name:string -> Oasis_cert.Credential_record.t list
(** Every record (valid or revoked) of one role or appointment kind, from
    the store's (issuer, name) index. *)

val valid_appointments : t -> Oasis_util.Ident.t list
(** The ids of every currently valid appointment record. *)

val stop_emitters : t -> unit
(** The issuer crashed: every emitter falls silent. Records are durable and
    stay as they are. *)

val resume : t -> unit
(** The issuer is back. First every record whose expiry passed while it was
    down is revoked through its [expire]; then every valid record without
    an emitter gets one again. A no-op for the emitters of an issuer whose
    beats never stopped. *)
