(** The issuer side of active security (Fig. 5, Sect. 4).

    "The issuer keeps information on the RMC, including its current
    validity, in a credential record." Every issuer — a service issuing RMCs
    and appointments, or a domain's CIV cluster issuing appointments —
    keeps its records here and announces a record's death on its one
    channel ({!beat_topic}), however many records it holds. Each [Beat]
    carries its epoch and the ids revoked since the previous beat. The
    revoked record itself is the tombstone: the store is registered with
    the world at creation ({!World.register_issuer}), with the feed's
    epoch, and others read them through {!World.revocation} and
    {!World.feed_epoch}.

    How the beats go out follows {!World.monitoring}. Under change events
    the feed has no period: each revocation is a beat at once, the epoch
    counts every beat ever sent, and the latest beat is sent again after a
    partition that named the issuer heals and when the issuer resumes, so
    a dependant that missed one sees an epoch gap. Under heartbeats the
    issuer beats once per period, the epoch counting beats since the
    emitter last started, so a dependant learns of a revocation from the
    next beat and of the issuer's death from the beats' silence.

    Signing is {!Oasis_cert.Issuer_key}'s business; relying-side monitoring
    (dependency watches, suspects, reconciliation) is the relying service's.
    What a revocation costs its caller — counters, decision-log records,
    tearing down the role's own watches — the caller passes to {!revoke}. *)

type t

val beat_topic : Oasis_util.Ident.t -> Oasis_event.Broker.topic
(** The channel an issuer's beats go out on. *)

val create : ?is_down:(unit -> bool) -> World.t -> issuer:Oasis_util.Ident.t -> t
(** An empty record store for [issuer]. [is_down] says whether the issuer
    can act now — by default, whether the world's fault controller has it
    crashed ({!Oasis_sim.Fault.is_crashed}): an expiry that falls due while
    it holds is deferred to {!resume}. *)

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
(** Files a valid record issued now. Under heartbeat monitoring the
    issuer's first record starts its emitter (first beat one period from
    now). With [expiry = (at,
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
    caller's [bookkeeping], list it for the next beat — which under change
    events is published at once. The publish comes last so the caller's
    trace events and decision records precede the broker's. [false] (and
    nothing runs) if the record is unknown or already revoked. *)

val is_valid : t -> Oasis_util.Ident.t -> bool
(** Whether the record exists and is valid; [false] for an unknown id. *)

val verify_appointment : t -> Oasis_cert.Issuer_key.t -> Oasis_cert.Appointment.t -> bool
(** How an issuer answers for one of its own appointments, wherever it is
    asked — a service, or any replica of a CIV cluster: the signature,
    epoch and expiry check under its [key]
    ({!Oasis_cert.Issuer_key.verify_appointment}), then its record, which
    has the last word. *)

val find : t -> Oasis_util.Ident.t -> Oasis_cert.Credential_record.t option

val valid_appointments : t -> Oasis_util.Ident.t list
(** The ids of every currently valid appointment record. *)

val stop_emitters : t -> unit
(** The issuer crashed: its emitter falls silent, and its epoch and the
    revocations not yet beaten are lost with it. Records, and so
    tombstones, are durable and stay as they are. With no emitter (change
    events) nothing changes: the epoch goes on from where it was. *)

val resume : t -> unit
(** The issuer is back. First every record whose expiry passed while it was
    down is revoked through its [expire]; then under heartbeats an issuer
    that has issued anything starts beating again, from epoch 1 (a no-op
    for an emitter that never stopped), and under change events the latest
    beat, if any, is sent again. *)
