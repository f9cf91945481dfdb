(** The issuer side of active security (Fig. 4, Fig. 5, Sect. 4).

    "The issuer keeps information on the RMC, including its current
    validity, in a credential record." Every issuer — a service issuing RMCs
    and appointments, or a domain's CIV cluster issuing appointments — is
    one of these. It mints under its {!Oasis_cert.Issuer_key}, keeps each
    certificate once, as issued, beside its record, and answers for it by
    comparison, never by a signature check ({!check}), wherever it is asked:
    presented to the service that issued it, or in a validation callback at
    that service or any replica of a CIV cluster. It announces a record's
    death on its one channel ({!beat_topic}), however many records it
    holds. Each [Beat] carries its epoch and the ids revoked since the
    previous beat. The revoked record itself is the tombstone: the store is
    registered with the world at creation ({!World.register_issuer}), with
    the feed's epoch, and others read them through {!World.revocation} and
    {!World.feed_epoch}.

    How the beats go out follows {!World.monitoring}. Under change events
    the feed has no period: each revocation is a beat at once, the epoch
    counts every beat ever sent, and the latest beat is sent again after a
    partition that named the issuer heals and when the issuer resumes, so
    a dependant that missed one sees an epoch gap. Under heartbeats the
    issuer beats once per period on its own recurring engine timer (its
    emitter), the epoch counting beats since the emitter last started, so
    a dependant learns of a revocation from the next beat and of the
    issuer's death from the beats' silence ({!Monitor} keeps that
    deadline).

    Relying-side monitoring (dependency watches, suspects, reconciliation)
    is the relying service's. What a revocation costs its caller —
    counters, decision-log records, tearing down the role's own watches —
    the caller passes to {!revoke}. *)

type t

val beat_topic : Oasis_util.Ident.t -> Oasis_event.Broker.topic
(** The channel an issuer's beats go out on. *)

val create : ?is_down:(unit -> bool) -> World.t -> Oasis_cert.Issuer_key.t -> t
(** An empty record store for the key's issuer, minting under that key.
    [is_down] says whether the issuer can act now — by default, whether the
    world's fault controller has it crashed ({!Oasis_sim.Fault.is_crashed}):
    an expiry that falls due while it holds is deferred to {!resume}. *)

(** An RMC bound to a session key, or an appointment bound to its holder's
    long-lived key. With [expires_at] in the future, [expire] — the caller's
    revoke with reason ["expired"] — runs on the certificate's id then, or
    at the next {!resume} if the issuer is down then. *)
type _ order =
  | Rmc : { session_key : string } -> Oasis_cert.Rmc.t order
  | Appointment : {
      holder_key : string;
      expires_at : float option;
      expire : Oasis_util.Ident.t -> unit;
    }
      -> Oasis_cert.Appointment.t order

val issue :
  t ->
  principal:Oasis_util.Ident.t ->
  name:string ->
  args:Oasis_util.Value.t list ->
  'cert order ->
  'cert * Oasis_cert.Credential_record.t
(** Mints a certificate and its record in one order for either kind: a
    fresh id, the signature, the record with the certificate as issued,
    then the expiry. The issuer's first record starts its emitter under
    heartbeats (first beat one period on; each beat counts under
    [hb.beats]). *)

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

val check : t -> Oasis_cert.Validation_cache.presented -> bool
(** Whether this is exactly a certificate this issuer issued — every
    field, the signature and an RMC's session key
    ({!Oasis_cert.Validation_cache.same}) — with a valid record, unexpired
    and, for an appointment, of the key's current epoch. *)

val issued : t -> Oasis_cert.Validation_cache.presented -> Oasis_cert.Credential_record.t option
(** The record behind {!check}, whatever the appointment's epoch — what
    re-issue after a rotation needs. *)

val certificate : t -> Oasis_util.Ident.t -> Oasis_cert.Validation_cache.presented option
(** The certificate issued under this id, as issued. *)

val is_valid : t -> Oasis_util.Ident.t -> bool
(** Whether the record exists and is valid; [false] for an unknown id. *)

val valid_appointments : t -> Oasis_util.Ident.t list
(** The ids of every currently valid appointment record. *)

val stop_emitters : t -> unit
(** The issuer crashed: its emitter's timer is cancelled, and its epoch
    and the revocations not yet beaten are lost with it. Records, and so
    tombstones, are durable and stay as they are. With no emitter (change
    events) nothing changes: the epoch goes on from where it was. *)

val resume : t -> unit
(** The issuer is back. First every record whose expiry passed while it was
    down is revoked through its [expire]; then under heartbeats an issuer
    that has issued anything starts beating again, from epoch 1 (a no-op
    for an emitter that never stopped), and under change events the latest
    beat, if any, is sent again. *)

val rotate_key : t -> unit
(** {!Oasis_cert.Issuer_key.rotate}: earlier appointments fail {!check}. *)

val withdraw_key : t -> unit
(** {!Oasis_cert.Issuer_key.withdraw}. *)
