(** Certificate issuing and validation (CIV) service, replicated.

    "It is likely that certificates will not be issued and validated by each
    individual service ... Rather, a domain will contain one highly available
    service to carry out the functions of certificate issuing and validation"
    (Sect. 4, which cites ref [10] for making such a service available with
    consistency management; Sect. 6 extends CIV services to audit
    certificates).

    The cluster is a router plus [replicas] replica nodes. The router is the
    stable identifier bound into certificates as issuer (an anycast /
    load-balancer address); it forwards validation callbacks round-robin to
    live replicas and fails over when one is down. Replica 0 is the primary:
    issuance and revocation execute there, so writes need it up. The
    cluster is one issuer ({!Oasis_core.Issuer_records}), as a service is,
    and every replica answers a validation with its one check: a
    comparison with the certificate as issued, never a signature check. An
    issue or a revocation is seen by every replica at once, and reads
    survive the primary going down. *)

type t

val create :
  Oasis_core.World.t -> name:string -> ?offline_sign:bool -> unit -> t
(** A cluster of 3 replicas. It registers its router under [name] in
    the world's service registry, so policy rules can say
    [appt:kind(…)@name]. [offline_sign] picks the cluster's
    {!Oasis_cert.Issuer_key} scheme, as [Service.config.offline_sign] does
    for a service: on (the default), a Schnorr issuing key enrolled with the
    world's domain root, so every relying service validates the cluster's
    appointments with zero RPCs (DESIGN.md §12); off, the paper's epoch
    HMAC, where every check is a replica callback. *)

val id : t -> Oasis_util.Ident.t
(** The router identifier: use as certificate issuer. *)

(** {1 Issuing (administrative API, executes at the primary)} *)

exception Primary_unavailable

val issue :
  t ->
  kind:string ->
  args:Oasis_util.Value.t list ->
  holder:Oasis_util.Ident.t ->
  holder_key:string ->
  ?expires_at:float ->
  unit ->
  Oasis_cert.Appointment.t
(** Issues an appointment certificate (e.g. [employed_as_doctor(hospital)]).
    Raises {!Primary_unavailable} if the primary replica is down — a
    primary–backup cluster keeps reads available but not writes. With
    [expires_at], the cluster revokes the certificate (reason ["expired"])
    at the deadline; if it cannot write then, it does so when it is back —
    at a router restart or when the primary comes back up
    ({!set_replica_down}). *)

val reissue : t -> Oasis_cert.Appointment.t -> (Oasis_cert.Appointment.t, string) result
(** Re-issues a certificate under the current epoch secret — Sect. 4.1:
    "it is likely that appointment certificates would be re-issued,
    encrypted with a new server secret, from time to time". The old
    certificate must be exactly one this cluster issued, of any epoch,
    unexpired, with a still-valid credential record
    ({!Oasis_core.Issuer_records.issued}); its record is revoked (reason
    ["superseded"]) and a fresh certificate with the same content is
    issued. Raises {!Primary_unavailable} when the primary is down. *)

val revoke : t -> Oasis_util.Ident.t -> reason:string -> bool
(** Revokes at the primary ({!Oasis_core.Issuer_records.revoke}): every
    replica refuses the certificate from then on, and the invalidation
    reaches dependent roles as a beat on the cluster's feed
    ({!Oasis_core.Issuer_records.beat_topic}). [false] if the primary is
    down, or the certificate unknown or already revoked. *)

val rotate_secret : t -> unit
(** Advances the cluster's appointment-signing epoch
    ({!Oasis_core.Issuer_records.rotate_key}): its earlier appointments
    stop validating at every replica until re-issued ({!reissue}). *)

val is_valid : t -> Oasis_util.Ident.t -> bool
(** Primary's authoritative view. *)

(** {1 Audit certificates (Sect. 6)}

    "If a certificate issuing and validation (CIV) service already exists in
    a domain its function might be extended to generate such a certificate."
    The cluster embeds an audit registrar; interactions witnessed in this
    domain are recorded and validated here. *)

val registrar : t -> Oasis_trust.Registrar.t

val record_interaction :
  t ->
  client:Oasis_util.Ident.t ->
  server:Oasis_util.Ident.t ->
  client_outcome:Oasis_trust.Audit.outcome ->
  server_outcome:Oasis_trust.Audit.outcome ->
  Oasis_trust.Audit.t
(** Issues the audit certificate for an interaction completed now (virtual
    time), at the primary, and files it live into each party's wallet in
    turn via {!Oasis_core.World.file_audit_certificate} (trust-gated roles
    re-check). Raises {!Primary_unavailable} when the primary is down or
    the cluster router has been crashed through the fault controller. *)

val record_interaction_crashing :
  t ->
  client:Oasis_util.Ident.t ->
  server:Oasis_util.Ident.t ->
  client_outcome:Oasis_trust.Audit.outcome ->
  server_outcome:Oasis_trust.Audit.outcome ->
  Oasis_trust.Audit.t
(** Like {!record_interaction}, but the registrar crashes between the two
    wallet filings: the client's wallet holds the certificate, the
    server's does not, and the cluster is down. Restarting it (via the
    world's fault controller) runs anti-entropy, which re-delivers the
    certificate to both wallets — filing is idempotent, so only the
    missing half changes anything. Counted as [civ.reconciled]. *)

val pending_filings : t -> int
(** Certificates issued but not yet filed into both wallets — nonzero
    exactly in the window between a mid-issuance crash and the restart
    anti-entropy pass. *)


(** {1 Failure injection} *)

val set_replica_down : t -> int -> bool -> unit
(** Replica 0 is the primary. Bringing it back up announces the expiries
    that fell due while it was down. *)

type stats = {
  validations_served : int array;  (** per replica *)
  issues : int;
  revocations : int;
  failovers : int;  (** router retries past a dead replica *)
  exhausted : int;  (** validations failed: no live replica *)
}

val stats : t -> stats
