(** Offline-verifiable signed credentials (DESIGN.md §12).

    The paper's credentials are public-key certificates, but the repo's
    validation path was a callback RPC to the issuer on every cross-domain
    check. This module supplies the missing signature layer: a domain root
    key certifies per-service issuing keys ({!key_cert}), and any holder of
    the root's {!address} verifies an issuer chain plus a certificate
    signature with zero network round trips. Freshness (revocation) is out
    of scope here — it stays with the heartbeat / anti-entropy machinery of
    DESIGN.md §11; this layer answers only "was this certificate genuinely
    issued, unmodified, for this principal, and is it unexpired?" *)

type key_cert = {
  subject : Oasis_util.Ident.t;  (** the issuing service *)
  subject_pk : Oasis_crypto.Elgamal.public;  (** its Schnorr issuing key *)
  key_epoch : int;  (** the issuer secret epoch this key certifies *)
  issued_at : float;
  ksig : Oasis_crypto.Schnorr.signature;  (** root signature over the canonical encoding *)
}

type memo
(** The record of a successful {!verify_chain} on one chain value. No
    caller can build or change one. *)

type chain = { root_pk : Oasis_crypto.Elgamal.public; cert : key_cert; memo : memo }
(** Everything a verifier needs besides the trusted root address.

    {!enrol} creates each chain value with an empty [memo]. The first
    {!verify_chain} that succeeds records in it the address, the [root_pk]
    and the [cert] it checked, the last compared with [==]. Later calls on
    the same value answer from the memo with no hash, encoding or
    signature check. A record copy shares the memo, but a copy with
    another [cert] or [root_pk] misses it and is checked in full. Failures
    are never recorded.

    The memo also keeps the issuer key's table ({!Oasis_crypto.Schnorr.key}),
    built at the first certificate signature {!verify_rmc} or
    {!verify_appointment} checks under it; every later one reads y^e from
    it. It belongs to the [cert] the memo names, so it never serves another
    key.

    Rotation and withdrawal need no hook. {!enrol} after a rotation makes a
    new chain value, whose memo (and table) is empty. {!revoke_chain} removes the value
    from {!chain_for}, which is where relying services look up a chain on
    every presentation, so a withdrawn chain is never checked again. *)

type authority
(** The domain root: holds the root keypair and the directory of enrolled
    issuer chains (the simulation's stand-in for certificate
    pre-distribution). *)

val create_authority : Oasis_util.Rng.t -> authority

val address : authority -> string
(** Hex SHA-256 of the root public key — the only value a relying service
    must know out of band, following the address-based-identity pattern. *)

val rng : authority -> Oasis_util.Rng.t
(** The authority's private randomness stream; issuing services draw their
    signature nonces here so that worlds stay deterministic without
    perturbing the main simulation stream. *)

val generate_keypair : authority -> Oasis_crypto.Schnorr.keypair

val enrol :
  authority ->
  subject:Oasis_util.Ident.t ->
  subject_pk:Oasis_crypto.Elgamal.public ->
  key_epoch:int ->
  now:float ->
  chain
(** Certify [subject_pk] as [subject]'s issuing key for [key_epoch],
    replacing any previous chain for [subject] (re-enrolment after a secret
    rotation bumps the epoch and invalidates older appointments offline). *)

val chain_for : authority -> Oasis_util.Ident.t -> chain option

val revoke_chain : authority -> Oasis_util.Ident.t -> unit
(** Withdraws [subject]'s chain (e.g. on decommission): its certificates
    stop verifying offline and relying services fall back to callbacks. *)

val verify_chain : address:string -> chain -> bool
(** The root public key hashes to the trusted [address] and the key
    certificate carries a valid root signature. A success is memoized on
    the chain value (see {!chain}); repeat calls allocate nothing. *)

val issue_rmc :
  keypair:Oasis_crypto.Schnorr.keypair ->
  rng:Oasis_util.Rng.t ->
  principal_key:string ->
  id:Oasis_util.Ident.t ->
  issuer:Oasis_util.Ident.t ->
  role:string ->
  args:Oasis_util.Value.t list ->
  issued_at:float ->
  Rmc.t
(** As {!Rmc.issue}, but the 32-byte signature field carries a packed
    Schnorr signature over {!Rmc.signing_bytes} (same principal binding,
    same canonical bytes) instead of an HMAC. *)

val verify_rmc :
  ?signature_seen:bool ->
  address:string ->
  chain:chain ->
  principal_key:string ->
  Rmc.t ->
  bool
(** Zero-RPC verification: chain validity, issuer/chain subject match, and
    the signature over the presented fields under the presented principal
    key. Tampered fields, forged signatures, stolen certificates and
    non-canonical encodings (rejected upstream in {!Codec}) all fail.

    [signature_seen] (default [false]) skips the Schnorr step and only it:
    the caller vouches that this exact certificate, under this principal
    key, already passed it under [chain.cert]. {!Validation_cache.verify}
    is the caller that can; the chain and subject checks still run. *)

val issue_appointment :
  keypair:Oasis_crypto.Schnorr.keypair ->
  rng:Oasis_util.Rng.t ->
  epoch:int ->
  id:Oasis_util.Ident.t ->
  issuer:Oasis_util.Ident.t ->
  kind:string ->
  args:Oasis_util.Value.t list ->
  holder:string ->
  issued_at:float ->
  ?expires_at:float ->
  unit ->
  Appointment.t

val verify_appointment :
  ?signature_seen:bool -> address:string -> chain:chain -> now:float -> Appointment.t -> bool
(** Chain + signature + expiry + epoch currency (the chain's [key_epoch]
    plays the role the HMAC scheme's [current_epoch] does).
    [signature_seen] skips the signature step alone, as for {!verify_rmc}
    ({!Validation_cache.verify}); expiry and epoch are checked
    on every call. *)
