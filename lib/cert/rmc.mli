(** Role membership certificates (Fig. 4).

    "RMCs are encryption-protected to guard against tampering and are
    principal-specific to guard against theft. ... Although not visible as a
    parameter field in the RMC, a principal id is an argument to the
    encryption function that generates the signature." (Sect. 4)

    The [principal_key] argument below is that hidden binding: a
    session-specific token or the session public key (Sect. 4.1). It is an
    input to signing and verification but {e not} a field of the
    certificate, exactly as in Fig. 4. *)

type t = private {
  id : Oasis_util.Ident.t;  (** certificate id; the credential record reference (CRR) names it *)
  issuer : Oasis_util.Ident.t;  (** issuing service, locatable from the CRR *)
  role : string;
  args : Oasis_util.Value.t list;  (** protected parameter fields L1…Ln *)
  issued_at : float;
  signature : Oasis_crypto.Sha256.digest;
}

val issue :
  secret:Oasis_crypto.Secret.t ->
  principal_key:string ->
  id:Oasis_util.Ident.t ->
  issuer:Oasis_util.Ident.t ->
  role:string ->
  args:Oasis_util.Value.t list ->
  issued_at:float ->
  t

val verify : secret:Oasis_crypto.Secret.t -> principal_key:string -> t -> bool
(** Recomputes the signature from the presented fields and the claimed
    principal binding. Fails for tampered fields, forged signatures, and
    stolen certificates presented under a different principal key. *)

val of_parts :
  id:Oasis_util.Ident.t ->
  issuer:Oasis_util.Ident.t ->
  role:string ->
  args:Oasis_util.Value.t list ->
  issued_at:float ->
  signature:Oasis_crypto.Sha256.digest ->
  t
(** Reassembles a certificate parsed off the wire. The signature is taken
    as presented; it carries no authority until {!verify} accepts it. *)

val identical : t -> t -> bool
(** Every field equal, floats by bit pattern ({!Oasis_util.Value.identical}):
    the two certificates encode alike and carry the same signature. *)

val with_args : t -> Oasis_util.Value.t list -> t
(** The certificate with altered parameter fields and the {e original}
    signature — an adversary's tampering attempt, for tests. *)

val signing_bytes : principal_key:string -> t -> string
(** The canonical byte string every signature scheme (HMAC here,
    {!Oasis_cert.Signed} offline signatures) covers: the protected fields
    prefixed by the hidden principal binding, in wire encoding. *)

val size_bytes : t -> int
val pp : Format.formatter -> t -> unit
