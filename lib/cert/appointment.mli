(** Appointment certificates (Sect. 1, 2, 4.1).

    "Appointment certificates ... are certificates whose lifetime is
    independent of the duration of the session of activation of the
    appointer role. They may be long-lived, such as when they are used to
    certify academic or professional qualification ... They may be
    transient, for example when certifying that someone is authorised to
    stand in for a colleague."

    Unlike RMCs they cannot be bound to a session, so they are bound to a
    {e persistent} principal id (a long-lived public key), carry an optional
    expiry, and are signed under a rotatable epoch secret so that they can be
    "re-issued, encrypted with a new server secret, from time to time"
    (Sect. 4.1). *)

type t = private {
  id : Oasis_util.Ident.t;
  issuer : Oasis_util.Ident.t;  (** the appointer's service (validates on demand) *)
  kind : string;  (** e.g. ["medically_qualified"], ["employed_as_doctor"] *)
  args : Oasis_util.Value.t list;
  holder : string;  (** persistent principal binding, e.g. a long-lived public key; a protected, readable field *)
  issued_at : float;
  expires_at : float option;
  epoch : int;  (** which rotation of the issuer secret signed this *)
  signature : Oasis_crypto.Sha256.digest;
}

val issue :
  master_secret:Oasis_crypto.Secret.t ->
  epoch:int ->
  id:Oasis_util.Ident.t ->
  issuer:Oasis_util.Ident.t ->
  kind:string ->
  args:Oasis_util.Value.t list ->
  holder:string ->
  issued_at:float ->
  ?expires_at:float ->
  unit ->
  t

val verify : master_secret:Oasis_crypto.Secret.t -> current_epoch:int -> now:float -> t -> bool
(** Checks the signature under the certificate's epoch secret, that the
    epoch is still current (an older epoch means the issuer has rotated its
    secret: the certificate must be re-issued), and expiry. *)

val verify_ignoring_epoch : master_secret:Oasis_crypto.Secret.t -> now:float -> t -> bool
(** Signature and expiry only; lets tests separate the failure causes. *)

val of_parts :
  id:Oasis_util.Ident.t ->
  issuer:Oasis_util.Ident.t ->
  kind:string ->
  args:Oasis_util.Value.t list ->
  holder:string ->
  issued_at:float ->
  expires_at:float option ->
  epoch:int ->
  signature:Oasis_crypto.Sha256.digest ->
  t
(** Reassembles a certificate parsed off the wire; unauthoritative until
    {!verify} accepts it. *)

val expired : now:float -> t -> bool

val identical : t -> t -> bool
(** Every field equal, floats by bit pattern ({!Oasis_util.Value.identical}):
    the two certificates encode alike and carry the same signature. *)

val signing_bytes : t -> string
(** The canonical byte string every signature scheme (epoch-HMAC here,
    {!Oasis_cert.Signed} offline signatures) covers: all protected fields
    including the holder binding, expiry and epoch, in wire encoding. *)

val with_holder : t -> string -> t
(** Theft attempt: same certificate re-bound to a different holder, original
    signature. Must fail {!verify}. *)

val with_args : t -> Oasis_util.Value.t list -> t

val size_bytes : t -> int
val pp : Format.formatter -> t -> unit
