(** Audit certificates (Sect. 6).

    "After an interaction subject to contract the CIV service creates an
    audit certificate which it issues to both parties and validates on
    request. ... Such certificates provide a distributed record of the
    histories of services and principals and might form the basis for
    interaction between mutually unknown parties."

    A certificate records one contracted interaction between a client and a
    server and how each side behaved. It is signed by the issuing registrar
    (a CIV extended with the audit function); signatures are checked by the
    registrar on request, as with other OASIS certificates. *)

type outcome =
  | Fulfilled  (** the party met its obligations *)
  | Breached  (** exploited resources, failed to pay, poor or partial fulfilment *)

type t = private {
  id : Oasis_util.Ident.t;
  registrar : Oasis_util.Ident.t;  (** issuing CIV; its domain weights the certificate's credibility *)
  client : Oasis_util.Ident.t;
  server : Oasis_util.Ident.t;
  at : float;
  client_outcome : outcome;
  server_outcome : outcome;
  signature : Oasis_crypto.Sha256.digest;
}

val issue :
  secret:Oasis_crypto.Secret.t ->
  id:Oasis_util.Ident.t ->
  registrar:Oasis_util.Ident.t ->
  client:Oasis_util.Ident.t ->
  server:Oasis_util.Ident.t ->
  at:float ->
  client_outcome:outcome ->
  server_outcome:outcome ->
  t
(** Used by {!Registrar}; the secret never leaves the registrar. *)

val verify : secret:Oasis_crypto.Secret.t -> t -> bool

val outcome_for : t -> Oasis_util.Ident.t -> outcome option
(** How the given party behaved in this interaction; [None] if it was not a
    party. *)

val involves : t -> Oasis_util.Ident.t -> bool

val with_server_outcome : t -> outcome -> t
(** Tampering helper for tests: altered record, original signature. *)

val pp : Format.formatter -> t -> unit
