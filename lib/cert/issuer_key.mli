(** An issuer's certificate-signing key (Fig. 4, Sect. 4.1).

    Every issuer — a service or a domain's CIV cluster — protects the
    certificates it issues with its own secret. This module is the one place
    that knows which of two schemes an issuer signs with:
    - the paper's epoch HMAC, which only the issuer can check, so relying
      services validate by callback (Sect. 3);
    - a Schnorr keypair enrolled with the domain root ({!Signed}), which any
      service holding the root's address verifies offline (DESIGN.md §12).

    Relying services never ask which: a presented certificate is checked
    offline exactly when {!Signed.chain_for} has a chain for its issuer.
    Verification here covers an appointment's signature, expiry and epoch
    only; the issuer's credential record has the last word. An issuer
    needs no signature check for its own RMCs: it compares them with the
    certificate it granted (Oasis_core.Monitor.granted). *)

type t

val create :
  Signed.authority ->
  rng:Oasis_util.Rng.t ->
  subject:Oasis_util.Ident.t ->
  offline_sign:bool ->
  now:float ->
  t
(** The key of issuer [subject] at epoch 0. The HMAC secret is drawn from
    [rng] under either scheme, so the caller's stream advances the same way
    whichever is chosen. With [offline_sign] a Schnorr keypair is drawn from
    the authority's own stream and enrolled with the root. *)

val epoch : t -> int

val issue_rmc :
  t ->
  principal_key:string ->
  id:Oasis_util.Ident.t ->
  role:string ->
  args:Oasis_util.Value.t list ->
  issued_at:float ->
  Rmc.t
(** Issued by [subject], bound to [principal_key] (Sect. 4). *)

val issue_appointment :
  t ->
  id:Oasis_util.Ident.t ->
  kind:string ->
  args:Oasis_util.Value.t list ->
  holder:string ->
  issued_at:float ->
  ?expires_at:float ->
  unit ->
  Appointment.t
(** Issued by [subject] under the current epoch. *)

val verify_appointment : ?any_epoch:bool -> t -> now:float -> Appointment.t -> bool
(** Signature, expiry and epoch currency of one of this issuer's
    appointments. [any_epoch] (default off) accepts a genuine signature of
    an earlier epoch — what re-issue after a rotation needs. *)

val rotate : t -> now:float -> unit
(** Advances the epoch: appointments of earlier epochs stop verifying and
    must be re-issued (Sect. 4.1). A Schnorr key is re-enrolled under the
    new epoch, so offline verifiers strand them too. *)

val withdraw : t -> unit
(** Withdraws the issuer's chain from the root (decommission): its
    certificates stop verifying offline, and relying services fall back to
    callbacks. *)
