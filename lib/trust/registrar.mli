(** Audit-certificate registrars: CIV services extended per Sect. 6.

    "If a certificate issuing and validation (CIV) service already exists in
    a domain its function might be extended to generate such a certificate."

    The paper also names the failure modes this module lets experiments
    exercise: "a client and service might collude to build up a false
    history of trustworthiness. Similarly, a rogue domain might provide
    valueless audit certificates, or repudiate those issued to clients who
    had acted in good faith." A rogue registrar will {!fabricate} histories
    and can {!repudiate} genuine certificates; honest ones will not. *)

type t

val create : Oasis_util.Rng.t -> name:string -> ?honest:bool -> unit -> t
(** [honest] defaults to [true]. Deterministic ids derive from [name]. *)

val id : t -> Oasis_util.Ident.t

val record_interaction :
  t ->
  client:Oasis_util.Ident.t ->
  server:Oasis_util.Ident.t ->
  at:float ->
  client_outcome:Audit.outcome ->
  server_outcome:Audit.outcome ->
  Audit.t
(** Issues the audit certificate for a real interaction witnessed by this
    registrar's domain. *)

val fabricate :
  t ->
  client:Oasis_util.Ident.t ->
  server:Oasis_util.Ident.t ->
  at:float ->
  Audit.t
(** Rogue only: a certificate for an interaction that never happened, both
    sides marked {!Audit.Fulfilled}. Raises [Invalid_argument] on an honest
    registrar. *)

val repudiate : t -> Oasis_util.Ident.t -> unit
(** Rogue only: subsequently deny a certificate it genuinely issued. *)

val validate : t -> Audit.t -> bool
(** Checks the signature, that this registrar issued it, and that it has not
    been repudiated. *)
