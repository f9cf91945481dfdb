(** Principals: the users (and client-acting services) of OASIS.

    A principal owns a long-lived key pair (the persistent id bound into
    appointment certificates), a wallet of appointment certificates, and any
    number of {e sessions}. Each session has its own session key pair — the
    session-specific principal id that Sect. 4.1 recommends over persistent
    ids — and accumulates the RMCs granted within it.

    Client operations ({!activate}, {!invoke}, {!appoint}, …) are blocking
    round trips and must run inside a simulated process
    ({!World.run_proc} / {!World.spawn}). The principal's network node
    answers challenge–response probes for any of its keys automatically. *)

type t

type session

val create : World.t -> name:string -> t

val id : t -> Oasis_util.Ident.t
val name : t -> string

val longterm_public : t -> string
(** The persistent principal id: holder binding for appointment
    certificates. *)

(** {1 Appointment wallet} *)

val grant_appointment : t -> Oasis_cert.Appointment.t -> unit
(** Hands the principal a certificate (the out-of-band delivery of a
    membership card, diploma, …). No check is made here that the holder
    binding matches — a thief can pocket a stolen certificate; services are
    the ones who must detect it. *)

val appointments : t -> Oasis_cert.Appointment.t list

val drop_appointment : t -> Oasis_util.Ident.t -> unit

val fresh_pseudonym : t -> Oasis_util.Ident.t * string
(** A pseudonymous alias and a fresh public key the principal can answer
    challenges for. Supports the anonymous-invocation scenario of Sect. 5:
    an appointment certificate bound to the pseudonym key, presented under
    the alias, authorises service use without identifying the member. *)

(** {1 Sessions} *)

val start_session : t -> session
(** Fresh session key pair, empty RMC wallet. *)

val session_key : session -> string
(** The session public key as bound into RMCs. *)

val session_rmcs : session -> Oasis_cert.Rmc.t list

(** {1 Client operations — call inside a simulated process} *)

val activate :
  t ->
  session ->
  Service.t ->
  role:string ->
  ?args:Oasis_util.Value.t option list ->
  unit ->
  (Oasis_cert.Rmc.t, Protocol.denial) result
(** Role entry (paths 1–2 of Fig. 2). Presents the session's RMCs plus the
    appointment wallet; on success the new RMC joins the session wallet.
    [args] positionally pins requested head parameters. *)

val invoke :
  t ->
  session ->
  Service.t ->
  privilege:string ->
  args:Oasis_util.Value.t list ->
  (Oasis_util.Value.t option, Protocol.denial) result
(** Service use (paths 3–4 of Fig. 2). *)

val invoke_as :
  t ->
  session ->
  Service.t ->
  privilege:string ->
  args:Oasis_util.Value.t list ->
  alias:Oasis_util.Ident.t ->
  (Oasis_util.Value.t option, Protocol.denial) result
(** Invocation under a pseudonymous alias: the service's audit trail records
    the alias, not the principal. *)

val appoint :
  t ->
  session ->
  Service.t ->
  kind:string ->
  args:Oasis_util.Value.t list ->
  holder:t ->
  ?expires_at:float ->
  unit ->
  (Oasis_cert.Appointment.t, Protocol.denial) result
(** Issues an appointment certificate to [holder] (who receives it into
    their wallet), provided this principal's credentials satisfy the
    service's appointer policy for [kind]. *)

val deactivate : t -> session -> Oasis_cert.Rmc.t -> bool
(** Voluntarily drops one role; dependent roles collapse via the event
    infrastructure. *)

val logout : t -> session -> unit
(** Deactivates the session's initial roles — "if a single initial role is
    deactivated ... all the active roles dependent on it collapse and that
    session terminates" (Sect. 4) — and closes the session locally. *)

(** {1 Adversarial/test entry points} *)

val activate_with :
  t ->
  session ->
  Service.t ->
  role:string ->
  ?args:Oasis_util.Value.t option list ->
  ?alias:Oasis_util.Ident.t ->
  creds:Protocol.credentials ->
  unit ->
  (Oasis_cert.Rmc.t, Protocol.denial) result
(** Like {!activate} but presenting an arbitrary credential set — e.g.
    certificates stolen from another principal. The request is still bound
    to {e this} session's key. *)
