(** An OASIS-secured service (Fig. 2).

    A service names its client roles, holds the formally specified policy for
    role activation and invocation, issues encryption-protected RMCs, keeps
    credential records, answers validation callbacks, and — through the event
    middleware — actively monitors the membership conditions of every role it
    has granted, deactivating immediately when one becomes false (Sect. 2–4).

    The service is cut along the paper's own seams. This module decides:
    policy installation, credential validation, the Fig. 2 decision for
    activation, invocation and appointment, and administration. What a
    granted role rests on is watched by its {!Monitor} (Fig. 5), what it
    issued is kept by its {!Issuer_records}, and every decision either
    takes lands in its {!Audit_trail}.

    Server-side message handling runs inside simulated processes, so a
    service's policy evaluation may itself perform validation callbacks to
    other services, and its registered operations may invoke further
    services — the cross-domain chains of Fig. 3.

    Every presented certificate, RMC or appointment, goes through one
    check ({!Oasis_cert.Validation_cache.presented}: an RMC with the
    session key it came under, or an appointment), in one pass over the
    wallet — RMCs first, then appointments, each in presentation order —
    that files each valid credential straight into the solver's index. The
    issuer picks the verifier. The service's own certificates, RMCs and
    appointments alike, presented to it or in a validation callback it
    answers, are compared with the certificate as it issued it
    ({!Issuer_records.check}: every field, the signature and an RMC's
    session key, a valid record, unexpired and, for an appointment, the
    current epoch), with no signature check at all. A foreign certificate whose issuer has an enrolled key chain is
    checked offline (DESIGN.md §12), at most one signature check per
    service and issuer key certificate: the validation cache remembers the
    presentation that passed ({!Oasis_cert.Validation_cache.verify}), and
    the chain, expiry, epoch and revocation checks run on every
    presentation. Any other is validated by callback to its issuer, with
    one request ({!Protocol.Validate}) for either kind. An appointment's
    holder is then challenged when [challenge_appointment_holders] is
    set. *)

type t

type config = {
  challenge_on_activation : bool;
      (** run ISO/9798 challenge–response against the claimed session key
          before granting a role (Sect. 4.1); default off, as within a
          firewall-protected domain (Sect. 4.1 opening) *)
  challenge_on_invocation : bool;
  challenge_appointment_holders : bool;
      (** on presenting an appointment certificate, challenge the presenter
          to prove possession of the long-lived holder key bound into it —
          the Sect. 4.1 defence against stolen appointment certificates;
          default off (the firewalled-domain assumption) *)
  cache_remote_validation : bool;
      (** cache positive callback verdicts, each for the presentation it
          answered (the certificate and an RMC's session key), invalidated
          over the issuer's event channel (Sect. 4); default on *)
  retry : Oasis_util.Backoff.policy;
      (** the shared retry policy for RPC call sites (validation callbacks,
          anti-entropy reconciliation) when a datagram is lost; a negative
          verdict is never retried. Default [Backoff.fixed 3] — three
          immediate attempts, byte-for-byte the historical fixed-count
          retry; fault-tolerant deployments use a jittered exponential
          policy whose [cap] is below [suspect_grace]. *)
  suspect_grace : float;
      (** how long a role whose failure detector fired (heartbeat silence,
          validation-RPC unreachability) may stay active as {e suspect}
          before fail-closed degradation deactivates it. Default [0.0]:
          silence is treated as revocation immediately — the historical
          behaviour. Positive values enable the suspect state machine and
          anti-entropy reconciliation (DESIGN.md §11). *)
  reconcile_batch : int;
      (** at most this many suspect roles re-validate against their issuers
          concurrently after a heal or restart; the rest queue. Bounds the
          post-heal re-validation storm (experiment E12); default 8 *)
  offline_sign : bool;
      (** how this service signs the certificates it issues
          ({!Oasis_cert.Issuer_key}): on (the default), under a Schnorr key
          certified by the world's domain root, so every relying service
          verifies them locally — chain, signature, expiry, epoch — with
          zero validation RPCs (DESIGN.md §12); off, under the paper's epoch
          HMAC, so every relying service validates them by callback. A
          relying service needs no setting of its own: it verifies a
          presented credential offline exactly when its issuer has a chain
          with the root. Freshness is the same either way: dep watches,
          heartbeats and anti-entropy reconciliation bound revocation
          propagation, and revocations witnessed over a watch poison the
          validation cache so re-presenting a known-dead certificate is
          refused locally. *)
}

val default_config : config

exception Policy_rejected of Oasis_policy.Lint.finding list
(** Raised by {!create} when the policy contains install-blocking lint
    errors — unbound head parameters,
    non-ground negation, arity mismatches
    ({!Oasis_policy.Lint.install_blocking}); the findings carry positions
    within the policy text. Rules added one at a time with {!add_rule}
    bypass the gate, and any request they match is answered
    [Bad_request]. *)

val create :
  World.t ->
  name:string ->
  ?config:config ->
  ?env:Oasis_policy.Env.t ->
  policy:string ->
  unit ->
  t
(** Creates the service, registers it on the network and in the world's
    name registry, and installs the parsed policy. The policy is linted as
    a single open world (cross-service references are left to [oasisctl
    lint]) and rejected wholesale, with no partial install, if any finding
    is {!Oasis_policy.Lint.install_blocking}. Raises [Failure] on a policy
    syntax error and {!Policy_rejected} on install-blocking lint errors. The [env] defaults to a fresh environment private to this
    service; pass a shared one to model services reading one
    domain database. *)

val id : t -> Oasis_util.Ident.t
val service_name : t -> string
val env : t -> Oasis_policy.Env.t

(** {1 Policy administration} *)

val add_rule : t -> Oasis_policy.Parser.statement -> unit
(** Installs one statement without the lint gate: generated rules (SLA
    clauses, anonymous-membership roles) and rules a test breaks on
    purpose. An [appoint] statement governs who may issue appointment
    certificates of its kind at this service ("being active in certain
    roles carries the privilege of issuing appointment certificates",
    Sect. 1); its [priv_args] bind the appointment's parameters. *)

val register_operation :
  t -> string -> (principal:Oasis_util.Ident.t -> Oasis_util.Value.t list -> Oasis_util.Value.t option) -> unit
(** Binds application code to a privilege; run after authorization succeeds.
    The handler executes inside a simulated process and may therefore invoke
    other services. A privilege without an operation authorizes and audits
    but returns no value. *)

val register_remote_predicate :
  t -> local_name:string -> at:Oasis_util.Ident.t -> remote_name:string -> unit
(** Makes [env:local_name(args)] a database lookup at another service
    (Sect. 2: "the user is a member of a group; this may be ascertained by
    database lookup at some service"). Evaluation performs an RPC to [at]
    at rule-evaluation time; unreachable or unknown remote predicates count
    as not holding. Note: remote predicates cannot be actively monitored —
    use them in activation conditions, not membership rules, or mirror the
    facts locally. *)

(** {1 Administration} *)

val revoke_certificate : t -> Oasis_util.Ident.t -> reason:string -> bool
(** Administratively revokes a certificate issued here (RMC or appointment):
    the credential record is invalidated, the change is announced on its
    event channel ({!Issuer_records.revoke}), and dependent roles everywhere
    collapse (Fig. 5). [false] if unknown or already revoked. An appointment
    issued with an expiry is revoked the same way at its deadline, or at
    {!restart} if the service is down then. *)

val decommission : t -> reason:string -> int
(** Administrative shutdown: revokes every certificate this service issued
    (RMCs and appointments); returns how many were withdrawn. Every session
    and foreign role that depended on this service's credentials collapses
    through the event infrastructure. *)

val rotate_secret : t -> unit
(** Advances the appointment-signing epoch ({!Issuer_records.rotate_key}):
    all previously issued appointment certificates stop validating and must
    be re-issued (Sect. 4.1); appointments issued afterwards carry the new
    epoch. RMCs are unaffected — they are session-scoped. *)

(** {1 Faults} *)

val crash : t -> unit
(** Crashes this node through the world's fault controller
    ({!Oasis_sim.Fault}), which runs the monitor's crash hook: the network
    node goes down, its heartbeat emitter falls silent, and all in-memory active-security
    state — the registrations of dependencies and cached verdicts, env
    timers, suspect timers, the validation cache, the reconciliation queue
    — is dropped. Durable state — credential records, issued certificates,
    policy, per-role dependency lists, the decision-log chain's store —
    survives for {!restart} to rebuild from. *)

exception Chain_tampered of { service : string; seq : int; why : string }
(** Raised by {!restart} when the durable
    store of the decision-log chain does not verify — the "disk" was
    tampered with or cut inside a record while the node was down. The service stays
    crashed: building new decisions onto a forged prefix would launder the
    forgery. [seq] is the first record that fails; [why] the cause. *)

val restart : t -> unit
(** Brings the node back through the fault controller, whose restart hook
    is the monitor's rebuild from durable state. The decision-log chain is
    re-verified and resumed first ({!Audit_trail.resume}) — on any mismatch
    the service refuses to come back ({!Chain_tampered}) and stays crashed.
    Appointments whose expiry passed while down are then revoked and
    announced ({!Issuer_records.resume}), before its emitter restarts. Each
    active role's env constraints are re-checked on the spot — changes
    missed while down deactivate it now, and a predicate the env no longer
    knows fails closed — and own-issuer prerequisites are checked against
    the credential records; a surviving role gets its env timers and
    watches back, and if it rests on a remote credential it becomes
    {e suspect} until anti-entropy reconciliation re-validates it —
    invalidations announced while down were never delivered, so the stale
    watch state cannot be trusted. A no-op unless crashed. *)

val is_crashed : t -> bool
(** {!Oasis_sim.Fault.is_crashed} for this node. *)

val suspect_roles : t -> (Oasis_util.Ident.t * string) list
(** [(cert_id, role)] for every active role currently in suspect state:
    its failure detector fired but revocation is unconfirmed, and either
    reconciliation or the grace timer will resolve it. In id order. *)

(** {1 Introspection} *)

val is_valid_certificate : t -> Oasis_util.Ident.t -> bool
(** Whether this issuer's credential record for the certificate is valid. *)

val active_roles : t -> (Oasis_util.Ident.t * string * Oasis_util.Value.t list * Oasis_util.Ident.t) list
(** [(cert_id, role, args, principal)] for every currently valid RMC, in id
    order. *)

val env_watcher_count : t -> string -> int
(** How many distinct currently active RMCs watch the given environmental
    predicate (membership-marked constraints only), read from the reverse
    index the fact-change hot path uses. An RMC watching several tuples of
    the predicate counts once. A leading ['!'] is ignored. *)

val env_watcher_count_tuple : t -> string -> Oasis_util.Value.t list -> int
(** How many currently active RMCs a change of the given ground instance
    re-checks: the RMCs watching exactly that tuple of a fact predicate, or,
    for [trust_score(u, ...)], every watcher of subject [u]'s score (a trust
    change names only its subject). A leading ['!'] is ignored, so a negated
    watch counts under its fact. *)


val decision_log : t -> Oasis_trust.Decision_log.t
(** The hash-chained decision log (DESIGN.md §15): every grant, deny,
    revoke, suspect and reconcile decision this service has taken, with
    the rule that fired, the credentials and env facts it rested on, and
    the obs trace seq it correlates with. Surfaced by [oasisctl audit].

    It is also the audit record Sect. 3 asks for ("the identity of the
    original requester ... recorded for audit"): each [Grant] carries the
    principal, the action (privilege name, ["activate:role"] or
    ["appoint:kind"]), its arguments, and the certificate ids supporting
    the proof — led by the minted certificate for activations and
    appointments. *)

type stats = {
  activations_granted : int;
  activations_denied : int;
  invocations_granted : int;
  invocations_denied : int;
  appointments_granted : int;
  appointments_denied : int;
  callbacks_in : int;  (** validation requests answered as issuer *)
  callbacks_out : int;  (** validation requests made about remote certificates *)
  offline_validations : int;
      (** remote credentials checked locally against an issuer chain —
          presentations that under the legacy path would each have been a
          [callbacks_out] RPC — whether or not the signature step was
          answered from the validation cache. Only credentials a candidate
          rule of the request names are checked locally; the others are
          dropped unchecked and not counted *)
  validation_failures : int;
      (** presented credentials that were checked and found invalid, and so
          dropped: every callback-checked one (HMAC signers, issuers
          without a chain, and every appointment while
          [challenge_appointment_holders] is on), but a locally checked one
          (own issuer, or an issuer with a chain) only when a candidate rule
          of the request names it *)
  revocations : int;  (** credential records invalidated here *)
  cascade_deactivations : int;  (** revocations triggered by monitoring, not administration *)
  env_rechecks : int;
      (** RMCs whose membership constraints were re-examined because a fact
          or a trust score changed — only the watchers of the changed fact
          tuple, or of the subject whose score moved *)
  suspects : int;  (** roles that entered suspect state ([svc.suspect{service=..}]) *)
  reconciled_reinstated : int;
      (** suspect roles reconciliation re-validated and kept active *)
  reconciled_revoked : int;
      (** suspect roles reconciliation confirmed revoked and deactivated *)
  flaps_suppressed : int;
      (** membership re-checks that failed the grant condition but survived
          inside a hysteresis band ([trust.flaps_suppressed{service=..}]) —
          each one is a revocation the gate's band absorbed *)
}

val stats : t -> stats
(** The service's counters read back from the world's registry, where they
    live under [service.<field>{service=<name>}] ([svc.suspect] and
    [svc.reconciled{outcome=reinstated|revoked}] for the suspect fields,
    [trust.flaps_suppressed] for [flaps_suppressed]). Kept as the O(1)
    view the repository benchmark reads; every other caller can read the
    same keys with {!Oasis_obs.Obs.value}. The validation cache's counters
    are [vcache.*{service=<name>}]. *)
