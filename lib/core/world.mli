(** A simulated OASIS world: engine, network, event middleware, registries.

    The world owns the shared infrastructure every node plugs into and the
    symbolic service-name registry that policy rules resolve against
    ("@hospital" in a rule body → the hospital service's identifier). *)

(** How services monitor the membership conditions of active roles (the
    Fig. 5 ablation, experiment E5). Either way each issuer has one feed,
    {!Issuer_records.beat_topic}, whose beats are numbered and name the
    records revoked since the previous beat, and a dependent keeps one
    monitor per issuer on it:
    - [Change_events]: the feed has no period and no deadline. The issuer
      beats the moment it revokes, naming that revocation, and re-sends its
      latest beat after a partition that named it heals and when it resumes
      after a crash; dependents react on delivery.
    - [Heartbeats]: each issuer beats once every [period], naming the
      records it revoked since its last beat; dependents treat [deadline]
      without a beat from an issuer as silence of everything they watch
      there.

    The issuer's side of the feed is {!Issuer_records}, the dependent's
    {!Monitor}. *)
type heartbeat_config = { period : float; deadline : float }

type monitoring =
  | Change_events
  | Heartbeats of heartbeat_config

type t

val create :
  ?seed:int ->
  ?net_latency:float ->
  ?net_jitter:float ->
  ?notify_latency:float ->
  ?monitoring:monitoring ->
  unit ->
  t
(** Defaults: seed 1, 1 ms network latency, no jitter, 1 ms notification
    latency, change-event monitoring. Latencies are in (virtual) seconds.
    Raises [Invalid_argument] on a heartbeat [period] or [deadline] that is
    not positive. *)

val engine : t -> Oasis_sim.Engine.t
val rng : t -> Oasis_util.Rng.t

(** The world's shared metrics registry and tracer (DESIGN.md §10). The
    network, broker and every service report into it; attach a sink to
    stream the event timeline. *)
val obs : t -> Oasis_obs.Obs.t
val network : t -> Protocol.msg Oasis_sim.Network.t
val broker : t -> Protocol.event Oasis_event.Broker.t

val fault : t -> Protocol.msg Oasis_sim.Fault.t
(** The world's fault controller. Named partitions installed here cut both
    the network and (via the broker's delivery filter) event channels;
    services register crash/restart hooks with it at creation, and its heal
    hook runs the [on_heal] of every issuer the healed partition names
    ({!register_issuer}). *)

val monitoring : t -> monitoring

val durable : t -> Durable.t
(** The world's simulated durable store: what is kept here survives node
    crashes (services keep their decision-log chains in it and resume from
    it on restart, DESIGN.md §16). *)

val authority : t -> Oasis_cert.Signed.authority
(** The world's domain root (DESIGN.md §12): certifies per-service issuing
    keys so relying services can verify credentials offline. Stands in for
    out-of-band root-address distribution; seeded independently of {!rng}
    so signature support leaves existing deterministic runs untouched. *)

val now : t -> float

val fresh_cert_id : t -> Oasis_util.Ident.t
val fresh_service_id : t -> Oasis_util.Ident.t
val fresh_principal_id : t -> Oasis_util.Ident.t

val fresh_anon_id : t -> Oasis_util.Ident.t
(** Pseudonymous principal aliases for anonymous invocation (Sect. 5). *)

val register_service : t -> name:string -> Oasis_util.Ident.t -> unit
(** Binds a symbolic service name. Raises [Invalid_argument] on rebinding. *)

val resolve : t -> string -> Oasis_util.Ident.t option

(** {1 Issuers' records and feeds}

    A revoked credential record is its own tombstone: it keeps the
    revocation's reason forever. Every issuer files its record store here
    when it is created, and every other node reads revocations through
    {!revocation} and the position of its feed through {!feed_epoch}. *)

type issuer = {
  records : Oasis_cert.Credential_record.store;
  epoch : unit -> int option;
      (** the epoch of the issuer's latest beat, as a new subscriber to its
          feed learns it; [None] when that would tell it nothing *)
  on_heal : unit -> unit;
      (** runs after each partition heal ({!Oasis_sim.Fault.heal}) that
          names the issuer on either side, issuers in creation order: an
          issuer with no beat period re-sends its latest beat there *)
}

val register_issuer : t -> Oasis_util.Ident.t -> issuer -> unit
(** Files an issuer. Registering an ident again replaces its entry. *)

val revocation :
  t ->
  issuer:Oasis_util.Ident.t ->
  cert_id:Oasis_util.Ident.t ->
  reader:Oasis_util.Ident.t ->
  string option
(** The reason [issuer] revoked [cert_id], as [reader] sees it now: [None]
    if the record is valid or unknown, and also while {!Oasis_sim.Fault.is_cut}
    severs [issuer] from [reader] (a partition, or either of them crashed) —
    a cut-off reader misses the tombstone exactly as it misses the beat. *)

val feed_epoch : t -> issuer:Oasis_util.Ident.t -> reader:Oasis_util.Ident.t -> int option
(** The issuer's [epoch] as [reader] sees it now: [None] for an
    unregistered issuer and while {!Oasis_sim.Fault.is_cut} severs the
    two, like {!revocation}. *)

val spawn : t -> (unit -> unit) -> unit
(** Starts a simulated process (see {!Oasis_sim.Proc}). *)

val run : t -> unit
(** Runs the engine until quiescence. *)

val run_until : t -> float -> unit

val settle : t -> unit
(** [settle t] runs one virtual second past the current time —
    long enough for in-flight messages, notifications and cascades to
    complete at millisecond latencies, without executing far-future timers
    such as certificate expiries. Use {!run} only when draining the whole
    timeline (including expiries) is intended. *)

(** {1 Trust (Sect. 6)}

    The world owns one {!Oasis_trust.Assess} instance and one certificate
    wallet per party. CIVs push the audit certificates they issue into the
    wallets with {!file_audit_certificate} and bridge their registrar in
    with {!register_trust_validator}; services read scores through
    {!trust_score} (the [trust_score(subject, θ)] env predicate) and
    subscribe to {!on_trust_change} so a score crossing re-triggers the
    env-watch recheck→revoke chain. *)

val wallet : t -> Oasis_util.Ident.t -> Oasis_trust.History.t
(** The party's interaction-history wallet, created on first use. *)

val register_trust_validator :
  t -> registrar:Oasis_util.Ident.t -> (Oasis_trust.Audit.t -> bool) -> unit
(** Routes validation of certificates naming [registrar] to [f].
    Certificates from unregistered registrars fail validation (fail
    closed). *)

val file_audit_certificate : t -> Oasis_trust.Audit.t -> party:Oasis_util.Ident.t -> bool
(** Files the certificate in one party's wallet only, returning whether it
    was new to that wallet, and notifies that party's trust-change
    listeners. A CIV files each certificate twice, once per party; a
    registrar crashing between the two leaves exactly one wallet updated —
    the half-issuance anti-entropy repairs by re-delivering (idempotent:
    replaying an already-filed certificate changes nothing and notifies
    nobody). *)

val trust_score : t -> Oasis_util.Ident.t -> float
(** The subject's current score. Served from the assessor's running
    aggregate (one decay multiplication) whenever possible; falls back to
    a full assessment of the wallet (updating the [trust.score{subject=..}]
    gauge and [trust.rejected{cause=..}] counters) — so repeated [trust_score] env checks
    cost O(1), not O(wallet). *)

val set_trust_decay : t -> rate:float -> tick:float -> unit
(** Configures time-decayed reputation (DESIGN.md §16): certificate
    weights decay as [exp (-rate * age)] on the virtual clock, and every
    [tick] virtual seconds the world re-scores all walleted parties,
    notifying only subjects whose score actually moved (trust-gated roles
    then re-check through the ordinary env-change cascade). [tick <= 0]
    disables the periodic re-assessment (scores still decay whenever they
    are read). Calling again replaces the previous configuration. *)

val on_trust_change : t -> (Oasis_util.Ident.t -> unit) -> unit
(** [f subject] runs synchronously whenever [subject]'s score may have
    moved — a certificate was filed into its wallet, or a decay tick moved
    its score. Services re-check only the roles gated on [subject]'s score,
    so any path that moves scores must notify every subject it moves. A
    world-level registrar discount ({!Oasis_trust.Assess.feedback}) would
    move every subject holding that registrar's certificates; none is
    wired in, and one that is must find and notify those subjects (a
    per-registrar reverse index of the wallets would). *)

val run_proc : t -> (unit -> 'a) -> 'a
(** [run_proc t f] spawns [f] and executes engine events until [f]
    completes, then returns its result (leaving later-scheduled events —
    e.g. recurring heartbeats — pending). Raises [Failure] if the event
    queue drains without [f] completing (deadlock or lost message) — tests
    want that loudly. *)
