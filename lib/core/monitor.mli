(** Active security on the relying side (Fig. 5, Sect. 4).

    Beside the decision path, a service watches every condition a role it
    granted rests on and collapses the role the moment one fails:

    - each supporting credential, and each cached positive validation
      verdict, through a registration under the one monitor this service
      keeps per issuer on the issuer's feed ({!Issuer_records.beat_topic}),
      whose beats name the revocations, and an epoch gap — counted from
      the epoch the monitor learnt when it joined ({!World.feed_epoch}) —
      has the watched certificates' tombstones read ({!World.revocation});
      under heartbeats ({!World.monitoring}) the feed's silence fails
      everything watched there. The registration is the one record of
      what rests on the certificate, and a death reaches each in order;
    - each ground membership env constraint through the env listener
      (indexed by fact tuple, so a change costs the roles watching exactly
      that tuple), a re-check timer for time-dependent constraints, and a
      re-check of a subject's [trust_score] watchers when its score may
      have moved.

    Silence and unreachability are failure-detector verdicts, not
    revocations (DESIGN.md §11): under a positive suspect grace they make a
    role {e suspect}, and a bounded pool of reconcilers asks the issuers
    until each suspect is reinstated or revoked, or the grace runs out and
    it is deactivated (fail-closed). A crash drops all of this except each
    role's dependency list, which restart rebuilds from.

    Every deactivation, suspicion and reconciliation is an audited
    decision ({!Audit_trail}).

    A role is its credential record: the certificate itself is kept only
    by the service's {!Issuer_records}, which answers for it. The monitor
    keeps active roles only: a deactivated role leaves it, and its
    dependencies are its registrations. Each per-issuer monitor holds its
    registrations, its own subscription to the issuer's feed, the time of
    the last beat heard and, under heartbeats, the pending deadline check;
    it is retired at a missed deadline or when its last registration goes. *)

type t

val create :
  World.t ->
  service:Oasis_util.Ident.t ->
  name:string ->
  env:Oasis_policy.Env.t ->
  records:Issuer_records.t ->
  audit:Audit_trail.t ->
  cache:Oasis_cert.Validation_cache.t ->
  suspect_grace:float ->
  reconcile_batch:int ->
  retry:Oasis_util.Backoff.policy ->
  t
(** The monitor of the service [service] named [name], watching nothing
    yet. [records] are the service's own credential records, [cache] its
    validation cache, and [suspect_grace], [reconcile_batch] and [retry]
    the service's configuration. *)

val start : t -> unit
(** Installs the env listener, the per-subject [trust_score] re-check and
    the service's crash and restart hooks ({!Oasis_sim.Fault.set_hooks}).
    {!Service.create} calls it once the policy is installed, so a service
    whose policy is rejected leaves no listener behind. *)

(** {1 Granting and revoking} *)

val grant : t -> Oasis_cert.Credential_record.t -> Oasis_policy.Solve.proof -> unit
(** Starts monitoring a freshly granted role, named by the record its RMC
    was issued with ({!Issuer_records.issue_rmc}): a watch per prerequisite
    RMC (always) and per membership-marked appointment, and every
    membership-marked env constraint. The record's id, role, arguments and
    principal are all the monitor keeps of the RMC. *)

val revoke : t -> Oasis_util.Ident.t -> reason:string -> bool
(** Revokes a certificate this service issued: a role is deactivated —
    its monitoring torn down, a [Revoke] decision logged — and an
    appointment simply revoked. [false] if unknown or already revoked. *)

val release : t -> Oasis_util.Ident.t -> session_key:string -> bool
(** The principal's own deactivation of a role, proven by its session key.
    [false] if the key is not the one the RMC was issued to
    ({!Issuer_records.certificate}). A role a cascade already collapsed
    is released too ([true], nothing logged): the principal may drop its
    RMC. *)

val revoke_all : t -> reason:string -> int
(** Revokes every valid certificate this service issued, then drops every
    cached verdict with its registration. Returns how many were revoked. *)

(** {1 Validation-side hooks} *)

val cache_valid :
  t -> issuer:Oasis_util.Ident.t -> Oasis_cert.Validation_cache.presented -> unit
(** Caches a positive callback verdict for this presentation and registers
    it once under its issuer's monitor: a revocation turns the entry into
    a cached negative, silence only retires it (or poisons it too, where
    silence revokes). *)

val note_unreachable : t -> Oasis_util.Ident.t -> unit
(** A validation RPC to the issuer was lost: under a positive suspect
    grace every role registered under that issuer's monitor becomes
    suspect, in id order (change-event worlds have no heartbeat to miss). *)

(** {1 Introspection} *)

val is_down : t -> bool
(** Whether the service is crashed ({!Oasis_sim.Fault.is_crashed}). *)

val active_roles :
  t -> (Oasis_util.Ident.t * string * Oasis_util.Value.t list * Oasis_util.Ident.t) list
(** Id, role, arguments and principal of each active role, in id order. *)

val suspect_roles : t -> (Oasis_util.Ident.t * string) list
(** The active roles that are suspect, in id order. *)

val env_watcher_count : t -> string -> int
val env_watcher_count_tuple : t -> string -> Oasis_util.Value.t list -> int

type counters = {
  revocations : Oasis_obs.Obs.Counter.t;
  cascade_deactivations : Oasis_obs.Obs.Counter.t;
  env_rechecks : Oasis_obs.Obs.Counter.t;
  suspects : Oasis_obs.Obs.Counter.t;
  reconciled_reinstated : Oasis_obs.Obs.Counter.t;
  reconciled_revoked : Oasis_obs.Obs.Counter.t;
  retries_reconcile : Oasis_obs.Obs.Counter.t;
  flaps_suppressed : Oasis_obs.Obs.Counter.t;
}

val counters : t -> counters
(** The monitor's counters in the world's registry, for {!Service.stats}. *)
