(** Active security on the relying side (Fig. 5, Sect. 4).

    Beside the decision path, a service watches every condition a role it
    granted rests on and collapses the role the moment one fails:

    - each supporting credential through an invalidation watch: a
      registration under the one monitor this service keeps per issuer on
      the issuer's feed ({!Issuer_records.beat_topic}), whose beats name
      the revocations, and an epoch gap — counted from the epoch the
      monitor learnt when it joined ({!World.feed_epoch}) — has the
      watched certificates' tombstones read ({!World.revocation}); under
      heartbeats
      ({!World.monitoring}) the feed's silence fails everything watched
      there — and each cached positive validation verdict the same way;
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
    decision ({!Audit_trail}). *)

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

val grant :
  t ->
  rmc:Oasis_cert.Rmc.t ->
  record:Oasis_cert.Credential_record.t ->
  session_key:string ->
  principal:Oasis_util.Ident.t ->
  Oasis_policy.Solve.proof ->
  unit
(** Starts monitoring a freshly granted role: a watch per prerequisite RMC
    (always) and per membership-marked appointment, and every
    membership-marked env constraint. *)

val granted : t -> Oasis_cert.Rmc.t -> session_key:string -> bool
(** Whether [rmc] is exactly the certificate {!grant} recorded under its
    id — every field equal, floats by bit pattern — bound to
    [session_key]. The grant record outlives revocation and crashes, so
    this is the whole authenticity check for the service's own RMCs, with
    no signature to verify; whether the role is still held is
    {!Issuer_records.is_valid}'s answer. *)

val revoke : t -> Oasis_util.Ident.t -> reason:string -> bool
(** Revokes a certificate this service issued: a role is deactivated —
    its monitoring torn down, a [Revoke] decision logged — and an
    appointment simply revoked. [false] if unknown or already revoked. *)

val release : t -> Oasis_util.Ident.t -> session_key:string -> bool
(** The principal's own deactivation of a role, proven by its session key.
    [false] if the key does not match the role's. *)

val revoke_all : t -> reason:string -> int
(** Revokes every valid certificate this service issued, then drops every
    cache watch and the cache. Returns how many were revoked. *)

(** {1 Validation-side hooks} *)

val cache_valid :
  t -> issuer:Oasis_util.Ident.t -> Oasis_cert.Validation_cache.presented -> unit
(** Caches a positive callback verdict for this presentation and watches
    the certificate on its issuer's feed: a revocation turns the entry into
    a cached negative, silence only retires it (or poisons it too, where
    silence revokes). *)

val note_unreachable : t -> Oasis_util.Ident.t -> unit
(** A validation RPC to the issuer was lost: under a positive suspect
    grace every active role depending on it becomes suspect (change-event
    worlds have no heartbeat to miss). *)

(** {1 Introspection} *)

val is_down : t -> bool
(** Whether the service is crashed ({!Oasis_sim.Fault.is_crashed}). *)

val active_roles :
  t -> (Oasis_util.Ident.t * string * Oasis_util.Value.t list * Oasis_util.Ident.t) list

val suspect_roles : t -> (Oasis_util.Ident.t * string) list
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
