(** Remote validation caching (Sect. 4).

    "An OASIS-aware service will validate a certificate presented as an
    argument via callback to the issuer. The service may cache the
    certificate and the result of validation in order to reduce the
    communication overhead of repeated callback. This requires an event
    channel so that the issuer can notify the service should the certificate
    be invalidated for any reason."

    Two kinds of verdict are cached:
    - {b positive}: a callback answered "valid" for one presentation — the
      certificate, and for an RMC the session key it was presented under.
      It answers only a presentation of that exact certificate (every
      field equal, floats by bit pattern) under the same key: a stolen or
      tampered copy with the same id is checked by callback again. The
      caller must hold an invalidation watch on the issuer's event channel
      so the entry can be retired when the certificate dies.
    - {b negative}: the issuer announced invalidation over that very watch.
      Revocation is permanent in OASIS (re-activation mints a fresh
      certificate id), so the negative verdict is final and later
      presentations of the dead certificate are refused without any further
      callback.

    A plain [false] callback answer is {e not} cached: RMC validation
    depends on the presenter's session key (a stolen certificate presented
    by a thief fails, while the owner's presentation would succeed), so a
    negative wire verdict is not a property of the certificate id alone.
    Experiment E3 measures the round trips this cache saves.

    The same table remembers the result of offline validation (DESIGN.md
    §12): a presentation whose signature a service checked against its
    issuer's key chain and found good ({!verify}, one entry for either
    kind). A later presentation of that exact certificate — every field
    equal, floats by bit pattern — under the same principal key and the
    same key certificate (the value, compared with [==]) skips the
    signature check. It skips nothing else: the chain, issuer, epoch and
    expiry checks, and the caller's revocation checks, run on every
    presentation. Failures are not remembered; {!invalidate} and {!clear}
    drop these records with the verdicts, and they count under no
    [vcache.*] counter. *)

type t

type verdict = Valid | Invalid

(** What a service was shown: an RMC with the session key it was presented
    under (Sect. 4: the key is an input to the check, not a field), or an
    appointment. *)
type presented = Rmc of Rmc.t * string | Appointment of Appointment.t

val presented_id : presented -> Oasis_util.Ident.t

val create : ?obs:Oasis_obs.Obs.t -> ?labels:Oasis_obs.Obs.label list -> unit -> t
(** The counters register into [obs] (default: a private registry) with
    the given [labels] — callers owning several caches distinguish them
    with e.g. [("service", name)]: [vcache.hits] (positive-verdict hits),
    [vcache.negative_hits] (presentations a cached invalidation refused),
    [vcache.misses] ({!lookup}s that found no verdict for the presentation) and
    [vcache.invalidations] (entries turned negative).
    The cache's size is not a count; {!lookup} shows what it holds. *)

val cache_valid : t -> presented -> unit
(** Records a positive callback verdict for this presentation. *)

val lookup : t -> presented -> verdict option
(** [Some Valid] if a positive verdict was cached for this same
    presentation (counts a hit); [Some Invalid] if the certificate id
    carries a negative verdict (counts a negative hit); [None] means the
    caller must perform the callback (counts a miss). *)

val is_poisoned : t -> Oasis_util.Ident.t -> bool
(** Whether a negative verdict is cached (counts a negative hit). For a
    caller that verifies the certificate itself and never fills the cache,
    so an absent entry is not a miss and counts nothing. *)

val verify : t -> address:string -> chain:Signed.chain -> now:float -> presented -> bool
(** {!Signed.verify_rmc} under the RMC's principal key, or
    {!Signed.verify_appointment} at [now], with the signature step answered
    from the table when this same presentation verified before under
    [chain.cert]. A success is remembered under the certificate id, unless
    the id carries a negative verdict, which stays. *)

val invalidate : t -> Oasis_util.Ident.t -> unit
(** Called on an invalidation event from the issuer's channel. Converts the
    entry (present or not) into a cached negative verdict, dropping any
    record of a signature check. Idempotent. *)

val drop : t -> Oasis_util.Ident.t -> unit
(** Retires a positive entry without recording a negative verdict: the
    verdict became {e unknown} (issuer unreachable, heartbeat silence), not
    {e false}. The next presentation performs the callback again. Cached
    negatives are left in place — revocation stays permanent — and so are
    records of signature checks, which say nothing about freshness. *)

val clear : t -> unit
(** Forgets everything: verdicts and signature-check records (a crash). *)
