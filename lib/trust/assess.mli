(** Risk assessment over presented audit certificates (Sect. 6).

    "Each party may then take a calculated risk on whether to proceed ...
    The domain of the auditing service for a certificate is a factor that
    must be taken into account when assessing the risk."

    The assessor keeps a per-registrar credibility weight, scores a
    counterparty's presented history with a beta-reputation estimate over
    validated certificates, and proceeds when the score clears a threshold.
    When an interaction's actual outcome contradicts what the presented
    history predicted, the registrars that vouched are discounted — this is
    the mechanism that defeats collusion through rogue domains, ablated in
    experiment E8.

    Evidence is {e time-decayed} (DESIGN.md §16): a certificate's weight is
    its registrar credibility times [exp (-. decay_rate *. age)] on the
    world's virtual clock, so stale testimony fades toward the uniform
    prior. Because the same factor scales every already-counted
    certificate, the assessor can keep a per-subject running aggregate and
    bring it forward to any later instant in O(1), making repeat
    assessments O(certs for the subject) rather than O(wallet) per check. *)

type t

val create :
  ?threshold:float -> ?discounting:bool -> ?decay_rate:float -> unit -> t
(** Defaults: threshold 0.5, discounting on, decay_rate 0.0 (ageless —
    every certificate keeps full weight forever, the pre-decay
    behaviour). *)

val threshold : t -> float

val decay_rate : t -> float

val set_decay_rate : t -> float -> unit
(** Changes lambda and drops every cached aggregate (they were folded under
    the old rate). Raises [Invalid_argument] on a negative rate. *)

val registrar_weight : t -> Oasis_util.Ident.t -> float
(** Current credibility of a registrar; 1.0 until evidence accumulates. *)

(** The verdict on one counterparty, with the evidence that produced it. *)
type verdict = {
  subject : Oasis_util.Ident.t;
  score : float;  (** beta estimate in (0, 1); 0.5 with no evidence *)
  proceed : bool;
  evidence : (Audit.t * float) list;  (** validated certificates and the weight each carried *)
  rejected : int;  (** total presentations not counted; sum of the per-cause fields *)
  rejected_not_about_subject : int;  (** certificate does not involve [subject] *)
  rejected_validation_failed : int;  (** registrar refused to validate it *)
  rejected_duplicate : int;  (** same certificate id presented again *)
}

val assess :
  t ->
  validate:(Audit.t -> bool) ->
  subject:Oasis_util.Ident.t ->
  presented:Audit.t list ->
  verdict
(** [validate] is the callback to the certificate's registrar (the caller
    routes it; network or direct). Certificates not involving [subject],
    failing validation, or repeating an already-presented certificate id
    count as rejected, each under its own cause. Ageless: equivalent to
    {!assess_at} with [now = 0.0], under which every age clamps to zero and
    decay is a no-op. *)

val assess_at :
  ?remember:bool ->
  t ->
  now:float ->
  validate:(Audit.t -> bool) ->
  subject:Oasis_util.Ident.t ->
  presented:Audit.t list ->
  verdict
(** {!assess} on the virtual clock: evidence ages are measured against
    [now] and decayed at the assessor's rate. [remember] (default false)
    seeds the subject's running aggregate from this full recompute — pass
    it only when [presented] is the subject's {e complete} wallet, or later
    {!cached_score} reads will be wrong. *)

val observe : t -> subject:Oasis_util.Ident.t -> now:float -> Audit.t -> unit
(** Fold one freshly issued, already-validated certificate into the
    subject's running aggregate (no-op if no aggregate has been seeded by a
    remembered {!assess} yet). The caller vouches for validity and
    dedup — wallets dedup by certificate id before filing. *)

val cached_score :
  t -> subject:Oasis_util.Ident.t -> now:float -> float option
(** The subject's score at [now] from the running aggregate, brought
    forward with one decay multiplication. [None] when no aggregate exists
    (never assessed with [remember], or invalidated since) or when [now]
    precedes the aggregate's reference instant — fall back to a full
    {!assess}. *)

val invalidate : t -> unit
(** Drop all running aggregates (registrar weights or decay parameters
    changed out of band). *)

val feedback : t -> verdict -> actual:Audit.outcome -> unit
(** After proceeding, report how the counterparty actually behaved. If the
    history said "trustworthy" and the party breached, every registrar whose
    certificates vouched is discounted multiplicatively; consistent
    registrars recover slowly. No-op when discounting is off. Any weight
    adjustment also drops cached aggregates. *)
