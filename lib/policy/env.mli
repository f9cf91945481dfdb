(** Environmental constraints (Sect. 2).

    "Role activation rules may include environmental constraints ... the time
    of day, the location or name of a computer, that the user is a member of
    a group (ascertained by database lookup at some service), that parameters
    are related in a specified way, or that the user is a specified exception
    to a general category."

    An [Env.t] holds two kinds of predicate:
    - {b facts}: extensional ground tuples asserted and retracted at run time
      (database lookups, duty rosters, patient registration, exception lists);
    - {b computed predicates}: intensional checks over bound parameters
      (comparisons, time-of-day windows).

    Fact changes are announced through {!on_change} so the active security
    layer can re-evaluate membership conditions without polling. *)

type t

exception Unknown_predicate of string

val create : Oasis_util.Clock.t -> t
(** A fresh environment with the built-in computed predicates registered:
    [eq], [ne], [lt], [le], [gt], [ge] (binary, over comparable values),
    [before(t)] (now < t), [after(t)] (now ≥ t), [hour_between(lo, hi)]
    (time of day, hours in 0–24, wrapping windows allowed), and
    [trust_score(subject, threshold)] (live assessor score clears the
    threshold; fail-closed [false] until a world bridges in its assessor
    via {!register}). *)

val clock : t -> Oasis_util.Clock.t

val builtin_predicates : (string * int * [ `Pure | `Timed | `Live ]) list
(** The computed predicates {!create} registers, as [(name, arity, kind)].
    [`Pure] predicates depend only on their arguments — their truth value
    never changes spontaneously, so a membership mark on one cannot be
    monitored; [`Timed] predicates read the clock and are re-checked by
    timers ({!next_change_time}); [`Live] predicates read external mutable
    state whose owner announces each change outside the env (the world's
    trust assessor behind [trust_score(subject, threshold)] notifies the
    subject whose score moved, and the membership monitor re-checks that
    subject's gates), so marks on them are monitorable without timers. The
    policy linter keys its arity-consistency and unmonitorable-membership
    checks off this list. *)

val declare_fact : t -> string -> unit
(** Declares a fact predicate that may (for now) have no tuples — e.g. an
    exclusion list with no exclusions. [check] and [enumerate] on undeclared
    names raise {!Unknown_predicate}; declaring keeps typo detection while
    letting empty predicates answer [false] / [[]]. Implied by
    {!assert_fact}. *)

val assert_fact : t -> string -> Oasis_util.Value.t list -> unit
(** Idempotent. Declares the predicate if needed. *)

val retract_fact : t -> string -> Oasis_util.Value.t list -> unit
(** Idempotent. *)

val register : t -> string -> (Oasis_util.Value.t list -> bool) -> unit
(** Registers a computed predicate. Shadows any same-named registration;
    raises [Invalid_argument] if the name is in use by facts. *)

val register_hold : t -> string -> (Oasis_util.Value.t list -> bool) -> unit
(** Registers the {e hold} variant of an already-registered computed
    predicate: the laxer condition an {e existing} membership must satisfy
    to stay active when the predicate is re-checked (gate hysteresis,
    DESIGN.md §16). {!check} keeps answering the grant condition; only
    {!check_hold} consults this. Raises [Invalid_argument] when [name] is
    not a computed predicate. *)

val check : t -> string -> Oasis_util.Value.t list -> bool
(** Evaluates a ground constraint. A leading ['!'] in the name negates the
    underlying predicate (negation as failure, used for patient exceptions
    such as [!excluded(doctor, patient)]). Raises {!Unknown_predicate} for a
    name that is neither a fact predicate nor computed — a policy
    configuration error that must surface loudly. *)

val check_hold : t -> string -> Oasis_util.Value.t list -> bool
(** Like {!check} but answers the hold condition when one is registered
    (falling back to the grant condition otherwise) — what membership
    re-checks ask so a score dithering inside the hysteresis band does not
    flap the revoke cascade. Negation applies to the hold answer of the
    base predicate. New activations must still pass {!check}. *)

val enumerate : t -> string -> Oasis_util.Value.t list list
(** All ground tuples of a fact predicate (for binding free variables during
    rule evaluation). Computed and negated predicates enumerate to [] —
    their variables must be bound by earlier conditions. *)

val base_name : string -> string
(** The predicate name with any leading ['!'] negation marker removed.
    Change notifications carry base names, so watchers index by this. *)

val negated : string -> bool
(** Whether the name carries the ['!'] negation marker. *)

val next_change_time : t -> string -> Oasis_util.Value.t list -> float option
(** For time-dependent computed predicates, the earliest future instant at
    which the constraint's truth value can change ([before(t)] answers [t]);
    the membership monitor schedules a re-check then. [None] for facts and
    time-independent predicates. *)

val on_change : t -> (string -> Oasis_util.Value.t list -> [ `Asserted | `Retracted ] -> unit) -> unit
(** Registers a listener for fact changes. Listeners run synchronously in
    assertion order; the active-security layer bridges them onto event
    channels. *)

val fact_count : t -> int
