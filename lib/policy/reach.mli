(** Symbolic goal-reachability: the adversarial question the paper's formal
    policies make answerable — {e can a principal holding only these
    credentials ever activate that role, under any environment?}

    This is the one reachability analysis over a world of {!Lint.service}
    policies. It computes the least fixpoint of reachable role activations
    over the world's Horn rules, starting from an explicit credential set —
    the empty wallet for the adversary's question, {!permissive} for the
    policy author's (which roles and privileges are dead) — handling

    - {b appointment chains}: an appointment the adversary does not hold is
      still obtainable if an [appoint] rule for the kind fires from roles
      the adversary can reach — self-issuance across services;
    - {b environment lattices}: each environmental predicate is {e free}
      (the adversary may wait for / steer it), {e pinned true} or {e pinned
      false}; verdicts are three-valued accordingly;
    - {b negation as failure} on environmental constraints: a negated
      constraint over a pinned predicate is decided, over a free one it is
      an assumption the witness records;
    - {b ground pure built-ins}: [env:eq(1, 1)] and friends are evaluated,
      not assumed (time-dependent built-ins stay contingent);
    - {b activation cycles}: roles reachable only through each other stay
      unreachable, so each member of a cycle with no way in is dead.

    After the fixpoint, every privilege gets a verdict too: the best of its
    [priv] rules, each evaluated like an [appoint] rule body (required
    roles against the final role table, constraints three-valued). A
    privilege is grantable unless [Unreachable], dead otherwise.

    Every non-[Unreachable] role verdict carries a {e witness}: the derivation
    tree of rule firings, held credentials, chained appointments and
    environment assumptions that realises the goal. The scenario fuzzer
    flattens each witness into the activation/appointment steps a live
    principal would take and replays them against the real
    [Service]/[Solve] engine, so the static and dynamic layers keep each
    other honest (test/test_fuzz.ml).

    {!findings} folds the analysis into CI as lint-grade diagnostics:

    - {b R001 open-privilege} (error): a role is activable with an {e empty}
      credential wallet (possibly contingent on environment) — anyone can
      hold it;
    - {b R002 dead-grant} (error): a role no credential set and no
      environment can ever fire under the {!permissive} wallet — roles on a
      prerequisite cycle with no way in land here, one finding each;
    - {b R003 revocation-exempt} (warning): an unmonitored appointment
      condition sits on a derivation path to a {e sensitive} role (one that
      guards a privilege or appointment issuance); revoking that credential
      will never cascade into the role (Sect. 4's active-security guarantee
      silently does not apply).

    [lint:allow R00x] waivers work exactly as for L-rules
    ({!Lint.apply_waivers}). *)

(** The adversary's starting credential set. *)
type adversary = {
  held_appointments : (string * string) list;
      (** [(issuer service, kind)] appointment certificates in the wallet *)
  held_roles : (string * string) list;
      (** [(service, role)] RMCs already held (e.g. an insider's session) *)
}

val no_credentials : adversary
(** The empty wallet — the default adversary, and the R001 probe. *)

val permissive : Lint.service list -> adversary
(** Every appointment kind every service can issue — its [appoint]-rule
    kinds plus [s_extra_kinds] — and no roles: the best-case principal, and
    the R002 probe. *)

type verdict =
  | Reachable  (** derivable whatever the environment does *)
  | Env_contingent
      (** derivable iff the free environmental predicates recorded in the
          goal's [assumptions] cooperate *)
  | Unreachable  (** underivable under every environment valuation *)

(** What a rule firing derives. *)
type head = Role of string | Appoint of string

(** A derivation tree for a goal. *)
type witness =
  | Held of { service : string; role : string }
      (** an RMC the adversary started with *)
  | Fired of {
      service : string;  (** service owning the fired rule *)
      head : head;
      loc : Rule.loc;
      premises : premise list;  (** one per satisfied body condition *)
    }

and premise =
  | Role_premise of witness  (** prerequisite role, with its derivation *)
  | Appointment_premise of {
      issuer : string;
      kind : string;
      monitored : bool;  (** the condition's membership mark *)
      via : witness option;
          (** [None]: held by the adversary; [Some w]: self-issued through
              the [appoint]-rule derivation [w] (an appointment chain) *)
    }
  | Env_premise of {
      pred : string;  (** constraint name, ['!']-prefixed when negated *)
      args : Term.t list;
      assumed : bool;
          (** [true]: the predicate is free and the derivation assumes it
              favourable; [false]: pinned or evaluated *)
    }

type goal = {
  g_service : string;
  g_role : string;
  g_verdict : verdict;
  g_witness : witness option;  (** present unless [Unreachable] *)
  g_assumptions : (string * bool) list;
      (** free environmental predicates the witness assumes, as
          [(base name, required truth)]; non-empty iff [Env_contingent] *)
}

(** A privilege's verdict, over all of its [priv] rules. *)
type privilege = { p_service : string; p_privilege : string; p_verdict : verdict }

type result = {
  goals : goal list;  (** every defined (service, role), sorted *)
  privileges : privilege list;  (** every defined (service, privilege), sorted *)
  r_adversary : adversary;
  r_pins : (string * bool) list;
}

val analyse :
  ?adversary:adversary ->
  ?pins:(string * bool) list ->
  Lint.service list ->
  result
(** [analyse ~adversary ~pins world] computes the reachability fixpoint.
    [adversary] defaults to {!no_credentials} — the {e worst}-case wallet;
    pass {!permissive} for the best case. A held appointment counts whether
    or not its issuer issues that kind. [pins] maps environmental predicate
    base names to a pinned truth value; unpinned predicates are free. *)

val findings : Lint.service list -> Lint.finding list
(** The R-rule catalogue over the world, sorted like {!Lint.check} output
    and carrying rule positions, so [oasisctl analyze] gates CI exactly as
    [oasisctl lint] does. *)

val pp_goal : Format.formatter -> goal -> unit
val pp_result : Format.formatter -> result -> unit
(** The wallet and pins, one line per role goal (with its witness), then
    one [VERDICT priv NAME@SERVICE] line per privilege. *)

val to_json : ?findings:Lint.finding list -> result -> string
(** Machine-readable report:
    [{"adversary":{...},"pins":[...],"goals":[{"service","role","verdict",
    "assumptions":[...],"witness":{...}|null}...],"privileges":[{"service",
    "privilege","verdict"}...],"findings":[...],
    "errors":N,"warnings":N,"infos":N}]. Findings use the same shape as
    {!Lint.to_json}. *)
