(** Static analysis (linting) of OASIS policies before deployment.

    The paper's premise is that each service autonomously authors its own
    Horn-clause policy: "the formal expression of policy and its automatic
    deployment" (Sect. 1) is all that stands between a typo and a live
    access-control hole. This module checks rule-level soundness statically,
    producing severity-ranked diagnostics located at the offending
    statement's [file:line:col] — errors that today would only surface as
    request-time [Bad_request] refusals (or not at all).

    {2 Rule catalogue}

    Dataflow (Sect. 2 — rules must issue {e ground} role certificates):
    - {b L001 unbound-head} (error): a head parameter of a parametrised role
      appears in no condition at all. The rule can neither derive the
      parameter (activating without pinning it raises [Solve.Unbound_head])
      nor validate a caller-pinned value — any value is accepted unchecked.
      Parameters bound only by computed constraints ([env:eq(u, 10)]) are
      deliberately accepted: the caller pins them and the constraint checks
      them.
    - {b L002 singleton-var} (warning): a variable occurs exactly once in
      the rule — usually a typo for another variable. Prefix the name with
      ['_'] to mark an intentional don't-care ([hr_admin(_a)]).
    - {b L003 nonground-negation} (error): a negated environmental
      constraint has a variable not bound by an earlier condition in
      left-to-right solve order. Negation as failure is sound only over
      ground instances; at request time this raises
      [Solve.Nonground_negation] and the service answers [Bad_request].

    Consistency:
    - {b L101 arity-mismatch} (error): a role, privilege, appointment kind
      or environmental predicate is used at inconsistent arities across
      rules (and across services); built-in predicates are checked against
      {!Env.builtin_predicates}. Mismatched references can never unify.
    - {b L102 unknown-role} (error): a prerequisite names a role its target
      service never defines.
    - {b L103 unknown-service} (error, closed worlds only): a reference
      names a service outside the analysed world.
    - {b L104 unknown-appointment} (error): an appointment condition names
      a kind its issuer neither defines an [appoint] rule for nor is
      declared to issue externally ([extra_kinds]).

    Membership / revocation (Sect. 4 — active security):
    - {b L201 unmonitorable-membership} (warning): a membership-marked
      constraint over a pure built-in predicate ([*env:eq(...)]); no fact
      change or timer can ever re-trigger it, so the mark is dead.
    - {b L202 unmonitored-appointment} (warning): an appointment condition
      without the ['*'] mark; revoking the certificate will never cascade
      into the role, silently breaking Sect. 4's guarantee that session
      trees collapse.
    - {b L203 cascade-depth} (info): a role's worst-case revocation cascade
      depth (longest prerequisite chain) exceeds the threshold; deep chains
      stretch the paper's "immediate" revocation across many hops.

    Waivers: a comment containing [lint:allow CODE[,CODE...]] on a
    statement's first line, or on the line directly above it, suppresses
    those findings ({!waivers}, {!apply_waivers}). *)

type severity = Error | Warning | Info

(** ["error"], ["warning"], ["info"]. *)

type finding = {
  code : string;  (** stable diagnostic code, e.g. ["L001"] *)
  check : string;  (** human name of the check, e.g. ["unbound-head"] *)
  severity : severity;
  service : string;  (** service whose policy contains the statement *)
  loc : Rule.loc;  (** statement position; {!Rule.no_loc} if programmatic *)
  message : string;
}

val pp_finding : Format.formatter -> finding -> unit
(** [line:col: error L001 [unbound-head] message (service)] — one line,
    compiler-diagnostic style. *)

(** One service's policy, as the linter sees it. *)
type service = {
  s_name : string;
  s_activations : Rule.activation list;
  s_authorizations : Rule.authorization list;  (** [priv] rules *)
  s_appointers : Rule.authorization list;  (** [appoint] rules *)
  s_extra_kinds : string list;
      (** appointment kinds this service issues through channels other than
          [appoint] rules (e.g. a CIV's administrative interface) *)
}

val of_statements : name:string -> ?extra_kinds:string list -> Parser.statement list -> service

val dangling : ?closed:bool -> service list -> finding list
(** The dangling-reference findings alone (L102, L103, L104), in rule
    order. [closed] (default [true]) treats services outside the list as
    unknown (L103); pass [false] when linting a single service out of
    context — references to other services are then assumed resolvable
    and skipped. *)

val cascade_depths : service list -> ((string * string) * int) list
(** Worst-case revocation cascade depth per defined [(service, role)]:
    1 for roles with no prerequisite roles, else 1 + the deepest
    prerequisite's depth. Roles on a prerequisite cycle, or depending on
    unresolvable prerequisites, are reported at the depth of their
    resolvable part. Sorted. *)

val sort_findings : finding list -> finding list
(** By service, then position, then code, then message — the order every
    analyser reports in. *)

val check : ?closed:bool -> ?max_cascade_depth:int -> service list -> finding list
(** All findings over the world, sorted by service, then position, then
    code. [closed] as in {!dangling}. [max_cascade_depth] (default 4)
    bounds the depth above which L203 is reported. *)

val install_blocking : finding -> bool
(** Whether a finding should block a service's policy install:
    error-severity findings whose truth does not depend
    on other services' policies (L001, L003, L101) — exactly the class
    that can only ever fail at request time. Cross-service resolution
    (L10x) is a world property, enforced by [oasisctl lint] /
    [oasisctl analyze] instead. *)

val waivers : string -> (int * string list) list
(** Scans policy source text for [lint:allow] comments: each result is
    [(line, codes)] where [line] is the statement line the waiver applies
    to — a standalone comment line waives the line below it, a trailing
    comment waives its own line. [codes] accepts either diagnostic codes
    ([L202]) or check names ([unmonitored-appointment]). *)

val apply_waivers : waivers:(int * string list) list -> finding list -> finding list
(** Drops findings whose code or check name is waived on the finding's
    line. *)

val finding_json : finding -> string
(** [{"code","check","severity","service","line","col","message"}]. *)

val to_json : ?depths:((string * string) * int) list -> finding list -> string
(** Machine-readable report:
    [{"findings":[{"code","check","severity","service","line","col",
    "message"}...],"errors":N,"warnings":N,"infos":N,
    "cascade_depths":[{"service","role","depth"}...]}]. *)
