(** Scenario scripts: drive an OASIS world from a text file.

    A scenario bundles services (with inline policy), principals,
    certificates and a sequence of actions with expectations, so whole
    access-control workflows can be expressed, replayed and checked without
    writing OCaml — `oasisctl run scenario.scn` executes one. The test
    suite and the `scenarios/` directory contain examples.

    Format (one command per line; [#] starts a comment):
    {v
    seed 7                      # optional, first
    service hospital {          # inline policy until the closing brace
      initial logged_in(u) <- appt:employee(u)@civ ;
      doctor(u) <- *logged_in(u), *appt:qualified(u)@civ ;
      priv read(u) <- doctor(u) ;
    }
    declare hospital assigned   # declare an env fact predicate
    fact hospital assigned(alice, 5)
    retract hospital assigned(alice, 5)

    principal alice
    grant employee(alice) to alice as emp        # issued by the built-in CIV "civ"
    grant qualified(alice) to alice as qual expires 500.0

    session alice s
    activate alice s hospital logged_in expect granted
    activate alice s hospital doctor as docrole expect granted
    invoke alice s hospital read(alice) expect granted

    revoke qual                 # labels name certificates (appointments or RMCs)
    settle
    invoke alice s hospital read(alice) expect denied
    expect-active hospital 1
    expect-metric service.revocations{service=hospital} >= 1
    trace after first revocation  # emits a scenario.mark trace event
    show hospital
    logout alice s
    run-until 1000.0

    suspect-grace 5.0           # config for services created after it
    offline-sign off            # HMAC signers (callback per check); comes first
    fault partition wan hospital|civ   # sides are comma-separated services
    fault heal wan
    fault crash hospital
    fault restart hospital
    v}

    Trust directives (DESIGN.md §15): [interact CLIENT SERVER OUTCOME
    [OUTCOME]] has the domain CIV's registrar witness a contracted
    interaction between two parties (principals or services) and issue the
    Sect. 6 audit certificate live into both parties' wallets; outcomes are
    [fulfilled]/[breached], and one token applies to both sides.
    [expect-trust SUBJECT OP VALUE] checks the subject's live
    beta-reputation score from the world assessor ([trust_score] env
    predicates re-check on every new certificate, so breaches can revoke
    trust-gated roles mid-scenario).

    Trust-robustness directives (DESIGN.md §16): [trust-decay RATE [TICK]]
    turns on time-decayed reputation — certificate weights fade as
    [exp (-RATE * age)] on the virtual clock, and a positive TICK
    re-scores every walleted party that often so decay alone can cross
    gates. [interact-crash CLIENT SERVER OUTCOME [OUTCOME]] issues the
    audit certificate but crashes the registrar between the two wallet
    filings (client filed, server not); [fault restart civ] then runs
    anti-entropy re-delivery, completing the missing half. [expect-wallet
    PARTY OP N] checks a party's wallet size — the observable that makes
    half-issuance and its repair assertable.

    [expect-metric KEY OP VALUE] checks a rendered registry key (see
    {!Oasis_obs.Obs.metric_values}) against a number with one of [== != <= >=
    < >]; failures land in [outcome.failures] like any other expectation.
    [trace NOTE...] emits a [scenario.mark] event so exported timelines can
    be segmented by scenario position.

    Fault directives (DESIGN.md §11) drive the world's {!Oasis_sim.Fault}
    controller: [fault partition NAME A|B] cuts every pair across the two
    comma-separated service groups (RPCs and event channels both), [fault
    heal NAME] removes it, and [fault crash]/[fault restart] take a service
    down (dropping its in-memory monitoring state) and rebuild it from
    durable credential records. [suspect-grace F] configures services
    created {e after} it to keep failure-detected roles active-but-suspect
    for [F] virtual seconds of anti-entropy reconciliation before
    fail-closed deactivation ([0] — the default — deactivates
    immediately). [offline-sign on|off] (default on) picks how the CIV and
    every service sign the certificates they issue: under Schnorr keys
    certified by the domain root, which relying services verify locally
    with zero RPCs, or under the paper's epoch HMAC, which they validate by
    callback (DESIGN.md §12). The CIV is created with the world, so the
    directive is an error after anything that creates the world.

    Argument tokens inside parentheses: a declared principal name denotes
    its identity; integers, floats (times), ["strings"], [true]/[false] are
    constants; in [activate] pins, [_] leaves a parameter unconstrained. *)

type outcome = {
  log : string list;  (** human-readable trace, in execution order *)
  failures : string list;
      (** failed [expect]/[expect-active]/[expect-metric]/[expect-trust]
          checks *)
  metrics : (string * float) list;
      (** the world registry's final state, as rendered key/value pairs
          ({!Oasis_obs.Obs.metric_values}); empty if no world was created *)
  chains : (string * Oasis_trust.Decision_log.t) list;
      (** each service's hash-chained decision log (DESIGN.md §15), by
          service name — what [oasisctl audit] verifies and queries *)
}

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val run_file : ?sink:Oasis_obs.Obs.sink -> string -> (outcome, error) result
(** Parses and executes the scenario file at the path. [Error] is a syntax
    or setup problem (unknown names, malformed commands); expectation
    failures are data in the [outcome]. [sink] attaches to the world's
    tracer before anything runs, streaming the full event timeline
    ([oasisctl trace]). *)

val extract_policies : string -> (Oasis_policy.Lint.service list, error) result
(** Reads only the [service NAME { … }] blocks of a scenario, plus the
    implicit CIV with every kind the policies ask of it as [s_extra_kinds],
    for whole-world static analysis without executing anything
    ([oasisctl lint] and [oasisctl analyze]).
    Statement locations are absolute within the scenario file. *)
