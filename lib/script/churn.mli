(** Trust-churn chaos core (DESIGN.md §16).

    Builds one world per seed — a CIV registrar plus a "gate" service whose
    [trusted] role is gated on [env:trust_score(u) >= θ ~ δ] — and runs a
    randomised schedule of contracted interactions (the score flaps across
    the gate), registrar crashes between the two wallet filings
    (half-issuance), partitions isolating the trust owner, gate
    crash/restart cycles (durable decision-log resume), and quiet decay
    stretches. Invariant violations are collected, not asserted, so the
    flappy ablation ([band = 0.0]) and the tamper drill ([tamper]) can count
    them: the test suite ({!test_chaos_trust}) asserts zero violations on
    the real configuration, more flaps without the band, and that every
    tampered chain is refused on restart; bench E17 reports the same
    numbers.

    Invariants checked per seed:
    - {b gate}: no [trusted] role stays active while the subject's score
      sits below θ - δ (minus a small decay-drift margin);
    - {b chain}: the gate's decision-log chain verifies after every
      crash/restart, and a restart is refused {e only} when the durable
      chain was actually tampered with;
    - {b anti-entropy}: once every fault heals, both parties' wallets hold
      the same certificates and the registrar has no half-filed issuance
      left. *)

type config = {
  seed : int;
  steps : int;
  band : float;  (** hysteresis δ; [0.0] is the flappy ablation *)
  decay_rate : float;  (** λ in [exp (-λ·age)]; [0.0] disables decay *)
  decay_tick : float;  (** periodic re-assessment period (virtual s) *)
  tamper : bool;  (** corrupt the durable chain mid-run *)
}

val default_config : config
(** Seed 1, 30 steps, δ = 0.1, λ = 0.05 with a 0.5 s tick, no
    tampering. *)

type summary = {
  seed : int;
  t_end : float;  (** virtual end time *)
  interactions : int;  (** audit certificates issued *)
  mid_crashes : int;  (** registrar crashes injected mid-issuance *)
  gate_restarts : int;  (** successful gate restarts (chain resumed) *)
  grants : int;  (** times the trusted role was (re-)granted *)
  cascade_deactivations : int;  (** monitoring-driven revocations at the gate *)
  flaps_suppressed : int;  (** rechecks the hysteresis band absorbed *)
  final_score : float;
  trusted_at_end : bool;
  wallet_subject : int;
  wallet_peer : int;
  chain_length : int;
  tampered : bool;  (** the durable chain was actually corrupted *)
  tamper_detected : bool;  (** a restart refused with [Chain_tampered] *)
  violations : string list;  (** empty iff every invariant held *)
}

val run : config -> summary
(** Runs one full schedule (deterministic in [config]) and returns its
    summary; violations are data, the function never asserts. *)
