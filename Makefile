# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint analyze fuzz trace-smoke trust-smoke chaos chaos-trust check bench bench-scale bench-trust perf-ab doc clean examples

all: build

build:
	dune build @all

test:
	dune runtest

# Static policy lint over the shipped policies and scenarios; exits
# non-zero on any error-severity finding.
lint: build
	dune exec bin/oasisctl.exe -- lint policies/hospital.oasis --name hospital --kinds is_admin,is_rota_manager
	dune exec bin/oasisctl.exe -- lint scenarios/hospital.scn
	dune exec bin/oasisctl.exe -- lint scenarios/nurse_allocation.scn

# Symbolic reachability analysis (DESIGN.md §13) over the same surfaces:
# classic report plus the R001-R003 findings; exits non-zero on any
# error-severity finding, so the shipped policies must analyze clean (or
# carry explicit lint:allow waivers).
analyze: build
	dune exec bin/oasisctl.exe -- analyze policies/hospital.oasis --name hospital --kinds is_admin,is_rota_manager
	dune exec bin/oasisctl.exe -- analyze scenarios/hospital.scn
	dune exec bin/oasisctl.exe -- analyze scenarios/nurse_allocation.scn

# Property-driven scenario fuzzer: random worlds random-walked through the
# real Service/Solve engine, every activation cross-checked against the
# symbolic analyzer's verdict and every reachable verdict replayed as a
# concrete witness plan (test/test_fuzz.ml; also part of `dune runtest`).
fuzz: build
	dune exec test/test_main.exe -- test fuzz

# Traces the hospital scenario end to end and schema-checks every JSONL
# event line (--check re-parses what the sink wrote); proves the whole
# observability pipeline — world registry, trace sinks, exporter — runs.
trace-smoke: build
	dune exec bin/oasisctl.exe -- trace scenarios/hospital.scn --check -o /dev/null

# The trust/audit pipeline (DESIGN.md §15): E16 at smoke scale (live
# score-gated revocation, collusion ablation, chain tamper drill), then
# `oasisctl audit verify` proves the hospital scenario's decision chains
# re-verify from genesis and that a single flipped bit is detected.
trust-smoke: build
	dune exec bench/main.exe -- E16 --smoke
	dune exec bin/oasisctl.exe -- audit verify scenarios/hospital.scn
	dune exec bin/oasisctl.exe -- audit verify scenarios/hospital.scn --tamper 1234

# Randomised fault schedules (partitions, crash/restart, revocation)
# against the DESIGN.md §11 safety properties, plus a vacuity guard that
# some schedule reaches fail-closed degradation after a revocation. Also
# part of `dune runtest` via the fault/chaos suites.
chaos: build
	dune exec test/test_main.exe -- test chaos

# Trust-churn chaos (DESIGN.md §16): randomised interaction schedules flap
# a score across the hysteresis-banded gate while the registrar crashes
# mid-issuance and the gate crash/restarts through its durable decision-log
# chain. CHAOS_QUICK=1 trims seeds/steps but keeps every assertion,
# including the δ=0 ablation (flaps more) and the tamper drill (every
# tampered chain is refused).
chaos-trust: build
	CHAOS_QUICK=1 dune exec test/test_main.exe -- test chaos-trust

# The full gate: build everything, run the test suite, lint and
# reachability-analyze the shipped policies, smoke the trace pipeline, run
# the chaos harness and the analyzer/engine cross-check fuzzer, and smoke
# the bench harness (single cheap iteration; proves the JSON emitters run
# and writes under _build/bench-smoke/, never over the committed BENCH_*.json).
check: build test lint analyze trace-smoke trust-smoke chaos chaos-trust fuzz
	dune exec bench/main.exe -- E9 E11 E12 E13 E15 E16 E17 --smoke

# Regenerates every paper figure/scenario (see EXPERIMENTS.md).
bench:
	dune exec bench/main.exe

# The scale curve (DESIGN.md §14): activation throughput, revocation-cascade
# latency and memory from 10^3 to 10^5 sessions plus a 10^6-timer engine
# churn, written to BENCH_scale.json.
bench-scale:
	dune exec bench/main.exe -- E15

# Trust and audit (DESIGN.md §15): live score-gated revocation with the
# Fig. 5 causal trace, collusion vs registrar discounting, the Byzantine
# minority bound, and the 10^4-decision chain verify/tamper drill, written
# to BENCH_trust.json. (Explicit target: `trust` is not an experiment name,
# so the bench-% pattern must not catch this one.)
bench-trust:
	dune exec bench/main.exe -- E16

# A/B run of the repository benchmark (perf/README.md), e.g.
#   make perf-ab BASE=HEAD~1 W=revoke N=10
# Builds perf.exe for revision BASE from a `git archive` export under
# _build/perf-ab/base and for the working tree here, runs N seed pairs
# (seeds 1..N, at BENCHMARK.json's 10-second run length) with -o, alternating
# which side runs first, then compares the two result directories against
# BENCHMARK.json's bounds with compare.exe (exit 1 on a regression).
BASE ?= HEAD~1
W ?= revoke
N ?= 10
AB := _build/perf-ab

perf-ab:
	rm -rf $(AB)
	mkdir -p $(AB)/base $(AB)/runs/base $(AB)/runs/head
	git archive --format=tar $(BASE) | tar -x -C $(AB)/base
	cd $(AB)/base && DUNE_CACHE=disabled dune build --root . --display quiet ./perf/perf.exe
	DUNE_CACHE=disabled dune build --display quiet ./perf/perf.exe ./perf/compare.exe
	for i in $$(seq 1 $(N)); do \
	  if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
	  for side in $$order; do \
	    if [ $$side = base ]; then exe=$(AB)/base/_build/default/perf/perf.exe; \
	    else exe=_build/default/perf/perf.exe; fi; \
	    $$exe --workload $(W) --seed $$i --seconds 10 --trace 0 \
	      -o $(AB)/runs/$$side/$(W)-$$i.json > /dev/null || exit 1; \
	  done; \
	done
	_build/default/perf/compare.exe $(AB)/runs/base $(AB)/runs/head

# A subset, e.g. `make bench-E3 bench-E5`.
bench-%:
	dune exec bench/main.exe -- $*

examples:
	dune exec examples/quickstart.exe
	dune exec examples/ehr_cross_domain.exe
	dune exec examples/visiting_doctor.exe
	dune exec examples/anonymous_clinic.exe
	dune exec examples/accident_emergency.exe
	dune exec examples/night_shift.exe
	dune exec examples/trust_marketplace.exe

doc:
	dune build @doc

clean:
	dune clean
