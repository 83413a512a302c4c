# Developer entry points.  `make check` is the gate: tier-1 tests, the
# engine differential/property suites at the thorough hypothesis profile
# (500+ generated differential cases), the CLI observability smoke, the
# fault-injection chaos smoke, the tracing smoke, the conformance smoke
# (oracle fire drill + regression-corpus replay), the patch smoke
# (incremental-vs-full agreement on an edit storm), the serve smoke
# (a live `repro serve` subprocess: status mapping, breaker quarantine,
# SIGTERM drain), the obs smoke (request correlation end to end: one
# trace id across response header, access log, retained trace, and
# exemplar), the diff smoke (repro diff exit codes 0/1/2, separator
# certificate wording, witness-document cross-validation), the
# perfguard hot-path floor replay, and the repository benchmark's own
# self-tests; stays around two minutes.

PYTEST = PYTHONPATH=src python -m pytest

.PHONY: check test differential bench bench-engine metrics-smoke \
	chaos-smoke trace-smoke conformance-smoke patch-smoke serve-smoke \
	obs-smoke diff-smoke conformance perfguard perfbench-selftest

check: test differential metrics-smoke chaos-smoke trace-smoke \
	conformance-smoke patch-smoke serve-smoke obs-smoke diff-smoke \
	perfguard perfbench-selftest

test:
	$(PYTEST) -x -q

differential:
	HYPOTHESIS_PROFILE=thorough $(PYTEST) -q -m differential

metrics-smoke:
	PYTHONPATH=src python scripts/metrics_smoke.py

chaos-smoke:
	PYTHONPATH=src python scripts/chaos_smoke.py

trace-smoke:
	PYTHONPATH=src python scripts/trace_smoke.py

conformance-smoke:
	PYTHONPATH=src python scripts/conformance_smoke.py

# Patch/incremental surface: CLI mode agreement, a random edit storm
# against the tree validator, and the patch serialization round trip.
patch-smoke:
	PYTHONPATH=src python scripts/patch_smoke.py

# Serving surface: a real `repro serve` subprocess driven over sockets —
# 200/422/503 status mapping, breaker quarantine fail-fast, metrics
# scrape, SIGTERM graceful drain.
serve-smoke:
	PYTHONPATH=src python scripts/serve_smoke.py

# Request-observability surface: traceparent propagation, tail-sampled
# trace retention, exemplars, access log, and the repro top/traces
# viewers against a live daemon.
obs-smoke:
	PYTHONPATH=src python scripts/obs_smoke.py

# Schema-diff surface: repro diff on real schema files — cross-formalism
# equivalence (exit 0), a separator certificate with a machine-verified
# witness document (exit 1), error/budget handling (exit 2), and the
# JSON shape.
diff-smoke:
	PYTHONPATH=src python scripts/diff_smoke.py

# Engine hot-path regression guard: replays the E13 small tier against
# the committed floors in benchmarks/results/perfguard_floor.json.
perfguard:
	PYTHONPATH=src:. python scripts/perfguard.py

# The repository benchmark's self-tests (perfbench/tests).  Tier-1
# collects only tests/, yet the benchmark reads program names under
# src/ (CompiledSchema.dense, types[i].dfa, byte_ids, names, the
# engine.dense.* counters); a rename breaks here, not in a benchmark run.
perfbench-selftest:
	python -m pytest perfbench/tests -q

# The full acceptance sweep (the smoke runs a miniature of it).
conformance:
	PYTHONPATH=src python -m repro.cli conformance --seed 0 --cases 500

bench:
	$(PYTEST) -q benchmarks/ -s

bench-engine:
	$(PYTEST) -q benchmarks/bench_e13_engine.py -s
