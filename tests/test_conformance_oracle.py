"""The differential/metamorphic oracle: clean on truth, loud on lies.

Three claims:

* **soundness on correct code** — seeded sweeps over every generator
  family report zero disagreements (the validators and translations
  really do agree, per Lemmas 4-7);
* **the fire drill** — a deliberately corrupted translation arrow and
  an installed :class:`~repro.resilience.FaultInjector` are both
  caught, classified correctly (roundtrip/verdict vs crash), and come
  with concrete counterexample documents;
* **k-suffix boundary** — the k=1 (DTD-like) fragment survives the
  Theorem-12/13 round-trips inside the oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bonxai.bxsd import BXSD
from repro.conformance import (
    CaseGenerator,
    DifferentialOracle,
    SweepConfig,
    run_sweep,
)
from repro.resilience.faults import FaultInjector, installed_injector
from repro.translation import dfa_based_to_bxsd, ksuffix_bxsd_to_dfa_based
from repro.xmlmodel import parse_document

pytestmark = pytest.mark.conformance


def drop_last_rule(dfa):
    """A deliberately wrong Algorithm 2: loses the last BXSD rule."""
    bxsd = dfa_based_to_bxsd(dfa)
    if len(bxsd.rules) > 1:
        return BXSD(bxsd.ename, bxsd.start, bxsd.rules[:-1], check=False)
    return bxsd


class TestCleanBaseline:
    def test_mini_sweep_is_clean(self):
        result = run_sweep(SweepConfig(seed=0, cases=25))
        assert result.cases_run == 25
        assert result.clean, [f.describe() for f in result.failures]
        assert result.stopped_early is None

    def test_sweep_is_deterministic(self):
        first = run_sweep(SweepConfig(seed=3, cases=10))
        second = run_sweep(SweepConfig(seed=3, cases=10))
        assert first.documents == second.documents
        assert first.checks == second.checks

    def test_every_family_appears(self):
        generator = CaseGenerator(seed=0)
        families = {case.formalism for case in generator.cases(40)}
        assert families == {"random", "dtd_like", "context", "unordered"}

    def test_case_generation_is_pure(self):
        generator = CaseGenerator(seed=1)
        left, right = generator.case(7), generator.case(7)
        assert left.formalism == right.formalism
        assert left.dfa.states == right.dfa.states
        assert left.dfa.transitions == right.dfa.transitions
        assert len(left.documents) == len(right.documents)

    @settings(max_examples=20, deadline=None)
    @given(index=st.integers(min_value=0, max_value=5000))
    def test_oracle_clean_on_any_generated_case(self, index):
        case = CaseGenerator(seed=2015).case(index)
        disagreements = DifferentialOracle().check_case(case)
        assert not disagreements, disagreements


class TestFireDrill:
    def test_corrupted_arrow_is_caught(self):
        oracle = DifferentialOracle(arrows={"dfa_to_bxsd": drop_last_rule})
        result = run_sweep(
            SweepConfig(seed=0, cases=30, max_failures=4), oracle=oracle
        )
        assert result.failures
        kinds = {failure.kind for failure in result.failures}
        assert kinds <= {"roundtrip", "verdict", "violations", "crash"}
        assert "roundtrip" in kinds or "verdict" in kinds

    def test_roundtrip_failure_has_concrete_counterexample(self):
        oracle = DifferentialOracle(arrows={"dfa_to_bxsd": drop_last_rule})
        result = run_sweep(
            SweepConfig(seed=0, cases=30, max_failures=6, shrink=False),
            oracle=oracle,
        )
        witnesses = [
            failure.document for failure in result.failures
            if failure.kind == "roundtrip" and failure.document
        ]
        assert witnesses, "no round-trip failure produced a witness"
        for text in witnesses:
            parse_document(text)  # must be a real, replayable document

    def test_injected_fault_is_caught_as_crash(self):
        injector = FaultInjector(seed=7, rates={"validate": 1.0})
        with installed_injector(injector):
            result = run_sweep(SweepConfig(seed=0, cases=5, shrink=False))
        assert result.failures
        assert all(f.kind == "crash" for f in result.failures)
        assert all("InjectedFault" in f.detail for f in result.failures)

    def test_injector_outside_sweep_changes_nothing(self):
        baseline = run_sweep(SweepConfig(seed=0, cases=5))
        assert baseline.clean


class TestKSuffixBoundary:
    def test_k1_dtd_like_roundtrips(self):
        from repro.corpus.generator import make_dtd_like
        import random

        oracle = DifferentialOracle()
        for seed in range(5):
            bxsd = make_dtd_like(random.Random(seed), width=4)
            dfa = ksuffix_bxsd_to_dfa_based(bxsd)
            disagreements = oracle.check_roundtrips(dfa)
            assert not disagreements, (seed, disagreements)

    def test_roundtrips_skipped_when_disabled(self):
        oracle = DifferentialOracle(roundtrips=False)
        result = run_sweep(
            SweepConfig(seed=0, cases=5, roundtrips=False), oracle=oracle
        )
        assert result.clean


class TestSweepControls:
    def test_max_failures_stops_early(self):
        oracle = DifferentialOracle(arrows={"dfa_to_bxsd": drop_last_rule})
        result = run_sweep(
            SweepConfig(seed=0, cases=100, max_failures=2, shrink=False),
            oracle=oracle,
        )
        assert result.stopped_early is not None
        assert len(result.failures) >= 2
        assert result.cases_run < 100

    def test_budget_stops_sweep_with_partial_results(self):
        from repro.observability import ResourceBudget

        with ResourceBudget(max_seconds=1e-9):
            result = run_sweep(SweepConfig(seed=0, cases=50))
        assert result.stopped_early is not None
        assert result.cases_run < 50

    def test_metrics_counters_advance(self):
        from repro.observability import default_registry

        registry = default_registry()
        before = registry.counter("conformance.cases").value
        run_sweep(SweepConfig(seed=0, cases=4))
        assert registry.counter("conformance.cases").value - before == 4
