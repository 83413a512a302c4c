"""Fault-isolated batch validation: policies, deadlines, retry, metrics."""

import pytest

from repro.engine import compile_xsd, validate_many
from repro.errors import DeadlineExceeded, InjectedFault, ParseError
from repro.observability import default_registry
from repro.paperdata import FIGURE1_XML, figure3_xsd
from repro.resilience import (
    FailurePolicy,
    FaultInjector,
    ParserLimits,
    RetryPolicy,
)

MALFORMED = "<document><content></document>"
DEEP = "<document>" * 5000 + "</document>" * 5000
INVALID = "<document><bogus/></document>"


@pytest.fixture
def xsd():
    return figure3_xsd()


@pytest.fixture(params=["streaming", "tree"])
def engine(request):
    return request.param


def counter(name):
    return default_registry().counter(name).value


class TestIsolatePolicy:
    def test_every_input_yields_an_outcome_in_order(self, xsd, engine):
        sources = [FIGURE1_XML, MALFORMED, DEEP, INVALID, FIGURE1_XML]
        outcomes = validate_many(xsd, sources, engine=engine,
                                 policy="isolate")
        assert [outcome.index for outcome in outcomes] == [0, 1, 2, 3, 4]
        assert outcomes[0].valid and outcomes[4].valid
        assert outcomes[1].error.kind == "parse"
        assert outcomes[2].error.kind == "limit"
        assert "nesting depth limit" in outcomes[2].error.message
        assert outcomes[3].ok and not outcomes[3].valid

    def test_isolation_under_workers(self, xsd):
        sources = [FIGURE1_XML, MALFORMED] * 8
        outcomes = validate_many(xsd, sources, policy="isolate", workers=4)
        assert len(outcomes) == 16
        assert [o.index for o in outcomes] == list(range(16))
        assert all(outcomes[i].valid for i in range(0, 16, 2))
        assert all(outcomes[i].error.kind == "parse"
                   for i in range(1, 16, 2))

    def test_outcomes_carry_elapsed_time(self, xsd):
        outcomes = validate_many(xsd, [FIGURE1_XML, MALFORMED],
                                 policy="isolate")
        assert all(outcome.elapsed_seconds >= 0 for outcome in outcomes)

    def test_failure_metrics_are_published(self, xsd):
        before_failed = counter("engine.batch.failed_docs")
        before_isolated = counter("engine.batch.isolated_errors")
        validate_many(xsd, [MALFORMED, DEEP, FIGURE1_XML], policy="isolate")
        assert counter("engine.batch.failed_docs") == before_failed + 2
        assert counter("engine.batch.isolated_errors") == before_isolated + 2


class TestRaisePolicy:
    def test_default_policy_keeps_the_legacy_contract(self, xsd):
        reports = validate_many(xsd, [FIGURE1_XML, INVALID])
        assert reports[0].valid and not reports[1].valid
        with pytest.raises(ParseError):
            validate_many(xsd, [FIGURE1_XML, MALFORMED])

    def test_unknown_policy_rejected(self, xsd):
        with pytest.raises(ValueError):
            validate_many(xsd, [FIGURE1_XML], policy="shrug")


class TestFailFastPolicy:
    def test_stops_at_first_error_and_marks_the_rest_skipped(self, xsd):
        sources = [FIGURE1_XML, INVALID, MALFORMED, FIGURE1_XML, DEEP]
        outcomes = validate_many(xsd, sources, policy="fail_fast")
        kinds = [o.error.kind if o.error else "ok" for o in outcomes]
        # INVALID is a *result*, not an error: fail_fast passes it.
        assert kinds == ["ok", "ok", "parse", "skipped", "skipped"]

    def test_clean_batch_has_no_skips(self, xsd):
        outcomes = validate_many(xsd, [FIGURE1_XML] * 3, policy="fail_fast")
        assert all(outcome.valid for outcome in outcomes)


class TestCallableSourcesAndRetry:
    def test_transient_source_failures_retry_with_backoff(self, xsd):
        sleeps = []
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise OSError("connection reset")
            return FIGURE1_XML

        retry = RetryPolicy(max_attempts=3, backoff=0.05,
                            sleep=sleeps.append)
        before = counter("engine.batch.retries")
        outcomes = validate_many(xsd, [flaky], policy="isolate", retry=retry)
        assert outcomes[0].valid and outcomes[0].attempts == 3
        assert sleeps == pytest.approx([0.05, 0.1])
        assert counter("engine.batch.retries") == before + 2

    def test_exhausted_retries_isolate_as_io_error(self, xsd):
        def dead():
            raise OSError("host unreachable")

        retry = RetryPolicy(max_attempts=2, sleep=lambda _: None)
        before = counter("engine.batch.retry_exhausted")
        outcomes = validate_many(xsd, [dead, FIGURE1_XML], policy="isolate",
                                 retry=retry)
        assert outcomes[0].error.kind == "io"
        assert outcomes[1].valid
        assert counter("engine.batch.retry_exhausted") == before + 1

    def test_exhausted_retries_raise_under_raise_policy(self, xsd):
        def dead():
            raise OSError("host unreachable")

        with pytest.raises(OSError):
            validate_many(xsd, [dead],
                          retry=RetryPolicy(max_attempts=2,
                                            sleep=lambda _: None))

    def test_callable_returning_tree_is_accepted(self, xsd):
        from repro.xmlmodel import parse_document

        outcomes = validate_many(
            xsd, [lambda: parse_document(FIGURE1_XML)], policy="isolate"
        )
        assert outcomes[0].valid


class TestDeadline:
    def test_slow_document_fails_with_deadline_error(self, xsd):
        # A crawling event stream stands in for a pathological document.
        def crawling_events():
            import itertools
            import time

            def events():
                yield ("start", "document", {})
                for __ in itertools.islice(itertools.count(), 10_000):
                    time.sleep(0.0005)
                    yield ("start", "content", {})
                    yield ("end", "content")
                yield ("end", "document")

            return events()

        before = counter("engine.batch.deadline_exceeded")
        outcomes = validate_many(xsd, [crawling_events(), FIGURE1_XML],
                                 policy="isolate", deadline=0.05)
        assert outcomes[0].error.kind == "deadline"
        assert outcomes[1].valid
        assert counter("engine.batch.deadline_exceeded") == before + 1

    def test_deadline_raises_under_raise_policy(self, xsd):
        import time

        def slow_events():
            yield ("start", "document", {})
            for __ in range(200):
                time.sleep(0.002)
                yield ("start", "content", {})
                yield ("end", "content")
            yield ("end", "document")

        with pytest.raises(DeadlineExceeded):
            validate_many(xsd, [slow_events()], deadline=0.02)

    def test_fast_batch_unaffected_by_deadline(self, xsd, engine):
        outcomes = validate_many(xsd, [FIGURE1_XML] * 3, engine=engine,
                                 policy="isolate", deadline=30.0)
        assert all(outcome.valid for outcome in outcomes)

    def test_deadline_validation(self, xsd):
        with pytest.raises(ValueError):
            validate_many(xsd, [FIGURE1_XML], deadline=0)

    def test_slow_fetch_counts_against_deadline(self, xsd):
        # Regression: the clock used to start *after* fetch(), so a
        # hung source could stall a worker forever with a deadline set.
        import time

        def slow_source():
            time.sleep(0.08)
            return FIGURE1_XML

        outcomes = validate_many(xsd, [slow_source, FIGURE1_XML],
                                 policy="isolate", deadline=0.02)
        assert outcomes[0].error.kind == "deadline"
        assert outcomes[1].valid

    def test_retry_backoff_stops_at_the_deadline(self, xsd):
        # A flaky source whose retry budget far outlives the deadline:
        # the backoff checks must cut the attempt loop short.
        attempts = []

        def flaky_source():
            attempts.append(1)
            raise OSError("transient")

        retry = RetryPolicy(max_attempts=50, backoff=0.02, multiplier=1.0)
        outcomes = validate_many(xsd, [flaky_source], policy="isolate",
                                 deadline=0.05, retry=retry)
        assert outcomes[0].error.kind == "deadline"
        assert len(attempts) < 50

    def test_exhausted_fetch_past_deadline_reports_deadline(self, xsd):
        # Retries exhausted *and* the deadline blown: the deadline is
        # the root cause the caller can act on, not the last IO error.
        import time

        def failing_source():
            time.sleep(0.03)
            raise OSError("still down")

        retry = RetryPolicy(max_attempts=2, backoff=0.001)
        outcomes = validate_many(xsd, [failing_source], policy="isolate",
                                 deadline=0.04, retry=retry)
        assert outcomes[0].error.kind == "deadline"

    def test_slow_fetch_raises_deadline_under_raise_policy(self, xsd):
        import time

        def slow_source():
            time.sleep(0.08)
            return FIGURE1_XML

        with pytest.raises(DeadlineExceeded):
            validate_many(xsd, [slow_source], deadline=0.02)


class TestFaultInjection:
    def test_injected_faults_are_contained_per_document(self, xsd):
        injector = FaultInjector(seed=99, rates={"parse": 0.4})
        with injector:
            outcomes = validate_many(xsd, [FIGURE1_XML] * 20,
                                     policy="isolate")
        injected = [o for o in outcomes if o.error is not None]
        assert len(outcomes) == 20
        assert len(injected) == injector.injected("parse") > 0
        assert all(o.error.kind == "injected" for o in injected)
        # The documents the injector spared validated normally.
        assert all(o.valid for o in outcomes if o.ok)

    def test_ambient_injector_reaches_worker_threads(self, xsd):
        injector = FaultInjector(seed=7, rates={"validate": 1.0})
        with injector:
            outcomes = validate_many(xsd, [FIGURE1_XML] * 8,
                                     policy="isolate", workers=4)
        assert all(o.error is not None and o.error.kind == "injected"
                   for o in outcomes)

    def test_explicit_injector_wins_over_ambient(self, xsd):
        ambient = FaultInjector(seed=1, rates={"parse": 1.0})
        explicit = FaultInjector(seed=2, rates={})
        with ambient:
            outcomes = validate_many(xsd, [FIGURE1_XML] * 3,
                                     policy="isolate", injector=explicit)
        assert all(outcome.valid for outcome in outcomes)
        assert ambient.injected() == 0

    def test_compile_site_fires_on_uncached_compilation(self, xsd):
        injector = FaultInjector(seed=3, rates={"compile": 1.0})
        with injector:
            with pytest.raises(InjectedFault):
                compile_xsd(xsd)

    def test_injected_faults_raise_under_raise_policy(self, xsd):
        injector = FaultInjector(seed=5, rates={"validate": 1.0})
        with injector:
            with pytest.raises(InjectedFault):
                validate_many(xsd, [FIGURE1_XML])

    # Every policy enters one per-document context: the explicit
    # injector fires under "raise", and an ambient one reaches its pool
    # workers (regression: "raise" never installed the injector).
    def test_explicit_injector_fires_under_every_policy(self, xsd):
        raising = FaultInjector(seed=1, rates={"parse": 1.0})
        with pytest.raises(InjectedFault):
            validate_many(xsd, [FIGURE1_XML] * 3, injector=raising)
        assert raising.injected("parse") == 1
        isolating = FaultInjector(seed=1, rates={"parse": 1.0})
        outcomes = validate_many(xsd, [FIGURE1_XML] * 3, policy="isolate",
                                 injector=isolating)
        assert [o.error.kind for o in outcomes] == ["injected"] * 3
        assert isolating.injected("parse") == 3

    @pytest.mark.parametrize("workers", [None, 2])
    def test_ambient_injector_fires_under_raise_policy(self, xsd, workers):
        with FaultInjector(seed=1, rates={"validate": 1.0}) as injector:
            with pytest.raises(InjectedFault):
                validate_many(xsd, [FIGURE1_XML] * 4, workers=workers)
            outcomes = validate_many(xsd, [FIGURE1_XML] * 4,
                                     policy="isolate", workers=workers)
        assert all(o.error.kind == "injected" for o in outcomes)
        assert injector.injected("validate") >= 5


class TestLimitsThreading:
    def test_explicit_limits_apply_to_batch_parsing(self, xsd, engine):
        limits = ParserLimits(max_depth=2)
        nested = "<document><content><title>t</title></content></document>"
        outcomes = validate_many(xsd, [nested], engine=engine,
                                 policy="isolate", limits=limits)
        assert outcomes[0].error.kind == "limit"

    def test_ambient_limits_reach_worker_threads(self, xsd):
        nested = "<document><content><title>t</title></content></document>"
        with ParserLimits(max_depth=2):
            outcomes = validate_many(xsd, [nested] * 4, policy="isolate",
                                     workers=4)
        assert all(o.error is not None and o.error.kind == "limit"
                   for o in outcomes)
