"""Unit tests for the observability layer: metrics registry + budgets."""

import json
import threading

import pytest

from repro.errors import BudgetExceeded, TranslationError
from repro.families.theorem9 import theorem9_bxsd
from repro.observability import (
    MetricsRegistry,
    ResourceBudget,
    current_budget,
    default_registry,
    resolve_registry,
)
from repro.translation.pipeline import bxsd_to_xsd


class TestRegistry:
    def test_counter_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("test.hits")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for __ in range(10_000)]
            )
            for __ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000

    def test_histogram_concurrent_observes_are_exact(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("test.latency")
        threads = [
            threading.Thread(
                target=lambda: [histogram.observe(3) for __ in range(5_000)]
            )
            for __ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 20_000
        assert snapshot["total"] == 60_000
        assert snapshot["min"] == snapshot["max"] == 3
        assert snapshot["mean"] == 3

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_histogram_snapshot_is_consistent_under_concurrency(self):
        # The documented guarantee: every field of one snapshot comes
        # from one instant, so the internal invariants hold exactly even
        # while observe() races.
        histogram = MetricsRegistry().histogram("test.racy")
        stop = threading.Event()

        def hammer():
            value = 1
            while not stop.is_set():
                histogram.observe(value)
                value = value % 1000 + 1

        threads = [threading.Thread(target=hammer) for __ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for __ in range(200):
                snapshot = histogram.snapshot()
                assert (
                    sum(snapshot["buckets"].values()) == snapshot["count"]
                )
                if snapshot["count"]:
                    assert snapshot["mean"] == (
                        snapshot["total"] / snapshot["count"]
                    )
                    assert snapshot["min"] <= snapshot["mean"]
                    assert snapshot["mean"] <= snapshot["max"]
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_registry_snapshot_is_one_point_in_time_cut(self):
        # Two counters incremented back-to-back by each worker may never
        # drift by more than the one in-flight increment in any snapshot:
        # the registry holds every instrument lock while reading.
        registry = MetricsRegistry()
        first = registry.counter("test.pair.a")
        second = registry.counter("test.pair.b")
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                first.inc()
                second.inc()

        worker = threading.Thread(target=hammer)
        worker.start()
        try:
            for __ in range(500):
                counters = registry.snapshot()["counters"]
                a, b = counters["test.pair.a"], counters["test.pair.b"]
                assert b <= a <= b + 1, f"torn snapshot: a={a} b={b}"
        finally:
            stop.set()
            worker.join()

    def test_concurrent_registry_snapshots_do_not_deadlock(self):
        registry = MetricsRegistry()
        for index in range(20):
            registry.counter(f"test.many.{index}").inc()
        done = []

        def snap():
            for __ in range(100):
                registry.snapshot()
            done.append(True)

        threads = [threading.Thread(target=snap) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(done) == 4

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("pool")
        gauge.set(5)
        gauge.add(-2)
        assert gauge.value == 3

    def test_histogram_buckets_are_powers_of_two(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (1, 2, 3, 4, 1000):
            histogram.observe(value)
        buckets = histogram.snapshot()["buckets"]
        assert buckets["<=2^0"] == 1  # 1
        assert buckets["<=2^1"] == 1  # 2
        assert buckets["<=2^2"] == 2  # 3, 4
        assert buckets["<=2^10"] == 1  # 1000

    def test_histogram_snapshot_of_no_observation(self):
        assert MetricsRegistry().histogram("h").snapshot() == {
            "count": 0, "total": 0, "min": None, "max": None, "mean": 0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "buckets": {},
        }

    def test_histogram_snapshot_of_float_observations(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (0.25, 3.5, 1_200_000.0):
            histogram.observe(value)
        assert histogram.snapshot() == {
            "count": 3, "total": 1_200_003.75, "min": 0.25,
            "max": 1_200_000.0, "mean": 400_001.25, "p50": 3.0,
            "p95": 1_177_286.4, "p99": 1_195_457.28,
            "buckets": {"<=2^1": 1, "<=2^2": 1, "<=2^21": 1},
        }

    def test_histogram_snapshot_of_zero_observations(self):
        histogram = MetricsRegistry().histogram("h")
        for __ in range(3):
            histogram.observe(0)
        assert histogram.snapshot() == {
            "count": 3, "total": 0, "min": 0, "max": 0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "buckets": {"<=2^0": 3},
        }

    def test_histogram_first_observation_seeds_min_and_max(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (5, 0, 1, 2**20, 7, -3):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert (snapshot["min"], snapshot["max"], snapshot["total"]) == (
            -3, 2**20, 1_048_586)
        assert snapshot["buckets"] == {"<=2^0": 3, "<=2^3": 2, "<=2^20": 1}
        assert histogram.percentile(0.5) == 1.0

    def test_timer_records_nanoseconds(self):
        registry = MetricsRegistry()
        with registry.timer("t.ns"):
            pass
        snapshot = registry.histogram("t.ns").snapshot()
        assert snapshot["count"] == 1
        assert snapshot["min"] > 0  # perf_counter_ns always advances

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.gauge("g").set(2)
        registry.histogram("h").observe(10)
        parsed = json.loads(registry.to_json())
        assert parsed["counters"]["c"] == 7
        assert parsed["gauges"]["g"] == 2
        assert parsed["histograms"]["h"]["count"] == 1

    def test_default_registry_is_resolved_fallback(self):
        assert resolve_registry(None) is default_registry()
        private = MetricsRegistry()
        assert resolve_registry(private) is private


class TestResourceBudget:
    def test_state_budget_trips(self):
        budget = ResourceBudget(max_states=3)
        budget.charge_states(3, where="test")
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_states(1, where="test")
        assert info.value.stats["states_created"] == 4
        assert info.value.stats["limit"] == "max_states"
        assert info.value.stats["where"] == "test"

    def test_budget_exceeded_is_a_translation_error(self):
        assert issubclass(BudgetExceeded, TranslationError)

    def test_deadline_trips(self):
        budget = ResourceBudget(max_seconds=1e-9)
        import time

        time.sleep(0.002)
        with pytest.raises(BudgetExceeded) as info:
            budget.check_time(where="test")
        assert info.value.stats["limit"] == "max_seconds"

    def test_regex_budget_trips(self):
        budget = ResourceBudget(max_regex_size=10)
        budget.charge_regex(10)
        with pytest.raises(BudgetExceeded):
            budget.charge_regex(11)

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            ResourceBudget(max_states=0)
        with pytest.raises(ValueError):
            ResourceBudget(max_seconds=-1)

    def test_ambient_installation(self):
        assert current_budget() is None
        budget = ResourceBudget(max_states=5)
        with budget:
            assert current_budget() is budget
            with ResourceBudget(max_states=1) as inner:
                assert current_budget() is inner
            assert current_budget() is budget
        assert current_budget() is None

    def test_entry_restarts_accounting(self):
        budget = ResourceBudget(max_states=5)
        budget.charge_states(4)
        with budget:
            assert budget.states_created == 0


class TestBudgetedTranslations:
    def test_theorem9_trips_state_budget_promptly(self):
        # B_8's product has >= 2^8 states; a 64-state cap must refuse it
        # long before completion, with partial progress attached.
        with ResourceBudget(max_states=64):
            with pytest.raises(BudgetExceeded) as info:
                bxsd_to_xsd(theorem9_bxsd(8))
        assert info.value.stats["states_created"] == 65
        assert info.value.stats["where"] == "translation.algorithm3"

    def test_theorem9_ambient_budget_also_trips(self):
        with ResourceBudget(max_states=64):
            with pytest.raises(BudgetExceeded):
                bxsd_to_xsd(theorem9_bxsd(8))

    def test_unlimited_budget_translates_small_instance(self):
        with ResourceBudget():
            xsd = bxsd_to_xsd(theorem9_bxsd(2))
        assert len(xsd.types) > 0

    def test_generous_budget_translates_small_instance(self):
        with ResourceBudget(max_states=100_000):
            xsd = bxsd_to_xsd(theorem9_bxsd(2))
        assert len(xsd.types) > 0

    def test_state_elimination_regex_budget(self):
        from repro.automata.state_elimination import dfa_to_regex
        from repro.families.ehrenfeucht_zeiger import theorem8_xsd

        dfa_based = theorem8_xsd(4)  # already DFA-based
        ancestor = dfa_based.ancestor_dfa()
        state = next(iter(s for s in dfa_based.states
                          if s != dfa_based.initial))
        with ResourceBudget(max_regex_size=2):
            with pytest.raises(BudgetExceeded):
                dfa_to_regex(ancestor, accepting={state})


class TestInstrumentation:
    def test_streaming_publishes_doc_and_event_metrics(self):
        from repro.engine import compile_xsd, StreamingValidator
        from repro.paperdata import FIGURE1_XML, figure3_xsd

        registry = default_registry()
        docs_before = registry.counter("engine.stream.docs").value
        elements_before = registry.counter("engine.stream.elements").value
        report = StreamingValidator(compile_xsd(figure3_xsd())).validate(
            FIGURE1_XML
        )
        assert report.valid
        assert registry.counter("engine.stream.docs").value == docs_before + 1
        assert registry.counter("engine.stream.elements").value == (
            elements_before + len(report.typing)
        )
        assert registry.histogram("engine.stream.doc_ns").count > 0

    def test_cache_publishes_hit_miss_metrics(self):
        from repro.engine import SchemaCache
        from repro.paperdata import figure3_xsd

        registry = default_registry()
        hits_before = registry.counter("engine.cache.hits").value
        misses_before = registry.counter("engine.cache.misses").value
        cache = SchemaCache(maxsize=2)
        cache.get(figure3_xsd())
        cache.get(figure3_xsd())
        assert cache.hits == 1 and cache.misses == 1
        assert registry.counter("engine.cache.hits").value == hits_before + 1
        assert (
            registry.counter("engine.cache.misses").value == misses_before + 1
        )
        assert cache.compile_ns["count"] == 1

    def test_cache_counts_evictions(self):
        from repro.engine import SchemaCache
        from repro.regex.ast import star, sym
        from repro.xsd.content import ContentModel
        from repro.xsd.model import XSD
        from repro.xsd.typednames import TypedName

        def tiny(root):
            return XSD(
                ename={root},
                types={"T"},
                rho={"T": ContentModel(star(sym(TypedName(root, "T"))))},
                start={TypedName(root, "T")},
            )

        cache = SchemaCache(maxsize=1)
        cache.get(tiny("a"))
        cache.get(tiny("b"))
        cache.get(tiny("c"))
        assert cache.evictions == 2

    def test_translation_counters_advance(self):
        registry = default_registry()
        before = registry.counter("translation.algorithm3.states").value
        bxsd_to_xsd(theorem9_bxsd(2))
        assert (
            registry.counter("translation.algorithm3.states").value > before
        )


class TestExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("engine.cache.hits").inc(3)
        registry.gauge("engine.cache.size").set(2)
        histogram = registry.histogram("engine.stream.doc_ns")
        histogram.observe(5)
        histogram.observe(900)
        return registry

    def test_prometheus_text_shape(self):
        from repro.observability import to_prometheus

        text = to_prometheus(self._registry())
        assert "# TYPE engine_cache_hits counter" in text
        assert "engine_cache_hits 3" in text
        assert "# TYPE engine_cache_size gauge" in text
        assert "engine_cache_size 2" in text
        assert "# TYPE engine_stream_doc_ns histogram" in text
        assert 'engine_stream_doc_ns_bucket{le="+Inf"} 2' in text
        assert "engine_stream_doc_ns_sum 905" in text
        assert "engine_stream_doc_ns_count 2" in text

    def test_prometheus_buckets_are_cumulative(self):
        from repro.observability import to_prometheus

        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (1, 2, 3, 1000):
            histogram.observe(value)
        lines = [
            line
            for line in to_prometheus(registry).splitlines()
            if line.startswith('h_bucket{')
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # +Inf sees everything

    def test_render_metrics_json_matches_snapshot(self):
        from repro.observability import render_metrics

        registry = self._registry()
        assert json.loads(render_metrics(registry, "json")) == (
            json.loads(registry.to_json())
        )
        with pytest.raises(ValueError):
            render_metrics(registry, "xml")


class TestLabeledSeries:
    def test_escape_label_value_order_and_coverage(self):
        from repro.observability import escape_label_value

        assert escape_label_value('plain') == 'plain'
        # Backslash first, or the other escapes would be re-escaped.
        assert escape_label_value('a\\b') == 'a\\\\b'
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value('two\nlines') == 'two\\nlines'
        assert escape_label_value('\\"\n') == '\\\\\\"\\n'

    def test_labeled_sorts_keys_and_sanitizes_names(self):
        from repro.observability import labeled

        assert labeled("serve.requests") == "serve.requests"
        assert labeled("serve.requests.by", tenant="t", code=200) == (
            'serve.requests.by{code="200",tenant="t"}'
        )
        # Two call sites labelling in different orders share one series.
        assert labeled("m", a="1", b="2") == labeled("m", b="2", a="1")
        assert labeled("m", **{"bad-name!": "v"}) == 'm{bad_name_="v"}'

    def test_prometheus_renders_labeled_series_under_one_type_line(self):
        from repro.observability import labeled, to_prometheus

        registry = MetricsRegistry()
        registry.counter(labeled("serve.requests.by", tenant="a",
                                 code="200")).inc(3)
        registry.counter(labeled("serve.requests.by", tenant="b",
                                 code="429")).inc()
        text = to_prometheus(registry)
        assert text.count("# TYPE serve_requests_by counter") == 1
        assert 'serve_requests_by{code="200",tenant="a"} 3' in text
        assert 'serve_requests_by{code="429",tenant="b"} 1' in text

    def test_hostile_label_values_cannot_forge_scrape_lines(self):
        from repro.observability import labeled, to_prometheus

        # A tenant id trying to smuggle a fake sample past the scraper.
        hostile = 'x"} 999\nforged_metric{t="y'
        registry = MetricsRegistry()
        registry.counter(labeled("serve.shed.by", tenant=hostile)).inc()
        text = to_prometheus(registry)
        # The newline is escaped, so no scrape line begins with the
        # forged metric name.
        assert not any(line.startswith("forged_metric")
                       for line in text.splitlines())
        line = next(l for l in text.splitlines()
                    if l.startswith("serve_shed_by"))
        assert line == (
            'serve_shed_by{tenant="x\\"} 999\\nforged_metric{t=\\"y"} 1'
        )

    def test_labeled_histogram_merges_le_into_the_label_block(self):
        from repro.observability import labeled, to_prometheus

        registry = MetricsRegistry()
        histogram = registry.histogram(labeled("rq_ns", tenant="a"))
        histogram.observe(3)
        histogram.observe(700)
        text = to_prometheus(registry)
        assert text.count("# TYPE rq_ns histogram") == 1
        assert 'rq_ns_bucket{tenant="a",le="+Inf"} 2' in text
        assert 'rq_ns_sum{tenant="a"} 703' in text
        assert 'rq_ns_count{tenant="a"} 2' in text
