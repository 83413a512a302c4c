"""Unit tests for tracing spans: tree structure, export, pool propagation."""

import json
import threading

import pytest

from repro.observability import (
    NULL_SPAN,
    TailSampler,
    Tracer,
    current_span,
    current_tracer,
    installed_tracer,
    resolve_tracer,
    span,
)


class TestSpan:
    def test_nesting_builds_a_tree(self):
        with Tracer() as tracer:
            with span("outer") as outer:
                with span("inner") as inner:
                    pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id == outer.span_id
        assert inner.span_id > outer.span_id
        assert tracer.open_spans() == 0

    def test_siblings_share_the_parent(self):
        with Tracer():
            with span("parent") as parent:
                with span("a") as first:
                    pass
                with span("b") as second:
                    pass
        assert first.parent_id == parent.span_id
        assert second.parent_id == parent.span_id
        assert first.span_id != second.span_id

    def test_timing_is_monotonic_nanoseconds(self):
        with Tracer():
            with span("timed") as timed:
                pass
        assert timed.end_ns is not None
        assert timed.end_ns >= timed.start_ns
        assert timed.duration_ns >= 0

    def test_attributes_and_status(self):
        with Tracer():
            with span("work", states=3) as work:
                work.set_attribute("rules", 7)
        assert work.attributes == {"states": 3, "rules": 7}
        assert work.status == "ok"

    def test_exception_marks_error_status(self):
        with Tracer() as tracer:
            with pytest.raises(ValueError):
                with span("failing") as failing:
                    raise ValueError("boom")
        assert failing.status == "error"
        assert failing.attributes["error"] == "ValueError: boom"
        assert failing.end_ns is not None
        assert tracer.open_spans() == 0

    def test_exit_restores_previous_ambient_span(self):
        with Tracer():
            with span("outer") as outer:
                with span("inner"):
                    pass
                assert current_span() is outer
            assert current_span() is None

    def test_to_dict_is_json_serializable(self):
        with Tracer():
            with span("exported", answer=42) as exported:
                pass
        record = json.loads(json.dumps(exported.to_dict()))
        assert record["name"] == "exported"
        assert record["attributes"] == {"answer": 42}
        assert record["duration_ns"] == record["end_ns"] - record["start_ns"]


class TestDisabled:
    def test_span_without_tracer_is_the_shared_null_span(self):
        assert span("anything") is NULL_SPAN
        assert span("something-else") is NULL_SPAN

    def test_null_span_is_a_no_op_context_manager(self):
        with span("disabled") as disabled:
            disabled.set_attribute("ignored", 1)
            disabled.set_status("error")
            disabled.end()
        assert disabled is NULL_SPAN

    def test_installed_tracer_none_disables_inside_a_tracer(self):
        with Tracer():
            assert span("enabled") is not NULL_SPAN
            with installed_tracer(None):
                assert span("disabled") is NULL_SPAN
            assert span("enabled-again") is not NULL_SPAN


class TestTracer:
    def test_ambient_installation_is_scoped(self):
        assert current_tracer() is None
        with Tracer() as tracer:
            assert current_tracer() is tracer
            assert resolve_tracer() is tracer
        assert current_tracer() is None

    def test_ring_buffer_bounds_retained_spans(self):
        with Tracer(maxlen=3) as tracer:
            for index in range(10):
                with span(f"s{index}"):
                    pass
        retained = tracer.finished_spans()
        assert len(retained) == 3
        assert [s.name for s in retained] == ["s7", "s8", "s9"]

    def test_summary_outlives_the_ring(self):
        with Tracer(maxlen=2) as tracer:
            for __ in range(50):
                with span("repeated"):
                    pass
        summary = tracer.summary()
        assert summary["repeated"]["count"] == 50
        assert summary["repeated"]["total_ns"] >= 0
        assert summary["repeated"]["mean_ns"] == (
            summary["repeated"]["total_ns"] / 50
        )

    def test_sink_sees_every_span_despite_the_ring(self):
        seen = []
        with Tracer(maxlen=1, sink=lambda s: seen.append(s.name)):
            for index in range(5):
                with span(f"s{index}"):
                    pass
        assert seen == [f"s{index}" for index in range(5)]

    def test_jsonl_round_trip(self):
        with Tracer() as tracer:
            with span("root"):
                with span("child"):
                    pass
        records = [
            json.loads(line)
            for line in tracer.to_jsonl().splitlines()
        ]
        # Children finish before parents, so the child is written first.
        assert [record["name"] for record in records] == ["child", "root"]
        by_name = {record["name"]: record for record in records}
        assert (
            by_name["child"]["parent_id"] == by_name["root"]["span_id"]
        )

    def test_write_jsonl_to_path(self, tmp_path):
        with Tracer() as tracer:
            with span("persisted"):
                pass
        target = tmp_path / "trace.jsonl"
        tracer.write_jsonl(target)
        assert json.loads(target.read_text())["name"] == "persisted"

    def test_concurrent_span_ids_are_unique(self):
        tracer = Tracer()

        def work():
            with installed_tracer(tracer):
                for __ in range(500):
                    with span("w"):
                        pass

        threads = [threading.Thread(target=work) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = [s.span_id for s in tracer.finished_spans()]
        assert len(ids) == len(set(ids)) == 2000
        assert tracer.open_spans() == 0

    def test_maxlen_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(maxlen=0)


class TestEngineSpans:
    def test_validate_records_one_span_per_document(self):
        from repro.engine import compile_xsd, StreamingValidator
        from repro.paperdata import FIGURE1_XML, figure3_xsd

        validator = StreamingValidator(compile_xsd(figure3_xsd()))
        with Tracer() as tracer:
            validator.validate(FIGURE1_XML)
            validator.validate(FIGURE1_XML)
        summary = tracer.summary()
        assert summary["engine.validate"]["count"] == 2

    def test_fallback_records_one_ok_span_per_document(self):
        # A dense attempt that falls back is one document: one span
        # (path "fallback", status ok), not an error span plus a rerun.
        from repro.engine import compile_xsd, StreamingValidator
        from repro.observability import default_registry
        from repro.paperdata import FIGURE1_XML, figure3_xsd

        text = FIGURE1_XML.replace("<content>", "<content><bogus/>", 1)
        validator = StreamingValidator(compile_xsd(figure3_xsd()))
        registry = default_registry()
        names = ("engine.stream.docs", "engine.stream.violations",
                 "engine.dense.docs", "engine.dense.fallbacks")
        doc_ns = registry.histogram("engine.stream.doc_ns")
        before = [registry.counter(name).value for name in names]
        observed = doc_ns.count
        sampler = TailSampler(reservoir=0)
        with Tracer(sink=sampler) as tracer:
            report = validator.validate(text)
        assert not report.valid
        validates = [span for span in tracer.finished_spans()
                     if span.name == "engine.validate"]
        assert len(validates) == 1
        assert validates[0].status == "ok"
        assert validates[0].attributes["path"] == "fallback"
        assert validates[0].attributes["violations"] == 1
        assert "error" not in validates[0].attributes
        assert tracer.summary()["engine.validate"]["count"] == 1
        assert sampler.retained() == []
        deltas = [registry.counter(name).value - value
                  for name, value in zip(names, before)]
        assert deltas == [1, 1, 0, 1]
        assert doc_ns.count == observed + 1

    def test_translation_square_records_stage_spans(self):
        from repro.paperdata import figure3_xsd
        from repro.translation import bxsd_to_xsd, xsd_to_bxsd

        with Tracer() as tracer:
            bxsd = xsd_to_bxsd(figure3_xsd())
            bxsd_to_xsd(bxsd)
        names = set(tracer.summary())
        assert {
            "translation.xsd_to_bxsd",
            "translation.algorithm1",
            "translation.algorithm2",
            "translation.bxsd_to_xsd",
            "translation.algorithm3",
            "translation.algorithm4",
        } <= names
        # The per-arrow spans are children of the pipeline spans.
        parents = {
            s.name: s.parent_id for s in tracer.finished_spans()
        }
        pipeline_ids = {
            s.name: s.span_id
            for s in tracer.finished_spans()
            if s.name.startswith("translation.xsd_to")
            or s.name.startswith("translation.bxsd_to")
        }
        assert parents["translation.algorithm1"] == (
            pipeline_ids["translation.xsd_to_bxsd"]
        )
        assert parents["translation.algorithm4"] == (
            pipeline_ids["translation.bxsd_to_xsd"]
        )

    def test_algorithm_spans_carry_size_attributes(self):
        from repro.paperdata import figure3_xsd
        from repro.translation import xsd_to_bxsd

        with Tracer() as tracer:
            xsd_to_bxsd(figure3_xsd())
        by_name = {s.name: s for s in tracer.finished_spans()}
        assert by_name["translation.algorithm1"].attributes["states"] > 0
        assert by_name["translation.algorithm2"].attributes["rules"] > 0
        assert by_name["translation.algorithm2"].attributes["regex_size"] > 0


class TestPoolPropagation:
    def test_spans_survive_validate_many_pool_workers(self):
        from repro.engine import validate_many
        from repro.paperdata import FIGURE1_XML, figure3_xsd

        with Tracer() as tracer:
            reports = validate_many(
                figure3_xsd(), [FIGURE1_XML] * 6, workers=3
            )
        assert all(report.valid for report in reports)
        spans = tracer.finished_spans()
        batch = [s for s in spans if s.name == "engine.batch"]
        docs = [s for s in spans if s.name == "engine.batch.doc"]
        validates = [s for s in spans if s.name == "engine.validate"]
        assert len(batch) == 1
        assert len(docs) == 6
        assert len(validates) == 6
        # Worker-side spans joined the caller's trace tree.
        assert all(d.parent_id == batch[0].span_id for d in docs)
        assert all(d.trace_id == batch[0].trace_id for d in docs)
        doc_ids = {d.span_id for d in docs}
        assert all(v.parent_id in doc_ids for v in validates)
        assert tracer.open_spans() == 0

    def test_isolated_batch_marks_errored_doc_spans(self):
        from repro.engine import validate_many
        from repro.paperdata import FIGURE1_XML, figure3_xsd

        with Tracer() as tracer:
            outcomes = validate_many(
                figure3_xsd(),
                [FIGURE1_XML, "<not-xml", FIGURE1_XML],
                policy="isolate",
                workers=2,
            )
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        docs = sorted(
            (s for s in tracer.finished_spans()
             if s.name == "engine.batch.doc"),
            key=lambda s: s.attributes["index"],
        )
        assert [d.status for d in docs] == ["ok", "error", "ok"]
        assert docs[1].attributes["error_kind"] == "parse"

    def test_untraced_batch_records_nothing(self):
        from repro.engine import validate_many
        from repro.paperdata import FIGURE1_XML, figure3_xsd

        reports = validate_many(figure3_xsd(), [FIGURE1_XML] * 2, workers=2)
        assert all(report.valid for report in reports)
        assert current_tracer() is None
