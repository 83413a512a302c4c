"""Integration tests for ``explain``, ``--trace``, and ``--metrics-format``."""

import json

import pytest

from repro.cli import main
from repro.families import all_group_xsd
from repro.paperdata import (
    FIGURE1_XML,
    FIGURE2_DTD,
    FIGURE3_XSD,
    FIGURE5_BONXAI,
)

INVALID_XML = (
    "<document><template><section><style><font/><color/><color/>"
    "</style></section></template></document>"
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in (
        ("fig1.xml", FIGURE1_XML),
        ("fig2.dtd", FIGURE2_DTD),
        ("fig3.xsd", FIGURE3_XSD),
        ("fig5.bonxai", FIGURE5_BONXAI),
        ("bad.xml", INVALID_XML),
    ):
        target = tmp_path / name
        target.write_text(content)
        paths[name] = str(target)
    return paths


class TestExplain:
    def test_conforming_document_exits_zero(self, files, capsys):
        code = main(
            ["explain", files["fig1.xml"], "--schema", files["fig5.bonxai"]]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CONFORMING" in out

    def test_names_the_winning_rule_index(self, files, capsys):
        main(["explain", files["fig1.xml"], "--schema", files["fig5.bonxai"]])
        out = capsys.readouterr().out
        # Per-element lines carry the winning rule under priority
        # semantics, and the fired rules are listed with their patterns.
        assert "rule=#" in out
        assert "rule #0:" in out
        assert "rule coverage:" in out

    def test_invalid_document_exits_one_with_divergence(self, files, capsys):
        code = main(
            ["explain", files["bad.xml"], "--schema", files["fig5.bonxai"]]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT CONFORMING" in out
        assert "why:" in out
        assert "diverges" in out or "too early" in out

    def test_works_against_plain_xsd(self, files, capsys):
        code = main(
            ["explain", files["fig1.xml"], "--schema", files["fig3.xsd"]]
        )
        out = capsys.readouterr().out
        assert code == 0
        # No rules for a plain XSD, but types are still assigned.
        assert "type=" in out
        assert "rule=#" not in out

    def test_works_against_dtd(self, files, capsys):
        code = main(
            ["explain", files["fig1.xml"], "--schema", files["fig2.dtd"]]
        )
        assert code == 0
        assert "rule=#" in capsys.readouterr().out

    def test_budget_refusal_exits_two(self, tmp_path, capsys):
        from repro.bonxai.decompile import bxsd_to_schema
        from repro.bonxai.printer import print_schema
        from repro.families.theorem9 import theorem9_bxsd

        hard = tmp_path / "theorem9.bonxai"
        hard.write_text(print_schema(bxsd_to_schema(theorem9_bxsd(8))))
        document = tmp_path / "doc.xml"
        document.write_text("<a0/>")
        code = main(
            ["explain", str(document), "--schema", str(hard),
             "--budget-states", "16"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_schema_flag(self, files):
        with pytest.raises(SystemExit):
            main(["explain", files["fig1.xml"]])


class TestExplainBags:
    """A 24-member ``xs:all`` (a bag; its DFA would have 2^24 states)
    explains in the DFA types' wording, from the seen-masks."""

    def _explain(self, tmp_path, capsys, children):
        schema = tmp_path / "all24.xsd"
        schema.write_text(all_group_xsd())
        document = tmp_path / "doc.xml"
        document.write_text(
            "<record>" + "".join(f"<{n}/>" for n in children) + "</record>"
        )
        code = main(["explain", str(document), "--schema", str(schema)])
        why = [line.strip() for line in capsys.readouterr().out.splitlines()
               if line.strip().startswith("why:")]
        return code, why

    def test_repeated_member_diverges_at_the_repeat(self, tmp_path,
                                                    capsys):
        required = [f"f{i:02d}" for i in range(0, 24, 3)]
        code, why = self._explain(
            tmp_path, capsys, ["f00", "f01"] + required[1:] + ["f00"]
        )
        assert code == 1
        # Every member but the once-members already seen; all required
        # ones are present, so the content could also end here.
        seen = {1} | set(range(0, 24, 3))
        expected = " or ".join(
            f"<f{i:02d}>" for i in range(24) if i not in seen
        )
        assert why == [
            f"why: child #10 <f00> diverges after "
            f"[f00 f01 {' '.join(required[1:])}]: expected {expected} "
            f"or end of content, got <f00>"
        ]

    def test_missing_members_end_too_early(self, tmp_path, capsys):
        code, why = self._explain(tmp_path, capsys, ["f02", "f01", "f02"])
        assert code == 1
        # f02 is unbounded, so only f01 is used up; f00, f03, ... missing.
        expected = " or ".join(f"<f{i:02d}>" for i in range(24) if i != 1)
        assert why == [
            f"why: content ends too early after [f02 f01 f02]: "
            f"expected {expected}"
        ]


class TestTraceFlag:
    SPAN_KEYS = {
        "name", "span_id", "trace_id", "parent_id", "start_ns", "end_ns",
        "duration_ns", "status", "attributes",
    }

    def _load(self, path):
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records
        for record in records:
            assert set(record) == self.SPAN_KEYS
            assert record["end_ns"] is not None
            assert record["duration_ns"] >= 0
        return records

    def test_convert_trace_has_algorithm_spans(self, files, tmp_path,
                                               capsys):
        trace = tmp_path / "convert.jsonl"
        code = main(
            ["convert", files["fig5.bonxai"],
             "-o", str(tmp_path / "out.xsd"), "--trace", str(trace)]
        )
        capsys.readouterr()
        assert code == 0
        records = self._load(trace)
        names = {record["name"] for record in records}
        assert "translation.algorithm3" in names
        assert "translation.algorithm4" in names
        by_name = {record["name"]: record for record in records}
        assert by_name["translation.algorithm3"]["attributes"]["states"] > 0
        assert by_name["translation.algorithm4"]["attributes"]["types"] > 0

    def test_trace_parent_ids_form_a_tree(self, files, tmp_path, capsys):
        trace = tmp_path / "validate.jsonl"
        code = main(
            ["validate", files["fig5.bonxai"], files["fig1.xml"],
             files["fig1.xml"], "--engine", "streaming",
             "--trace", str(trace)]
        )
        capsys.readouterr()
        assert code == 0
        records = self._load(trace)
        ids = {record["span_id"] for record in records}
        for record in records:
            parent = record["parent_id"]
            if parent is not None:
                assert parent in ids
                assert parent < record["span_id"]
        batch = [r for r in records if r["name"] == "engine.batch"]
        docs = [r for r in records if r["name"] == "engine.batch.doc"]
        assert len(batch) == 1 and len(docs) == 2
        assert all(d["parent_id"] == batch[0]["span_id"] for d in docs)

    def test_explain_accepts_trace(self, files, tmp_path, capsys):
        trace = tmp_path / "explain.jsonl"
        code = main(
            ["explain", files["fig1.xml"], "--schema", files["fig5.bonxai"],
             "--trace", str(trace)]
        )
        capsys.readouterr()
        assert code == 0
        names = {record["name"] for record in self._load(trace)}
        assert "engine.incremental.build" in names


class TestMetricsFormat:
    def test_prometheus_snapshot_on_stderr(self, files, capsys):
        code = main(
            ["validate", files["fig3.xsd"], files["fig1.xml"],
             "--engine", "streaming", "--metrics",
             "--metrics-format", "prometheus"]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "# TYPE engine_stream_docs counter" in err
        assert 'le="+Inf"' in err

    def test_json_remains_the_default(self, files, capsys):
        code = main(
            ["validate", files["fig3.xsd"], files["fig1.xml"], "--metrics"]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "counters" in json.loads(err)
