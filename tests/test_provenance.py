"""Unit tests for validation provenance: records, divergence, coverage."""

import json
import pathlib
import random

import pytest

from repro.bonxai import compile_schema, lint_bxsd, parse_bonxai
from repro.engine import ValidatedDocument, compile_xsd
from repro.observability import (
    ElementProvenance,
    RuleCoverage,
    explain_document,
    first_divergence,
)
from repro.paperdata import (
    FIGURE1_XML,
    FIGURE5_BONXAI,
    figure1_document,
    figure2_dtd,
    figure3_xsd,
    figure5_schema,
)
from repro.xmlmodel import mutate_tree, parse_document

_PINNED = pathlib.Path(__file__).parent / "data" / "explain_pinned.json"


def _figure3_records(text):
    """``(provenance records, report)`` of ``text`` against Figure 3."""
    handle = ValidatedDocument(
        parse_document(text), compile_xsd(figure3_xsd())
    )
    return handle.provenance(), handle.report()


class TestFirstDivergence:
    def _dfa(self, regex_text, alphabet):
        from repro.engine.compiler import compile_regex
        from repro.regex.parser import parse_regex

        return compile_regex(parse_regex(regex_text), alphabet=alphabet)

    def test_accepted_word_has_no_divergence(self):
        dfa = self._dfa("a b*", {"a", "b"})
        assert first_divergence(dfa, ["a", "b", "b"]) is None

    def test_wrong_child_is_pinpointed(self):
        dfa = self._dfa("a b", {"a", "b"})
        reason = first_divergence(dfa, ["a", "a"])
        assert "child #2 <a> diverges after [a]" in reason
        assert "expected <b>" in reason

    def test_foreign_symbol_diverges(self):
        dfa = self._dfa("a", {"a"})
        reason = first_divergence(dfa, ["z"])
        assert "child #1 <z>" in reason
        assert "(start)" in reason

    def test_truncated_content_reports_expected_continuation(self):
        dfa = self._dfa("a b", {"a", "b"})
        reason = first_divergence(dfa, ["a"])
        assert "content ends too early after [a]" in reason
        assert "<b>" in reason

    def test_empty_word_against_nonnullable_model(self):
        dfa = self._dfa("a", {"a"})
        reason = first_divergence(dfa, [])
        assert "content ends too early after [(no children)]" in reason

    def test_divergence_is_the_earliest_dead_position(self):
        # After the bad child nothing can recover, however long the tail.
        dfa = self._dfa("a b c", {"a", "b", "c"})
        reason = first_divergence(dfa, ["a", "c", "b", "c", "b"])
        assert "child #2 <c>" in reason


class TestRecorder:
    def test_recorder_captures_every_validated_element(self):
        elements, report = _figure3_records(FIGURE1_XML)
        assert report.valid
        assert len(elements) == len(report.typing)
        assert all(e.verdict == "ok" for e in elements)
        # Typed paths agree with the report's typing keys and types, in
        # document order.
        assert [e.typed_path for e in elements] == list(report.typing)
        for entry in elements:
            assert report.typing[entry.typed_path] == entry.type_name

    def test_dfa_state_path_tracks_children(self):
        elements, __ = _figure3_records(FIGURE1_XML)
        for entry in elements:
            assert entry.dfa_states[0] == 0
            # One state per consumed (declared) child, plus the start.
            assert len(entry.dfa_states) >= 1

    def test_content_model_mismatch_yields_divergence_reason(self):
        elements, report = _figure3_records(
            "<document><content/><userstyles/></document>"
        )
        assert not report.valid
        root = elements[0]
        assert root.verdict == "invalid"
        assert "diverges" in root.reason or "too early" in root.reason

    def test_undeclared_child_marks_the_parent(self):
        elements, report = _figure3_records("<document><mystery/></document>")
        assert not report.valid
        root = elements[0]
        assert root.verdict == "invalid"
        assert "<mystery> is not allowed" in root.reason
        # The undeclared subtree itself produced no entry.
        assert [entry.name for entry in elements] == ["document"]

    def test_first_reason_wins(self):
        entry = ElementProvenance("/a", "/a[1]", "a", "T")
        entry.mark_invalid("first")
        entry.mark_invalid("second")
        assert entry.reason == "first"
        assert entry.verdict == "invalid"

    def test_to_dict_shape(self):
        elements, __ = _figure3_records(FIGURE1_XML)
        record = elements[0].to_dict()
        assert set(record) == {
            "path", "typed_path", "name", "type", "dfa_states",
            "rule_index", "verdict", "reason",
        }


class TestRuleCoverage:
    def test_counts_and_never_fired(self):
        coverage = RuleCoverage(3)
        coverage.record(0)
        coverage.record(0)
        coverage.record(2)
        coverage.record(None)
        assert coverage.fired == [2, 0, 1]
        assert coverage.unmatched_nodes == 1
        assert coverage.nodes() == 4
        assert coverage.never_fired() == [1]

    def test_add_report_folds_match_results(self):
        schema = compile_schema(parse_bonxai(FIGURE5_BONXAI))
        match = schema.bxsd.match(parse_document(FIGURE1_XML))
        coverage = RuleCoverage(len(schema.bxsd.rules))
        coverage.add_report(match)
        assert coverage.documents == 1
        assert coverage.nodes() == len(match.rule_of)
        # Figure 1 exercises every Figure 5 rule.
        assert coverage.never_fired() == []

    def test_rejects_negative_rule_count(self):
        with pytest.raises(ValueError):
            RuleCoverage(-1)


class TestLintCoverage:
    def _bxsd(self):
        return compile_schema(parse_bonxai(FIGURE5_BONXAI)).bxsd

    def test_dead_rules_get_one_warning_each(self):
        bxsd = self._bxsd()
        coverage = RuleCoverage(len(bxsd.rules))
        coverage.add_report(
            bxsd.match(parse_document("<document><content/></document>"))
        )
        dead = coverage.never_fired()
        assert dead  # the tiny document cannot exercise every rule
        diagnostics = lint_bxsd(bxsd, coverage=coverage)
        flagged = [
            d for d in diagnostics if "dynamically dead" in d.message
        ]
        assert [d.rule_index for d in flagged] == dead
        assert all(d.level == "warning" for d in flagged)

    def test_full_coverage_adds_no_warnings(self):
        bxsd = self._bxsd()
        coverage = RuleCoverage(len(bxsd.rules))
        coverage.add_report(bxsd.match(parse_document(FIGURE1_XML)))
        diagnostics = lint_bxsd(bxsd, coverage=coverage)
        assert not any("dynamically dead" in d.message for d in diagnostics)

    def test_mismatched_coverage_is_rejected(self):
        with pytest.raises(ValueError):
            lint_bxsd(self._bxsd(), coverage=RuleCoverage(1))


class TestExplainDocument:
    def test_bonxai_explanation_names_winning_rules(self):
        schema = compile_schema(parse_bonxai(FIGURE5_BONXAI))
        explanation = explain_document(
            "bonxai", schema, parse_document(FIGURE1_XML)
        )
        assert explanation.valid
        assert explanation.elements
        match = schema.bxsd.match(parse_document(FIGURE1_XML))
        # Every element got the rule the tree-side priority match chose.
        indices = [entry.rule_index for entry in explanation.elements]
        assert all(index is not None for index in indices)
        assert sorted(set(indices)) == sorted(set(match.rule_of.values()))
        assert explanation.coverage.never_fired() == []
        assert len(explanation.rules) == len(schema.bxsd.rules)

    def test_invalid_document_explains_divergence(self):
        schema = compile_schema(parse_bonxai(FIGURE5_BONXAI))
        document = parse_document(
            "<document><template><section><style><font/><color/><color/>"
            "</style></section></template></document>"
        )
        explanation = explain_document("bonxai", schema, document)
        assert not explanation.valid
        invalid = [
            entry for entry in explanation.elements
            if entry.verdict == "invalid"
        ]
        assert invalid
        reasons = " | ".join(entry.reason for entry in invalid)
        assert "diverges" in reasons or "too early" in reasons

    def test_xsd_explanation_has_no_rules(self):
        explanation = explain_document(
            "xsd", figure3_xsd(), parse_document(FIGURE1_XML)
        )
        assert explanation.valid
        assert explanation.coverage is None
        assert explanation.rules is None
        assert all(
            entry.rule_index is None for entry in explanation.elements
        )


def _pinned_explanations():
    """``explain_document`` over Figure 1 and twelve seeded
    ``mutate_tree`` mutants (relabelled with Figure 1's own names),
    against Figures 2, 3 and 5: each explanation's entries and its
    violation multiset."""
    figure1 = figure1_document()
    labels = sorted({node.name for node in figure1.root.iter()})
    documents = [("figure1", figure1)] + [
        (f"mutant{seed}", mutate_tree(figure1, random.Random(seed), labels))
        for seed in range(12)
    ]
    schemas = [
        ("dtd", figure2_dtd()),
        ("xsd", figure3_xsd()),
        ("bonxai", compile_schema(figure5_schema())),
    ]
    explained = {}
    for kind, schema in schemas:
        for name, document in documents:
            explanation = explain_document(kind, schema, document)
            explained[f"{kind}/{name}"] = {
                "violations": sorted(explanation.violations),
                "elements": [
                    entry.to_dict() for entry in explanation.elements
                ],
            }
    return explained


def test_explanations_match_the_pinned_file():
    # Pinned before explanations moved from the streaming recorder to
    # ValidatedDocument's memo: entries (reasons, state paths and rule
    # indices included) and violation multisets must not change.
    pinned = json.loads(_PINNED.read_text())
    assert _pinned_explanations() == pinned
