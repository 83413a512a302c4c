"""Regression tests: the streaming validator drains trailing events.

A malformed event stream carrying a second root element used to be
reported clean — the validator returned as soon as the first root's end
event popped the stack.  The tree pipeline can never produce such a
stream (the parser rejects a second root outright), so the streaming
engine must flag it rather than ignore it.
"""

import pytest

from repro.engine import StreamingValidator, compile_xsd
from repro.errors import ParseError
from repro.regex.ast import star, sym
from repro.xmlmodel import parse_document
from repro.xsd.content import ContentModel
from repro.xsd.model import XSD
from repro.xsd.typednames import TypedName


@pytest.fixture
def validator():
    xsd = XSD(
        ename={"r"},
        types={"T"},
        rho={"T": ContentModel(star(sym(TypedName("r", "T"))))},
        start={TypedName("r", "T")},
    )
    return StreamingValidator(compile_xsd(xsd))


class TestTrailingEvents:
    def test_second_root_is_a_violation(self, validator):
        events = [
            ("start", "r", {}),
            ("end", "r"),
            ("start", "r", {}),
            ("end", "r"),
        ]
        report = validator.validate_events(events)
        assert not report.valid
        assert len(report.violations) == 1
        assert "more than one root" in report.violations[0]

    def test_tree_parser_rejects_the_same_document(self):
        with pytest.raises(ParseError):
            parse_document("<r/><r/>")

    def test_second_root_subtree_is_skipped_whole(self, validator):
        # One violation for the stray root, none for its descendants.
        events = [
            ("start", "r", {}),
            ("end", "r"),
            ("start", "r", {}),
            ("start", "r", {}),
            ("end", "r"),
            ("end", "r"),
        ]
        report = validator.validate_events(events)
        assert len(report.violations) == 1

    def test_each_stray_root_is_reported(self, validator):
        events = [
            ("start", "r", {}),
            ("end", "r"),
            ("start", "r", {}),
            ("end", "r"),
            ("start", "r", {}),
            ("end", "r"),
        ]
        report = validator.validate_events(events)
        assert len(report.violations) == 2

    def test_single_root_still_valid(self, validator):
        events = [
            ("start", "r", {}),
            ("start", "r", {}),
            ("end", "r"),
            ("end", "r"),
        ]
        assert validator.validate_events(events).valid

    def test_trailing_whitespace_text_is_not_a_violation(self, validator):
        events = [("start", "r", {}), ("end", "r"), ("text", "\n  ")]
        assert validator.validate_events(events).valid

    def test_undeclared_stray_root_reports_stray_not_undeclared(
        self, validator
    ):
        # The stray element is rejected as a second root even when its
        # name is not a declared start element.
        events = [
            ("start", "r", {}),
            ("end", "r"),
            ("start", "zzz", {}),
            ("end", "zzz"),
        ]
        report = validator.validate_events(events)
        assert len(report.violations) == 1
        assert "more than one root" in report.violations[0]


class TestMalformedStreams:
    """A stream that does not spell one element is a parse error, not a
    verdict: the text spelling of each is rejected by the parser too."""

    @pytest.fixture
    def figure3(self):
        from repro.paperdata import figure3_xsd

        return StreamingValidator(compile_xsd(figure3_xsd()))

    def test_truncated_stream_is_a_parse_error(self, figure3):
        # "<document/>" reports a content-model violation; the stream
        # that never closes <document> must not read as valid instead.
        assert not figure3.validate("<document/>").valid
        with pytest.raises(ParseError, match="ends inside"):
            figure3.validate_events(iter([("start", "document", {})]))

    def test_truncated_inside_a_skipped_subtree(self, validator):
        with pytest.raises(ParseError, match="ends inside"):
            validator.validate_events(
                [("start", "r", {}), ("end", "r"), ("start", "r", {})]
            )

    def test_empty_stream_is_a_parse_error(self, figure3):
        with pytest.raises(ParseError, match="holds no element"):
            figure3.validate_events(iter([]))
        with pytest.raises(ParseError, match="holds no element"):
            figure3.validate_events([("text", "  ")])

    @pytest.mark.parametrize("events", [
        [("end", "r")],
        [("start", "r", {}), ("end", "r"), ("end", "r")],
    ])
    def test_stray_end_is_a_parse_error(self, validator, events):
        with pytest.raises(ParseError, match="closes no open element"):
            validator.validate_events(events)

    def test_producer_errors_propagate_unchanged(self, validator):
        def events():
            yield ("start", "r", {})
            yield ("end", "r")
            raise IndexError("inside the producer")

        with pytest.raises(IndexError, match="inside the producer"):
            validator.validate_events(events())
