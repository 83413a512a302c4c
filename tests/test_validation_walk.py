"""One tree walk: every route validates through ValidatedDocument's walk.

A fallback rerun walks the byte tier's tree of the document, and an
event stream (the char tier's rerun, a document or element passed in)
is folded into a tree of the validator's own and walked.  So every route
lists its violations in the tree validator's order, validating a
document is not opening one (``engine.incremental.*`` stays put), and
the event-stream contract's edges hold: an undeclared root stops the
stream at its start event.
"""

import gc
import random
import tracemalloc

import pytest

from repro.conformance import load_corpus, schema_from_json
from repro.conformance.generate import mutate_document
from repro.engine import StreamingValidator, ValidatedDocument, compile_xsd
from repro.errors import BudgetExceeded, ParseError
from repro.observability import ResourceBudget, Tracer, default_registry
from repro.paperdata import FIGURE1_XML, figure3_xsd
from repro.translation import dfa_based_to_xsd
from repro.xmlmodel import parse_document, write_document
from repro.xmlmodel.parser import iter_events
from repro.xmlmodel.tree import XMLElement
from repro.xsd.dfa_based import DFABasedXSD
from repro.xsd.validator import validate_xsd
from tests.test_engine_batch_route import CORPUS_DIR, HEAD, SECTION, TAIL
from tests.test_engine_differential import SCHEMAS, _setup

#: The Figure 3 document whose orders differed: a violation on
#: ``/document`` (its content and an attribute) above one on a section.
NESTED_VIOLATIONS = (
    '<document bogus="1"><template/><content><section title="t">x<zzz/>'
    "</section></content></document>"
)

INCREMENTAL = ("documents", "nodes_typed", "content_replays", "memo_hits")


def _routes(validator, text):
    """Each route's report for ``text``, by name."""
    document = parse_document(text)
    return {
        "validate(text)": validator.validate(text),
        "validate_bytes": validator.validate_bytes(text.encode("utf-8")),
        "events(iter_events)": validator.validate_events(iter_events(text)),
        "events(document.events())": validator.validate_events(
            document.events()),
        "validate(document)": validator.validate(document),
    }


def _assert_one_order(xsd, validator, text):
    expected = validate_xsd(xsd, parse_document(text))
    for route, report in _routes(validator, text).items():
        assert report.violations == expected.violations, (route, text)
        assert list(report.typing.items()) == list(
            expected.typing.items()), (route, text)
    return expected


class TestOneViolationOrder:
    """Every route lists the tree validator's violations in its order:
    typed elements pre-order, each one's own before its children's."""

    def test_nested_violations(self):
        xsd = figure3_xsd()
        expected = _assert_one_order(
            xsd, StreamingValidator(compile_xsd(xsd)), NESTED_VIOLATIONS)
        assert len(expected.violations) == 3
        assert expected.violations[0].startswith("/document: children")

    def test_corpus_documents(self):
        checked = 0
        for case in load_corpus(CORPUS_DIR):
            if case.document is None or case.schema is None:
                continue
            try:
                parse_document(case.document)
            except ParseError:
                continue
            schema = schema_from_json(case.schema)
            if isinstance(schema, DFABasedXSD):
                schema = dfa_based_to_xsd(schema)
            _assert_one_order(schema, StreamingValidator(compile_xsd(schema)),
                              case.document)
            checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("key", sorted(SCHEMAS))
    def test_seeded_invalid_documents(self, key):
        # Two or three mutations each, so that violations at several
        # depths meet in one document.
        xsd, compiled, generator, names, attr_names = _setup(key)
        validator = StreamingValidator(compiled)
        rng = random.Random(f"one-order:{key}")
        several = 0
        for __ in range(40):
            document = generator.generate(rng, max_depth=4, max_children=5)
            for __ in range(rng.randint(2, 3)):
                document = mutate_document(document, rng, names, attr_names)
            expected = _assert_one_order(xsd, validator,
                                         write_document(document))
            several += len(expected.violations) > 1
        assert several >= 5


class TestValidationIsNotAnOpen:
    @staticmethod
    def _incremental():
        registry = default_registry()
        return [registry.counter(f"engine.incremental.{name}").value
                for name in INCREMENTAL]

    @pytest.mark.parametrize("route", ["fold", "char", "events"])
    def test_routes_count_no_open(self, route):
        validator = StreamingValidator(compile_xsd(figure3_xsd()))
        text = NESTED_VIOLATIONS
        run = {
            "fold": lambda: validator.validate(text),
            # An internal subset: the fold refuses, the char tier reruns.
            "char": lambda: validator.validate(
                "<!DOCTYPE document [<!ELEMENT document ANY>]>" + text),
            "events": lambda: validator.validate(parse_document(text)),
        }[route]
        before = self._incremental()
        with Tracer() as tracer:
            assert not run().valid
        assert self._incremental() == before
        names = {span.name for span in tracer.finished_spans()}
        assert "engine.validate" in names
        assert "engine.incremental.build" not in names

    def test_an_open_still_counts(self):
        compiled = compile_xsd(figure3_xsd())
        before = self._incremental()
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        typed = len(handle)
        assert typed > 20
        documents, nodes_typed, replays, hits = self._incremental()
        assert (documents, nodes_typed, replays, hits) == (
            before[0] + 1, before[1] + typed, before[2] + typed, before[3])


class TestEventEdges:
    @pytest.fixture(scope="class")
    def validator(self):
        return StreamingValidator(compile_xsd(figure3_xsd()))

    def test_undeclared_root_stops_before_a_producer_error(self, validator):
        def events():
            yield ("start", "zzz", {})
            raise RuntimeError("never reached")

        report = validator.validate_events(events())
        assert report.violations == [
            validator.schema.undeclared_root("zzz")]

    def test_undeclared_root_stops_before_a_parse_error(self, validator):
        report = validator.validate("<zzz><a></zzz>")
        assert report.violations == [
            validator.schema.undeclared_root("zzz")]

    def test_second_root_comes_last(self, validator):
        events = list(parse_document(NESTED_VIOLATIONS).events())
        report = validator.validate_events(
            events + [("start", "zzz", {}), ("start", "x", {}),
                      ("end", "x"), ("end", "zzz")])
        assert report.violations[:-1] == validate_xsd(
            figure3_xsd(), parse_document(NESTED_VIOLATIONS)).violations
        assert report.violations[-1] == (
            "/zzz: document has more than one root element "
            "(<zzz> follows the closed root)")

    def test_a_tree_is_refolded_not_walked_in_place(self, validator):
        # Typing is built on its first read; a later edit of the
        # caller's tree must not reach it.
        document = parse_document(FIGURE1_XML)
        report = validator.validate(document)
        expected = validate_xsd(figure3_xsd(), parse_document(FIGURE1_XML))
        document.root.children[0].name = "renamed"
        assert list(report.typing.items()) == list(expected.typing.items())


class TestUnreadEventReports:
    """An unread event-route report keeps the validator's tree for its
    typing, and not the walk's memo: typing is read off the schema's
    columns, so the walk's handle goes when validation returns."""

    #: 4,204 elements; every tenth section holds an undeclared child.
    TEXT = HEAD + (
        SECTION * 9 + '<section title="s"><bold/><zzz/></section>'
    ) * 200 + TAIL

    @staticmethod
    def _retained(run):
        """The traced bytes that ``run()``'s result holds (after a
        warm-up run), and the result."""
        run()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return retained, result

    @pytest.mark.parametrize("route", ["iter_events", "validate(document)"])
    def test_report_keeps_the_tree_not_the_memo(self, route):
        xsd = figure3_xsd()
        validator = StreamingValidator(compile_xsd(xsd))
        document = parse_document(self.TEXT)
        events, run = {
            "iter_events": (
                lambda: iter_events(self.TEXT),
                lambda: validator.validate_events(iter_events(self.TEXT))),
            "validate(document)": (
                document.events, lambda: validator.validate(document)),
        }[route]
        tree, __ = self._retained(lambda: XMLElement.from_events(events()))
        retained, report = self._retained(run)
        # With the memo kept, 1.5x (iter_events) and 2.2x the tree.
        assert retained < 1.2 * tree
        expected = validate_xsd(xsd, document)
        assert report.violations == expected.violations
        assert len(report.violations) == 200
        assert list(report.typing.items()) == list(expected.typing.items())


class TestWalkClock:
    """The walk reads an ambient budget's clock once per 32 elements,
    opens included."""

    @pytest.fixture
    def figure3(self):
        return compile_xsd(figure3_xsd())

    @pytest.fixture
    def expired(self):
        with ResourceBudget(max_seconds=1e-6) as budget:
            while budget.elapsed_seconds() <= budget.max_seconds:
                pass
            yield budget

    def test_opens_trip(self, figure3, expired):
        tree = parse_document(HEAD + SECTION * 16 + TAIL)  # 36 elements
        with pytest.raises(BudgetExceeded, match="engine.validate"):
            ValidatedDocument(tree, figure3)

    def test_short_opens_never_read_it(self, figure3, expired):
        tree = parse_document(HEAD + SECTION * 13 + TAIL)  # 30 elements
        assert ValidatedDocument(tree, figure3).valid
