"""Invalid documents rerun on the byte tier's tree, not the char tier's.

When the dense scan of ``StreamingValidator.validate`` (or
``validate_bytes``) falls back, the validation walk reruns over the tree
:func:`repro.xmlmodel.tokenizer.fold_tree` folds from the document's
bytes.  Only a root exit (an undeclared root, a root outside the schema
alphabet, a second root) and what the fold refuses rerun over the char
tier's events.  Either way the report or error, and
``engine.stream.elements``, are those of
``validate_events(iter_events(text))``; ``engine.fold.reruns`` and the
``engine.validate`` span's ``rerun`` attribute (``fold`` or ``char``)
tell the route, and ``path`` stays ``fallback``.  On every route
``engine.stream.elements`` counts the elements the reference validator
types.
"""

import random

import pytest

from repro.conformance import load_corpus, schema_from_json
from repro.conformance.generate import mutate_document
from repro.engine import StreamingValidator, compile_xsd, streaming
from repro.errors import BudgetExceeded, ParseError
from repro.observability import ResourceBudget, Tracer, default_registry
from repro.resilience import FaultInjector
from repro.translation import dfa_based_to_xsd
from repro.xmlmodel import parse_document, tokenizer
from repro.xmlmodel import write_document
from repro.xmlmodel.parser import _CHECK_EVENTS, iter_events
from repro.xsd import validate_xsd
from repro.xsd.dfa_based import DFABasedXSD
from tests.test_engine_differential import _setup
from tests.test_engine_batch_route import CORPUS_DIR, HEAD, SECTION, TAIL

#: ``engine.dense.fallbacks``, ``engine.fold.reruns``,
#: ``engine.stream.docs`` and ``engine.stream.elements``, in that order.
COUNTERS = ("engine.dense.fallbacks", "engine.fold.reruns",
            "engine.stream.docs", "engine.stream.elements")


def _counts():
    registry = default_registry()
    return [registry.counter(name).value for name in COUNTERS]


def _outcome(thunk):
    """The report (violations and typing, in order), or the error."""
    try:
        report = thunk()
    except ParseError as error:
        return ("error", type(error).__name__, str(error), error.line,
                error.column)
    return ("report", report.valid, list(report.violations),
            list(report.typing.items()))


def _route(thunk):
    """``(outcome, counter deltas, the engine.validate span's
    attributes)`` of one validation."""
    before = _counts()
    with Tracer() as tracer:
        outcome = _outcome(thunk)
    spans = [span for span in tracer.finished_spans()
             if span.name == "engine.validate"]
    attributes = spans[0].attributes if len(spans) == 1 else None
    return (outcome, [after - was for after, was in zip(_counts(), before)],
            attributes)


def _char_route(validator, text):
    return _route(lambda: validator.validate_events(iter_events(text)))


def _text_routes(validator, text):
    """``validate(text)`` and ``validate_bytes`` of the UTF-8 bytes."""
    data = text.encode("utf-8")
    return (_route(lambda: validator.validate(text)),
            _route(lambda: validator.validate_bytes(data)))


def assert_folds(validator, text):
    """Both text entry points rerun on the fold, with the char route's
    report and element count; returns that report's outcome."""
    char, char_deltas, char_span = _char_route(validator, text)
    assert char[0] == "report" and not char[1], char
    for outcome, deltas, attributes in _text_routes(validator, text):
        assert outcome == char, f"the fold rerun diverges on {text!r}"
        assert deltas == [1, 1, 1, char_deltas[3]], text
        assert attributes["path"] == "fallback"
        assert attributes["rerun"] == "fold"
        assert attributes["elements"] == char_span["elements"]
        assert attributes["violations"] == len(char[2])
    return char


def assert_reruns_on_char(validator, text, data=None):
    """``validate_bytes`` (of ``data``, else of the text's UTF-8 bytes)
    and, for a text, ``validate(text)`` fall back without folding and
    give the char route's report or error."""
    routes = [_route(lambda: validator.validate_bytes(
        text.encode("utf-8", "surrogatepass") if data is None else data))]
    if text is not None:
        routes.append(_route(lambda: validator.validate(text)))
        char, char_deltas, __ = _char_route(validator, text)
    else:
        char, char_deltas, __ = _route(
            lambda: validator.validate_events(streaming.as_events(data)))
    for outcome, deltas, attributes in routes:
        assert outcome == char, f"the char rerun diverges on {text!r}"
        assert deltas[:2] == [1, 0]
        assert deltas[2:] == char_deltas[2:]
        assert attributes["path"] == "fallback"
        assert attributes["rerun"] == "char"
    return char


class TestReports:
    """Well-formed invalid documents fold, with the char route's report."""

    def test_committed_corpus_documents_fold(self):
        folded = 0
        for case in load_corpus(CORPUS_DIR):
            if case.case_type != "pinned" or case.document is None:
                continue
            schema = schema_from_json(case.schema)
            if isinstance(schema, DFABasedXSD):
                schema = dfa_based_to_xsd(schema)
            validator = StreamingValidator(compile_xsd(schema))
            if not validator.validate(case.document).valid:
                assert_folds(validator, case.document)
                folded += 1
        assert folded >= 4

    @pytest.mark.parametrize("key", ["figure3", "sections", "inventory",
                                     "all24"])
    def test_mutated_documents_fold_unless_the_root_changes(self, key):
        # Each mutant is one mutate_document step on a generated valid
        # document (perfbench's invalid class is one such step on one
        # record of a batch); a relabelled root is a root exit.
        __, compiled, generator, names, attr_names = _setup(key)
        validator = StreamingValidator(compiled)
        rng = random.Random(f"fold-rerun:{key}")
        folded = 0
        for __ in range(40):
            document = generator.generate(rng, max_depth=4, max_children=5)
            mutant = mutate_document(document, rng, names, attr_names)
            text = write_document(mutant)
            if validator.validate(text).valid:
                continue
            if mutant.root.name in compiled.start:
                assert_folds(validator, text)
                folded += 1
            else:
                assert_reruns_on_char(validator, text)
        assert folded >= 10

    @pytest.mark.parametrize("mutant", [
        "<item><tag/><note/></item>",      # a child not allowed
        "<item><tag>x</tag></item>",       # text in element-only content
        "<item bogus='x'/>",               # an undeclared attribute
        "<note/><note/>",                  # a content mismatch
    ])
    def test_an_invalid_record_in_a_batch_folds(self, mutant):
        # The shape of perfbench's invalid class: many valid records
        # and one violation among them.
        __, compiled, *___ = _setup("inventory")
        record = "<item><tag/><tag/></item><note>text</note>"
        text = ("<inv owner='o'>" + record * 500 + mutant + record * 500
                + "</inv>")
        outcome = assert_folds(StreamingValidator(compiled), text)
        assert len(outcome[2]) == 1


#: The inventory schema's document with every kind of markup the byte
#: tier certifies: a comment, a PI and CDATA sections split text runs
#: (the empty CDATA section yields no text), references sit in text and
#: in an attribute value, and whitespace, a PI and a comment follow the
#: root.  ``{prolog}`` is its DOCTYPE, and ``{stray}`` markup added to
#: ``<inv>``'s content.
DECORATED = (
    '<?xml version="1.0"?>\n{prolog}\n'
    '<inv owner="a&amp;b">&#32;<item><tag/><!-- c --><tag/></item>'
    '<note>caf\u00e9 &lt;<!-- c -->&#x41;<![CDATA[]]>'
    '<![CDATA[d]]>e<?p?></note><item/>{stray}</inv>\n<?pi after?>\n'
    '<!-- c -->\n'
)
SYSTEM = '<!DOCTYPE inv SYSTEM "inv.dtd">'
#: An internal subset: the scan and the fold both refuse it.
SUBSET = "<!DOCTYPE inv [<!ELEMENT inv ANY>]>"
#: Text in element-only content and a child not allowed under
#: ``<inv>``, whose subtree goes untyped.
STRAY = "x<![CDATA[y]]><!-- c -->z<zzz><item><tag/></item></zzz>"


class TestElementCounts:
    """``engine.stream.elements`` and the ``engine.validate`` span's
    ``elements`` equal the size of the reference validator's typing on
    every route."""

    @staticmethod
    def _counted(thunk):
        """``(counter delta, span's elements, route)`` of one
        validation; the route is the span's ``rerun`` attribute, else
        its ``path`` (``None`` on the event route)."""
        counter = default_registry().counter("engine.stream.elements")
        before = counter.value
        with Tracer() as tracer:
            thunk()
        [trace] = [span for span in tracer.finished_spans()
                   if span.name == "engine.validate"]
        attributes = trace.attributes
        return (counter.value - before, attributes["elements"],
                attributes.get("rerun", attributes.get("path")))

    def assert_counted(self, key, text, route):
        """Each route counts what ``validate_xsd`` types in ``text``:
        ``validate(text)`` and ``validate_bytes`` take ``route``
        (``dense``, ``fold`` or ``char``), then the event route and
        ``validate(document)``.  Returns the count."""
        xsd, compiled, *___ = _setup(key)
        validator = StreamingValidator(compiled)
        expected = len(validate_xsd(xsd, parse_document(text)).typing)
        data = text.encode("utf-8")
        counts = [
            self._counted(lambda: validator.validate(text)),
            self._counted(lambda: validator.validate_bytes(data)),
        ]
        assert [count[2] for count in counts] == [route, route], text
        counts += [
            self._counted(
                lambda: validator.validate_events(iter_events(text))),
            self._counted(
                lambda: validator.validate(parse_document(text))),
        ]
        assert counts[2][2] is None and counts[3][2] is None
        for delta, elements, __ in counts:
            assert delta == elements == expected, text
        return expected

    @pytest.mark.parametrize("prolog, stray, route", [
        (SYSTEM, "", "dense"),
        (SYSTEM, STRAY, "fold"),
        (SUBSET, "", "char"),
        (SUBSET, STRAY, "char"),
    ], ids=["dense", "fold", "char-valid", "char-invalid"])
    def test_the_decorated_document(self, prolog, stray, route):
        text = DECORATED.format(prolog=prolog, stray=stray)
        # inv, two items, two tags and a note; zzz and its subtree are
        # not typed.
        assert self.assert_counted("inventory", text, route) == 6

    def test_an_undeclared_root_counts_none(self):
        assert self.assert_counted(
            "inventory", "<item><tag/><tag/></item>", "char") == 0

    def test_an_event_streams_second_root_is_not_counted(self):
        xsd, compiled, *___ = _setup("inventory")
        first = DECORATED.format(prolog=SYSTEM, stray="")
        events = (list(iter_events(first))
                  + list(iter_events("<inv owner='o'><item/></inv>")))
        delta, elements, __ = self._counted(
            lambda: StreamingValidator(compiled).validate_events(events))
        expected = len(validate_xsd(xsd, parse_document(first)).typing)
        assert delta == elements == expected == 6

    @pytest.mark.parametrize("key", ["figure3", "sections", "inventory",
                                     "all24"])
    def test_seeded_invalid_documents(self, key):
        __, compiled, generator, names, attr_names = _setup(key)
        validator = StreamingValidator(compiled)
        rng = random.Random(f"element-counts:{key}")
        routes = set()
        for __ in range(20):
            document = generator.generate(rng, max_depth=4, max_children=5)
            mutant = mutate_document(document, rng, names, attr_names)
            text = write_document(mutant)
            if validator.validate(text).valid:
                route = "dense"
            elif mutant.root.name in compiled.start:
                route = "fold"
            else:
                route = "char"
            routes.add(route)
            self.assert_counted(key, text, route)
        assert "fold" in routes


class TestRootExits:
    """A root exit goes straight to the char tier, which answers it after
    one event (or raises on a second root)."""

    @pytest.mark.parametrize("text", [
        "<section title='t'><section title='u'/></section>",  # undeclared
        "<zzz><doc/></zzz>",                   # outside the alphabet
        "<doc><template/><content/></doc><doc/>",  # a second root
        "<doc><template/><content/></doc><zzz/>",  # ... outside it
    ])
    def test_root_exits_rerun_on_the_char_tier(self, text):
        __, compiled, *___ = _setup("sections")
        assert_reruns_on_char(StreamingValidator(compiled), text)

    def test_undeclared_root_is_reported_and_second_root_raises(self):
        __, compiled, *___ = _setup("sections")
        validator = StreamingValidator(compiled)
        report = validator.validate("<zzz>" + "<doc/>" * 1000 + "</zzz>")
        assert not report.valid and "zzz" in report.violations[0]
        with pytest.raises(ParseError, match="content after the root"):
            validator.validate("<doc><template/><content/></doc><doc/>")


class TestFoldRefused:
    """What the fold refuses reruns on the char tier, which speaks."""

    def test_invalid_early_and_malformed_late(self):
        __, compiled, *___ = _setup("sections")
        outcome = assert_reruns_on_char(
            StreamingValidator(compiled),
            "<doc><template/><content><bogus/>"
            "<section title='t'></content></doc>")
        assert outcome[0] == "error" and "mismatched" in outcome[2]

    def test_undecodable_bytes(self):
        __, compiled, *___ = _setup("sections")
        outcome = assert_reruns_on_char(
            StreamingValidator(compiled), None,
            b"<doc><template/><content><bogus/>\xff</content></doc>")
        assert outcome[0] == "error" and "not valid UTF-8" in outcome[2]

    def test_lone_surrogate_in_text(self):
        __, compiled, *___ = _setup("sections")
        text = "<doc><template/><content><bogus/>\ud800</content></doc>"
        validator = StreamingValidator(compiled)
        outcome, deltas, attributes = _route(lambda: validator.validate(text))
        char, char_deltas, __ = _char_route(validator, text)
        assert outcome == char and outcome[0] == "report"
        assert deltas[:2] == [1, 0] and deltas[2:] == char_deltas[2:]
        assert attributes["rerun"] == "char"

    def test_internal_subset(self):
        __, compiled, *___ = _setup("sections")
        outcome = assert_reruns_on_char(
            StreamingValidator(compiled),
            "<!DOCTYPE doc [<!ENTITY e 'v'>]>"
            "<doc><template/><content><bogus/></content></doc>")
        assert outcome[0] == "report" and not outcome[1]


class TestBudget:
    """The fold checks an ambient budget's clock once per block of
    chunks, as the scan does."""

    @pytest.fixture
    def figure3(self):
        """Figure 3, compiled before the budget starts: a test requests
        it ahead of ``expired``, so a cold compile never meets the
        budget (pytest sets up fixtures in the order they are listed)."""
        return _setup("figure3")[1]

    @pytest.fixture
    def expired(self):
        with ResourceBudget(max_seconds=1e-6) as budget:
            while budget.elapsed_seconds() <= budget.max_seconds:
                pass
            yield budget

    @staticmethod
    def _long_early_invalid():
        # The scan falls back at <bogus/>, long before its first block
        # ends; the fold's second block starts past chunk 4096.
        return HEAD + "<bogus/>" + SECTION * (
            streaming._CHECK_CHUNKS // 3 + 1) + TAIL

    def test_the_fold_trips_after_one_block(self, figure3, expired):
        compiled = figure3
        before = _counts()
        with pytest.raises(BudgetExceeded, match="xmlmodel.fold_tree"):
            StreamingValidator(compiled).validate(self._long_early_invalid())
        deltas = [after - was for after, was in zip(_counts(), before)]
        assert deltas[:3] == [1, 0, 0]

    def test_parse_document_trips_too(self, expired):
        with pytest.raises(BudgetExceeded, match="xmlmodel.fold_tree"):
            parse_document(self._long_early_invalid())

    def test_parse_documents_char_tier_trips_too(self, expired):
        # The fold refuses an internal subset, so the char tier builds
        # the tree, reading the clock once per block of events.
        body = "".join(f"<record id='{i}'>v{i}</record>"
                       for i in range(20_000))
        fallbacks = default_registry().counter("xmlmodel.parse.fallbacks")
        before = fallbacks.value
        with pytest.raises(BudgetExceeded, match="xmlmodel.parse_document"):
            parse_document("<!DOCTYPE batch [<!ELEMENT batch ANY>]><batch>"
                           + body + "</batch>")
        assert fallbacks.value == before + 1

    def test_short_refused_documents_parse_under_an_expired_budget(
            self, expired):
        # One block of events: the clock is never read.
        text = ("<!DOCTYPE batch [<!ELEMENT batch ANY>]><batch>"
                + "<r/>" * (_CHECK_EVENTS // 2 - 2) + "</batch>")
        assert len(parse_document(text).root.children) == (
            _CHECK_EVENTS // 2 - 2)

    def test_short_documents_fold_under_an_expired_budget(self, figure3,
                                                          expired):
        # One block: the clock is never read.
        compiled = figure3
        root = parse_document(HEAD + SECTION * 3 + TAIL).root
        assert root.name == "document"
        report = StreamingValidator(compiled).validate(
            HEAD + "<bogus/>" + TAIL)
        assert not report.valid


class TestSharedInstances:
    def test_no_route_leaves_frames_on_a_shared_fallback(self):
        # Each raise would chain its frames, and with them the document,
        # onto the shared instance's traceback.
        __, compiled, *___ = _setup("sections")
        validator = StreamingValidator(compiled)
        body = "<section title='t'>text</section>" * 20_000
        for text in (
                "<doc><template/><content><bogus/>" + body
                + "</content></doc>",                  # fold
                "<doc><template/><content>" + body
                + "<bogus/></content></doc>",          # fold, late exit
                "<section title='t'>" + body + "</section>",  # root exit
                "<doc><template/><content>" + body
                + "</content></doc><doc/>",            # second root
                "<doc><template/><content><bogus/>" + body
                + "</content></q>"):                   # fold refused
            _outcome(lambda: validator.validate(text))
            for instance in (streaming._FALLBACK, streaming._ROOT_FALLBACK,
                             tokenizer._FALLBACK):
                assert instance.__traceback__ is None
                assert instance.__context__ is None


class TestProbes:
    @pytest.mark.parametrize("text", [
        "<doc><template/><content><bogus/></content></doc>",   # fold
        "<zzz/>",                                              # root exit
        "<doc><template/><content><bogus/></q>",               # refused
    ])
    def test_each_probe_fires_once_per_document(self, text):
        __, compiled, *___ = _setup("sections")
        validator = StreamingValidator(compiled)
        for validate, source in ((validator.validate, text),
                                 (validator.validate_bytes,
                                  text.encode("utf-8"))):
            with FaultInjector() as injector:
                _outcome(lambda: validate(source))
            assert injector.checks("parse") == 1
            assert injector.checks("validate") == 1
