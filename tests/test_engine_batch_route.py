"""One route from text to verdict: ``validate_many`` validates through
``StreamingValidator.validate``.

Text takes the dense scan and falls back to the compat loop exactly as a
direct ``validate(text)`` does; the batch's limits are installed per
document, and its deadline is a ``ResourceBudget`` whose clock both
loops check.  The deadline trips here do not depend on host speed: they
run under a budget that has already run out, or on a clock that advances
one second per reading.
"""

import pathlib

import pytest

from benchmarks.bench_e11_validation import build_corpus
from repro.conformance import load_corpus, schema_from_json
from repro.engine import StreamingValidator, compile_xsd, validate_many
from repro.engine.incremental import _CHECK_ELEMENTS
from repro.engine.streaming import _CHECK_CHUNKS
from repro.errors import BudgetExceeded, DeadlineExceeded, LimitExceeded
from repro.observability import ResourceBudget, default_registry
from repro.observability import budget as budget_module
from repro.paperdata import FIGURE1_XML, figure3_xsd
from repro.resilience import DocumentError, ParserLimits
from repro.translation import dfa_based_to_xsd
from repro.xmlmodel import write_document
from repro.xmlmodel.parser import iter_events
from repro.xsd.model import XSD

CORPUS_DIR = pathlib.Path(__file__).parent / "conformance_corpus"

HEAD = "<document><template/><userstyles/><content>"
TAIL = "</content></document>"
#: One ``section`` is three chunks (start tag, ``bold``, end tag) and
#: four events (start, empty ``bold``'s start and end, end).
SECTION = '<section title="s"><bold/></section>'


@pytest.fixture(scope="module")
def compiled():
    return compile_xsd(figure3_xsd())


def counter(name):
    return default_registry().counter(name).value


def dense_counts():
    return counter("engine.dense.docs"), counter("engine.dense.fallbacks")


def long_valid():
    """A valid document longer than one scan block."""
    return HEAD + SECTION * (_CHECK_CHUNKS // 3 + 1) + TAIL


def early_invalid():
    """An invalid document whose scan falls back at its fifth chunk,
    long before its first block ends, and whose rerun walks past its
    first stride of elements."""
    return HEAD + "<bogus/>" + SECTION * (_CHECK_ELEMENTS // 2 + 1) + TAIL


class _SteppedClock:
    """A monotonic clock that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


class TestLoopsCheckTheAmbientClock:
    @pytest.fixture
    def expired(self):
        with ResourceBudget(max_seconds=1e-6) as budget:
            while budget.elapsed_seconds() <= budget.max_seconds:
                pass
            yield budget

    def test_dense_scan_trips_after_one_block(self, compiled, expired):
        before = dense_counts()
        with pytest.raises(BudgetExceeded, match="engine.validate"):
            StreamingValidator(compiled).validate(long_valid())
        assert dense_counts() == before  # neither committed nor fell back

    def test_dense_scan_checks_per_block_not_per_chunk(self, compiled,
                                                       expired):
        docs, falls = dense_counts()
        short = HEAD + SECTION * 3 + TAIL
        assert StreamingValidator(compiled).validate(short).valid
        assert dense_counts() == (docs + 1, falls)

    def test_compat_rerun_trips_after_one_stride(self, compiled, expired):
        docs, falls = dense_counts()
        streamed = counter("engine.stream.docs")
        with pytest.raises(BudgetExceeded, match="engine.validate"):
            StreamingValidator(compiled).validate(early_invalid())
        assert dense_counts() == (docs, falls + 1)
        assert counter("engine.stream.docs") == streamed

    def test_event_streams_trip_too(self, compiled, expired):
        with pytest.raises(BudgetExceeded):
            StreamingValidator(compiled).validate_events(
                iter_events(long_valid())
            )

    @pytest.mark.parametrize("text, fallbacks", [
        (long_valid(), 0), (early_invalid(), 1),
    ], ids=["dense", "compat-rerun"])
    def test_batch_deadline_trips_inside_validation(self, compiled,
                                                    monkeypatch, text,
                                                    fallbacks):
        # Readings: the budget's creation and entry, then the check
        # before validation (1 s elapsed, within the 1.5 s deadline);
        # the first check inside a loop reads 2 s and trips.
        monkeypatch.setattr(budget_module, "time", _SteppedClock())
        docs, falls = dense_counts()
        streamed = counter("engine.stream.docs")
        tripped = counter("engine.batch.deadline_exceeded")
        outcome = validate_many(compiled, [text], policy="isolate",
                                deadline=1.5)[0]
        assert outcome.error.kind == "deadline"
        assert outcome.error.message.startswith(
            "per-document deadline exceeded ("
        )
        assert outcome.error.message.endswith(" > deadline=1.5s)")
        assert dense_counts() == (docs, falls + fallbacks)
        assert counter("engine.stream.docs") == streamed
        assert counter("engine.batch.deadline_exceeded") == tripped + 1
        with pytest.raises(DeadlineExceeded) as caught:
            validate_many(compiled, [text], deadline=1.5)
        assert caught.value.deadline_seconds == 1.5
        assert caught.value.elapsed_seconds > 1.5


def _over_limit_documents():
    """(limits, valid text, invalid text) per limit; each invalid text
    holds a violation ahead of its over-limit construct, so its scan
    falls back there and the compat loop must enforce the limit."""
    deep = ('<section title="a"><section title="b">'
            '<section title="c">x</section></section></section>')
    attributed = '<section title="a"><font name="f" size="2">t</font>' \
                 '</section>'
    long_text = '<section title="a">' + "x" * 100 + "</section>"
    for limits, body in (
        (ParserLimits(max_depth=4), deep),
        (ParserLimits(max_attributes=1), attributed),
        (ParserLimits(max_text_length=50), long_text),
    ):
        yield limits, HEAD + body + TAIL, HEAD + "<bogus/>" + body + TAIL


def _error(thunk):
    try:
        thunk()
    except LimitExceeded as exc:
        return type(exc), str(exc), exc.line, exc.column
    raise AssertionError("no LimitExceeded")


class TestLimitsBindOnBothRoutes:
    @pytest.mark.parametrize("engine", ["streaming", "tree"])
    def test_batch_limits_raise_the_char_parser_error(self, engine):
        xsd = figure3_xsd()
        validator = StreamingValidator(compile_xsd(xsd))
        for limits, valid, invalid in _over_limit_documents():
            # Within the default limits they are what they seem.
            assert validator.validate(valid).valid
            assert not validator.validate(invalid).valid
            for text in (valid, invalid):
                expected = _error(lambda: validator.validate_events(
                    iter_events(text, limits)
                ))
                falls = counter("engine.dense.fallbacks")
                assert _error(lambda: validate_many(
                    xsd, [text], engine=engine, limits=limits
                )) == expected
                # The streaming engine scanned, then reran the compat loop.
                assert counter("engine.dense.fallbacks") == falls + (
                    engine == "streaming"
                )
                outcome = validate_many(xsd, [text], engine=engine,
                                        policy="isolate", limits=limits)[0]
                assert (outcome.error.kind, outcome.error.message,
                        outcome.error.line, outcome.error.column) == (
                    "limit", expected[1], expected[2], expected[3]
                )


def _corpus_documents():
    """(label, formal XSD, text) for every corpus document, every E11
    Figure 3 document, and a truncated copy of each (a parse error)."""
    documents = []
    for case in load_corpus(CORPUS_DIR):
        if case.document is None:
            continue
        schema = schema_from_json(case.schema)
        if not isinstance(schema, XSD):
            schema = dfa_based_to_xsd(schema)
        documents.append((case.case_id, schema, case.document))
    xsd = figure3_xsd()
    for target, tree in sorted(build_corpus().items()):
        documents.append((f"e11-{target}", xsd, write_document(tree)))
    documents.append(("figure1", xsd, FIGURE1_XML))
    return documents + [
        (f"{label}-truncated", schema, text[:len(text) * 2 // 3])
        for label, schema, text in documents
    ]


def _outcome(report=None, error=None):
    if error is not None:
        return (error.kind, error.message, error.line, error.column)
    return (report.valid, sorted(report.violations))


class TestSameAnswers:
    @pytest.mark.parametrize(
        "label, schema, text", _corpus_documents(),
        ids=[label for label, __, __ in _corpus_documents()],
    )
    def test_batch_outcome_equals_validate(self, label, schema, text):
        compiled = compile_xsd(schema)
        try:
            expected = _outcome(StreamingValidator(compiled).validate(text))
        except Exception as exc:  # noqa: BLE001 — compared as outcomes
            expected = _outcome(error=DocumentError.from_exception(exc))
        docs = counter("engine.dense.docs")
        outcome = validate_many(compiled, [text], policy="isolate")[0]
        assert _outcome(outcome.report, outcome.error) == expected
        if outcome.ok and outcome.valid:
            assert counter("engine.dense.docs") == docs + 1

    @pytest.mark.parametrize("policy", ["raise", "isolate", "fail_fast"])
    @pytest.mark.parametrize("workers", [None, 4])
    def test_valid_text_commits_dense_under_every_policy(self, compiled,
                                                         policy, workers):
        docs, falls = dense_counts()
        results = validate_many(compiled, [FIGURE1_XML] * 4, policy=policy,
                                workers=workers)
        assert all(result.valid for result in results)
        assert dense_counts() == (docs + 4, falls)
