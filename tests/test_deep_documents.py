"""Documents as deep as the default limits accept.

The parsers take nesting up to ``ParserLimits().max_depth`` (iterative,
with an explicit stack of open elements), so everything that walks a
tree must too: the tree's own walks (``iter``, ``size``, equality), the
writer, patch payload clones, the edit API's purge, and the reference
validators behind ``repro validate`` and ``repro explain``.  Each walks
an explicit stack here, in the order its recursive form did.  BonXai's
key and unique checks step each selector once per element, so their
cost is linear in depth, and a patch payload as deep as a document may
be travels as patch text.
"""

import time
import tracemalloc

import pytest

from repro.bonxai.compile import compile_schema
from repro.bonxai.parser import parse_bonxai
from repro.bonxai.validator import BonXaiReport, _check_constraints
from repro.cli import main
from repro.engine import StreamingValidator, ValidatedDocument, compile_xsd
from repro.errors import LimitExceeded
from repro.regex.ast import optional, sym
from repro.resilience import ParserLimits
from repro.translation import xsd_to_dfa_based
from repro.xmlmodel import (
    Patch,
    parse_document,
    parse_patch,
    write_document,
    write_patch,
)
from repro.xmlmodel.patch import AddChild, ReplaceChild
from repro.xsd import XSD, ContentModel, TypedName, validate_xsd, write_xsd

DEPTH = ParserLimits().max_depth

#: ``a`` of type ``T``, whose content is an optional ``a`` of type ``T``.
XSD_A = XSD(
    ename={"a"},
    types={"T"},
    rho={"T": ContentModel(optional(sym(TypedName("a", "T"))))},
    start={TypedName("a", "T")},
)
DTD_A = "<!ELEMENT a (a?)>\n"
BONXAI_A = "global { a }\ngrammar {\n  a = { element a? }\n}\n"


def chain(depth, attributes=None):
    """``depth`` nested ``a`` elements; ``attributes`` maps a level (1
    is the root) to the attribute text its start tag carries."""
    attributes = attributes or {}
    return "".join(
        f"<a{attributes.get(level, '')}>" for level in range(1, depth + 1)
    ) + "</a>" * depth


@pytest.fixture(scope="module")
def compiled():
    return compile_xsd(XSD_A)


def assert_reports_agree(handle, document):
    """``handle.report()`` equals the reference validator's on
    ``document`` (violations in order, typing keys in order)."""
    report = handle.report()
    expected = validate_xsd(XSD_A, document)
    assert report.violations == expected.violations
    assert list(report.typing.items()) == list(expected.typing.items())


def provenance(handle):
    return [entry.to_dict() for entry in handle.provenance()]


class TestTreeWalks:
    def test_iter_size_and_equality(self):
        document = parse_document(chain(DEPTH))
        nodes = list(document.iter())
        assert document.size() == len(nodes) == DEPTH
        assert all(node.parent is parent
                   for parent, node in zip(nodes, nodes[1:]))
        assert document == parse_document(chain(DEPTH))
        # A difference at the deepest level is seen.
        assert document != parse_document(chain(DEPTH, {DEPTH: " x='1'"}))
        assert document != parse_document(chain(DEPTH - 1))

    def test_write_document_round_trips(self):
        document = parse_document(chain(DEPTH))
        compact = write_document(document, indent=None, declaration=False)
        assert compact == (
            "<a>" * (DEPTH - 1) + "<a/>" + "</a>" * (DEPTH - 1) + "\n")
        assert parse_document(compact) == document
        pretty = write_document(document)
        expected = "<a/>"
        for level in range(DEPTH - 2, -1, -1):
            expected = (f"<a>\n{'  ' * (level + 1)}{expected}\n"
                        f"{'  ' * level}</a>")
        assert pretty == (
            '<?xml version="1.0" encoding="UTF-8"?>\n' + expected + "\n")
        assert parse_document(pretty).size() == DEPTH

    def test_mixed_content_is_written_in_order(self):
        text = '<r k="&amp;">t0<a>u<b/>v</a>t1<c/>t2</r>'
        document = parse_document(text)
        assert write_document(document, indent=None,
                              declaration=False) == text + "\n"
        assert write_document(document) == (
            '<?xml version="1.0" encoding="UTF-8"?>\n' + text + "\n")

    @pytest.mark.parametrize("op, base", [
        (AddChild((), None), "<a/>"),
        (ReplaceChild((0,), None), "<a><a/></a>"),
    ], ids=["add", "replace"])
    def test_patches_clone_a_deep_payload(self, compiled, op, base):
        op.child = parse_document(chain(DEPTH - 1)).root
        handle = ValidatedDocument(parse_document(base), compiled)
        op.apply_incremental(handle)
        full = parse_document(base)
        op.apply_full(full)
        assert full == handle.document
        assert full.size() == len(handle) == DEPTH
        assert handle.document.root.children[0] is not op.child
        assert handle.valid
        assert_reports_agree(handle, full)

    def test_delete_child_purges_the_whole_subtree(self, compiled):
        handle = ValidatedDocument(parse_document(chain(DEPTH)), compiled)
        assert len(handle) == DEPTH
        handle.delete_child(handle.document.root, 0)
        fresh = ValidatedDocument(parse_document("<a/>"), compiled)
        assert len(handle) == len(fresh) == 1
        assert_reports_agree(handle, handle.document)
        assert provenance(handle) == provenance(fresh)
        assert provenance(handle)[0]["dfa_states"] == [0]


class TestReferenceValidators:
    def test_violations_in_order_agree_with_the_engine(self, compiled):
        # Undeclared attributes at three depths: pre-order, as the
        # engine's walk and the DFA-based validator report them.
        text = chain(DEPTH, {1: " x='1'", DEPTH // 2: " x='2'",
                             DEPTH: " x='3'"})
        document = parse_document(text)
        expected = validate_xsd(XSD_A, document)
        assert len(expected.violations) == 3
        assert len(expected.typing) == DEPTH
        report = StreamingValidator(compiled).validate(text)
        assert report.violations == expected.violations
        assert list(report.typing.items()) == list(expected.typing.items())
        assert xsd_to_dfa_based(XSD_A).validate(document) == (
            expected.violations)

    @pytest.fixture
    def files(self, tmp_path):
        paths = {}
        for name, content in (("deep.xml", chain(DEPTH)),
                              ("a.xsd", write_xsd(XSD_A)),
                              ("a.dtd", DTD_A),
                              ("a.bonxai", BONXAI_A)):
            target = tmp_path / name
            target.write_text(content)
            paths[name] = str(target)
        return paths

    @pytest.mark.parametrize("schema", ["a.xsd", "a.dtd", "a.bonxai"])
    def test_validate_and_explain(self, files, capsys, schema):
        assert main(["validate", files[schema], files["deep.xml"]]) == 0
        assert capsys.readouterr().out == "VALID\n"
        assert main(["explain", files["deep.xml"],
                     "--schema", files[schema]]) == 0
        out = capsys.readouterr().out
        assert out.count("type=") == DEPTH
        assert out.rstrip().endswith("CONFORMING")


class TestBonXaiConstraints:
    """``unique``/``key`` selection steps each selector's matcher once
    per element, down one pre-order walk: a ``max_depth`` chain costs
    linear time and no per-element ancestor list."""

    BOUND_BYTES = 512 * 1024
    BOUND_SECONDS = 2.0

    @staticmethod
    def _schema(constraints=""):
        return compile_schema(parse_bonxai(
            "global { a }\ngrammar {\n  a = { attribute id?, element a? }"
            "\n}\n" + constraints
        ))

    @staticmethod
    def _measured(schema, document):
        """``_check_constraints``' violations, peak traced bytes and
        seconds."""
        report = BonXaiReport()
        tracemalloc.start()
        try:
            started = time.perf_counter()
            _check_constraints(schema, document, report)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return report.violations, peak, elapsed

    @pytest.mark.parametrize("selector", ["//a", "a//a"])
    def test_a_deep_chain_is_checked_in_linear_time(self, selector):
        # Every id is its level, except that the deepest repeats level
        # 2's: both selectors select levels 2 and DEPTH.
        ids = {level: f" id='{level}'" for level in range(1, DEPTH)}
        ids[DEPTH] = " id='2'"
        document = parse_document(chain(DEPTH, ids))
        schema = self._schema(f"constraints {{ unique {selector} (@id) }}")
        violations, peak, elapsed = self._measured(schema, document)
        assert len(violations) == 1
        assert violations[0].endswith("duplicate value ('2',)")
        assert schema.validate(document).violations == violations
        assert peak < self.BOUND_BYTES
        assert elapsed < self.BOUND_SECONDS

    def test_no_constraint_costs_nothing(self):
        document = parse_document(chain(DEPTH))
        violations, peak, __ = self._measured(self._schema(), document)
        assert violations == []
        assert peak < self.BOUND_BYTES


class TestBxsdMatch:
    """``BXSD.match`` works out a node's path only for its violations or
    when ``paths`` is read, so a match keeps memory linear in the number
    of elements."""

    @staticmethod
    def _peak(bxsd, document):
        """The match's report and peak traced bytes."""
        tracemalloc.start()
        try:
            report = bxsd.match(document)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return report, peak

    def test_peak_memory_is_linear_in_depth(self):
        bxsd = compile_schema(parse_bonxai(BONXAI_A)).bxsd
        peaks = {}
        for depth in (DEPTH // 4, DEPTH):
            document = parse_document(chain(depth))
            bxsd.match(document)  # warm the matchers' memos
            report, peaks[depth] = self._peak(bxsd, document)
            assert report.valid
        # A slash path kept per element made it 9.6 times.
        assert peaks[DEPTH] < 5 * peaks[DEPTH // 4]

    def test_paths_and_violations_at_depth(self):
        bxsd = compile_schema(parse_bonxai(BONXAI_A)).bxsd
        document = parse_document(
            "<a>" * (DEPTH - 1) + "<a>x</a>" + "</a>" * (DEPTH - 1))
        report = bxsd.match(document)
        deepest = "/a" * DEPTH
        assert report.violations == [
            f"{deepest}: element <a> may not contain text"]
        nodes = list(document.iter())
        assert len(report.paths) == DEPTH
        assert report.paths[id(nodes[0])] == "/a"
        assert report.paths[id(nodes[-1])] == deepest


class TestDeepPatchPayloads:
    """``parse_patch`` gives a payload the depth a document may have:
    the ``<patch>`` and ``<add>`` wrappers do not count against it."""

    def test_a_max_depth_payload_round_trips_and_applies(self, compiled):
        op = AddChild((), parse_document(chain(DEPTH)).root)
        text = write_patch(Patch([op]))
        [parsed] = parse_patch(text).ops
        assert parsed.child == op.child
        handle = ValidatedDocument(parse_document("<a/>"), compiled)
        parse_patch(text).apply_incremental(handle)
        full = parse_patch(text).apply_full(parse_document("<a/>"))
        assert full == handle.document
        assert full.size() == len(handle) == DEPTH + 1
        assert handle.valid
        assert_reports_agree(handle, full)

    def test_a_payload_one_level_deeper_is_refused(self):
        deeper = ParserLimits(max_depth=DEPTH + 1)
        payload = parse_document(chain(DEPTH + 1), limits=deeper).root
        with pytest.raises(LimitExceeded):
            parse_patch(write_patch(Patch([AddChild((), payload)])))

    def test_explicit_limits_bound_the_payload(self):
        payload = parse_document(chain(3)).root
        text = write_patch(Patch([AddChild((), payload)]))
        assert parse_patch(text, limits=ParserLimits(max_depth=3)).ops
        with pytest.raises(LimitExceeded):
            parse_patch(text, limits=ParserLimits(max_depth=2))
        unlimited = ParserLimits.unlimited()
        assert parse_patch(text, limits=unlimited).ops
