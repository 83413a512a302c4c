"""Differential tests: streaming engine vs the reference tree validator.

For random (schema, document) pairs — valid documents sampled from the
schema via :class:`repro.xsd.generator.DocumentGenerator`, then pushed
off the language by random mutations — the compiled streaming engine and
``validate_xsd`` must agree on:

* validity,
* the multiset of violation messages (same paths, same text; only the
  order may differ, because streaming discovers a parent's child-word
  mismatch at its end tag, after its children's violations),
* the typing (same indexed-path keys, same types, same document order).

Both streaming inputs are exercised: the document's own event stream and
the serialized text through ``iter_events`` (no tree ever built).

Scale: with the default "ci" hypothesis profile each run covers a few
hundred comparisons; ``HYPOTHESIS_PROFILE=thorough`` (what ``make check``
uses) covers 200 examples x 4 documents x 2 inputs plus the fixed-seed
sweep — well over 500 generated cases.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.engine import StreamingValidator, compile_xsd
from repro.paperdata import figure3_xsd
from repro.regex.ast import (
    EPSILON,
    concat,
    counter,
    interleave,
    optional,
    plus,
    star,
    sym,
)
from repro.translation import xsd_to_dfa_based
from repro.xmlmodel import parse_document, write_document
from repro.xmlmodel.tree import XMLDocument, XMLElement
from repro.xsd import DocumentGenerator, validate_xsd
from repro.xsd.content import AttributeUse, ContentModel
from repro.xsd.model import XSD
from repro.xsd.typednames import TypedName

pytestmark = pytest.mark.differential


def T(name, type_name):
    return TypedName(name, type_name)


def _sections_xsd():
    """Same-named elements with context-dependent types + attributes."""
    return XSD(
        ename={"doc", "template", "content", "section"},
        types={"Tdoc", "Ttemplate", "Tcontent", "Ttsec", "Tcsec"},
        rho={
            "Tdoc": ContentModel(
                concat(sym(T("template", "Ttemplate")),
                       sym(T("content", "Tcontent")))
            ),
            "Ttemplate": ContentModel(optional(sym(T("section", "Ttsec")))),
            "Tcontent": ContentModel(star(sym(T("section", "Tcsec")))),
            "Ttsec": ContentModel(optional(sym(T("section", "Ttsec")))),
            "Tcsec": ContentModel(
                star(sym(T("section", "Tcsec"))),
                mixed=True,
                attributes=(
                    AttributeUse("title", required=True),
                    AttributeUse("lang", required=False),
                ),
            ),
        },
        start={T("doc", "Tdoc")},
    )


def _inventory_xsd():
    """Repetition-heavy models (counters via star/plus, optionals)."""
    return XSD(
        ename={"inv", "item", "tag", "note"},
        types={"Tinv", "Titem", "Ttag", "Tnote"},
        rho={
            "Tinv": ContentModel(
                star(concat(sym(T("item", "Titem")),
                            optional(sym(T("note", "Tnote"))))),
                attributes=(AttributeUse("owner", required=True),),
            ),
            "Titem": ContentModel(star(sym(T("tag", "Ttag")))),
            "Ttag": ContentModel(EPSILON),
            "Tnote": ContentModel(EPSILON, mixed=True),
        },
        start={T("inv", "Tinv")},
    )


def _all24_xsd():
    """A 24-member ``xs:all``: a bag whose DFA (2^24 states) is unbuildable.

    Members mix every bag multiplicity: plain (``f01``, ``f02``), ``+``
    (``f03``), ``minOccurs="0"`` (``f00``, ``f04``-``f15``) and
    ``maxOccurs="unbounded"`` (``f16``-``f23``).  ``f00``'s type is an
    all-optional bag, so ``<f00/>`` must be accepted, and the record
    carries a required attribute.  Three required members keep the
    document generator's shortest-word search small.
    """
    def member(index):
        name = f"f{index:02d}"
        if index == 0:
            target = "Topt"
        else:
            target = "Ttext" if index < 12 else "Tempty"
        symbol = sym(T(name, target))
        if index in (1, 2):
            return symbol
        if index == 3:
            return plus(symbol)
        if index >= 16:
            return star(symbol)
        return optional(symbol)

    return XSD(
        ename={f"f{i:02d}" for i in range(24)} | {"rec", "g0", "g1", "g2"},
        types={"Tall", "Topt", "Ttext", "Tempty"},
        rho={
            "Tall": ContentModel(
                interleave(*(member(i) for i in range(24))),
                attributes=(AttributeUse("id", required=True),),
            ),
            "Topt": ContentModel(
                interleave(*(optional(sym(T(f"g{i}", "Tempty")))
                             for i in range(3))),
                attributes=(AttributeUse("lang", required=False),),
            ),
            "Ttext": ContentModel(EPSILON, mixed=True),
            "Tempty": ContentModel(EPSILON),
        },
        start={T("rec", "Tall")},
    )


SCHEMAS = {
    "figure3": figure3_xsd,
    "sections": _sections_xsd,
    "inventory": _inventory_xsd,
    "all24": _all24_xsd,
}

_cache = {}


def _setup(key):
    """(xsd, compiled, generator, element names, attribute names)."""
    entry = _cache.get(key)
    if entry is None:
        xsd = SCHEMAS[key]()
        compiled = compile_xsd(xsd)
        generator = DocumentGenerator(xsd_to_dfa_based(xsd))
        names = sorted(xsd.ename) + ["zzz"]
        attr_names = sorted(
            {use.name for model in xsd.rho.values()
             for use in model.attributes}
        ) + ["bogus"]
        entry = _cache[key] = (xsd, compiled, generator, names, attr_names)
    return entry


def _copy_tree(node):
    clone = XMLElement(node.name, attributes=dict(node.attributes))
    clone.texts = [node.texts[0]]
    for index, child in enumerate(node.children):
        clone.append(_copy_tree(child), text_after=node.texts[index + 1])
    return clone


def _mutate(document, rng, names, attr_names):
    """One random mutation covering every violation class."""
    root = _copy_tree(document.root)
    nodes = list(root.iter())
    victim = nodes[rng.randrange(len(nodes))]
    choice = rng.randrange(6)
    if choice == 0:  # relabel (may hit the root -> undeclared root)
        others = [name for name in names if name != victim.name]
        victim.name = others[rng.randrange(len(others))]
    elif choice == 1 and victim.parent is not None:  # delete subtree
        index = victim.parent.children.index(victim)
        del victim.parent.children[index]
        del victim.parent.texts[index + 1]
        victim.parent = None
    elif choice == 2 and victim.children:  # duplicate a child
        victim.append(_copy_tree(
            victim.children[rng.randrange(len(victim.children))]
        ))
    elif choice == 3:  # add an attribute (possibly undeclared)
        name = attr_names[rng.randrange(len(attr_names))]
        victim.attributes[name] = "x"
    elif choice == 4 and victim.attributes:  # drop an attribute
        keys = sorted(victim.attributes)
        del victim.attributes[keys[rng.randrange(len(keys))]]
    else:  # inject text (violates non-mixed models)
        victim.append_text("stray text")
    return XMLDocument(root)


def _assert_agreement(xsd, compiled, document):
    """The core oracle: tree and streaming reports are interchangeable."""
    expected = validate_xsd(xsd, document)
    validator = StreamingValidator(compiled)

    from_tree = validator.validate_events(document.events())
    assert from_tree.valid == expected.valid
    assert sorted(from_tree.violations) == sorted(expected.violations)
    assert from_tree.typing == expected.typing
    assert list(from_tree.typing) == list(expected.typing)

    text = write_document(document)
    from_text = validator.validate(text)
    assert from_text.valid == expected.valid
    assert sorted(from_text.violations) == sorted(expected.violations)
    assert from_text.typing == expected.typing

    from_bytes = validator.validate_bytes(text.encode("utf-8"))
    assert from_bytes.valid == expected.valid
    assert sorted(from_bytes.violations) == sorted(expected.violations)
    assert from_bytes.typing == expected.typing
    assert list(from_bytes.typing) == list(expected.typing)
    return expected


class TestDifferential:
    @given(
        key=st.sampled_from(sorted(SCHEMAS)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_engines_agree(self, key, seed):
        xsd, compiled, generator, names, attr_names = _setup(key)
        rng = random.Random(seed)
        document = generator.generate(rng, max_depth=4, max_children=5)
        report = _assert_agreement(xsd, compiled, document)
        assert report.valid, report.violations
        for __ in range(3):
            mutant = _mutate(document, rng, names, attr_names)
            _assert_agreement(xsd, compiled, mutant)

    def test_fixed_seed_sweep(self, rng):
        # Deterministic bulk sweep, independent of hypothesis: 50 valid
        # documents and 150 mutants per schema.
        for key in sorted(SCHEMAS):
            xsd, compiled, generator, names, attr_names = _setup(key)
            for __ in range(50):
                document = generator.generate(
                    rng, max_depth=4, max_children=5
                )
                assert _assert_agreement(xsd, compiled, document).valid
                for __ in range(3):
                    mutant = _mutate(document, rng, names, attr_names)
                    _assert_agreement(xsd, compiled, mutant)


def _outcome(thunk):
    """Normalize a validation attempt for dense-vs-dict comparison.

    Reports compare on (verdict, violation multiset, typing map + order);
    errors compare on the full diagnostic surface: type, message, line,
    column, and — for limits — which limit tripped with what value.
    """
    from repro.errors import ParseError

    try:
        report = thunk()
    except ParseError as error:
        return ("error", type(error).__name__, str(error), error.line,
                error.column, getattr(error, "limit", None),
                getattr(error, "value", None))
    return ("report", report.valid, sorted(report.violations),
            dict(report.typing), list(report.typing))


class TestDenseVsDict:
    """The fused fast path is observationally identical to the compat loop.

    ``validate(text)`` / ``validate_bytes`` run the byte tokenizer fused
    with the table loop; ``validate_events(iter_events(text))`` is the
    char parser feeding the event-driven compat loop, which steps the
    same tables by interned name id.  Everything observable — verdicts,
    violation multisets, typing, parse/limit errors, provenance, metrics
    counters — must agree.
    """

    def test_schemas_compile_dense(self):
        for key in sorted(SCHEMAS):
            __, compiled, *___ = _setup(key)
            for compiled_type in compiled.types:
                # Rows for ordered content, masks for a bag: never both.
                assert (compiled_type.dense_rows is None) != (
                    compiled_type.dense_bag is None
                ), f"{key}: type {compiled_type.name} has no dense tables"

    def test_dense_commits_valid_documents_without_fallback(self):
        from repro.observability import default_registry
        from repro.xmlmodel.parser import iter_events

        registry = default_registry()
        xsd, compiled, generator, *__ = _setup("figure3")
        document = generator.generate(
            random.Random(7), max_depth=4, max_children=5
        )
        text = write_document(document)
        validator = StreamingValidator(compiled)

        docs = registry.counter("engine.dense.docs")
        falls = registry.counter("engine.dense.fallbacks")
        docs_before, falls_before = docs.value, falls.value
        report = validator.validate(text)
        assert report.valid
        assert docs.value == docs_before + 1
        assert falls.value == falls_before

    def test_dense_falls_back_on_invalid_with_identical_diagnostics(self):
        from repro.observability import default_registry

        registry = default_registry()
        xsd, compiled, *__ = _setup("sections")
        text = (  # undeclared child + missing required attribute
            "<doc><template/><content><section/>"
            "<bogus/></content></doc>"
        )
        falls = registry.counter("engine.dense.fallbacks")
        before = falls.value
        report = StreamingValidator(compiled).validate(text)
        expected = validate_xsd(xsd, parse_document(text))
        assert falls.value == before + 1
        assert not report.valid
        assert sorted(report.violations) == sorted(expected.violations)
        assert report.typing == expected.typing

    def test_dense_metrics_agree_with_compat(self):
        # Both paths account the same docs/events into the registry.
        from repro.observability import default_registry
        from repro.xmlmodel.parser import iter_events

        registry = default_registry()
        __, compiled, generator, *___ = _setup("inventory")
        document = generator.generate(
            random.Random(11), max_depth=4, max_children=6
        )
        text = write_document(document)
        validator = StreamingValidator(compiled)
        events_counter = registry.counter("engine.stream.events")
        docs_counter = registry.counter("engine.stream.docs")

        before = events_counter.value, docs_counter.value
        validator.validate(text)  # dense
        dense_delta = (events_counter.value - before[0],
                       docs_counter.value - before[1])

        before = events_counter.value, docs_counter.value
        validator.validate_events(iter_events(text))  # dict/compat
        compat_delta = (events_counter.value - before[0],
                        docs_counter.value - before[1])

        assert dense_delta == compat_delta
        assert dense_delta[1] == 1

    def test_provenance_requests_take_the_compat_path(self):
        # A provenance recorder needs per-element state paths only the
        # compat loop tracks; validate(text, provenance=...) must delegate
        # and produce records identical to the explicit compat call.
        from repro.observability import default_registry
        from repro.observability.provenance import ProvenanceRecorder
        from repro.xmlmodel.parser import iter_events

        registry = default_registry()
        __, compiled, generator, *___ = _setup("sections")
        document = generator.generate(
            random.Random(3), max_depth=4, max_children=4
        )
        text = write_document(document)
        validator = StreamingValidator(compiled)

        dense_docs = registry.counter("engine.dense.docs")
        before = dense_docs.value
        via_validate = ProvenanceRecorder()
        validator.validate(text, provenance=via_validate)
        assert dense_docs.value == before  # dense path not taken

        via_events = ProvenanceRecorder()
        validator.validate_events(iter_events(text), via_events)
        got = [
            (e.path, e.typed_path, e.name, e.type_name, e.dfa_states)
            for e in via_validate.elements
        ]
        want = [
            (e.path, e.typed_path, e.name, e.type_name, e.dfa_states)
            for e in via_events.elements
        ]
        assert got == want and got

    def test_seeded_10k_dense_vs_dict_sweep(self):
        # The bulk lockdown: ~10k serialized documents (valid bases plus
        # byte-level mutants exercising the fallback machinery) through
        # both paths, asserting identical reports *or* identical errors.
        # DENSE_SWEEP_CASES overrides the size (for quick local runs).
        import os

        from repro.observability import default_registry
        from repro.xmlmodel.parser import iter_events
        from tests.test_fuzz_parser import LIMITS, mutate

        total = int(os.environ.get("DENSE_SWEEP_CASES", "10000"))
        registry = default_registry()
        dense_docs = registry.counter("engine.dense.docs")
        dense_before = dense_docs.value
        rng = random.Random(0xD15EA5E)
        keys = sorted(SCHEMAS)
        bases = {}
        validators = {}
        for key in keys:
            __, compiled, generator, *___ = _setup(key)
            validators[key] = StreamingValidator(compiled)
            bases[key] = [
                write_document(generator.generate(
                    rng, max_depth=4, max_children=5
                ))
                for __ in range(12)
            ]
        for index in range(total):
            key = keys[index % len(keys)]
            base = bases[key][index % len(bases[key])]
            text = base if index % 4 == 0 else mutate(base, rng)
            validator = validators[key]
            with LIMITS:
                dense = _outcome(lambda: validator.validate(text))
                compat = _outcome(lambda: validator.validate_events(
                    iter_events(text, limits=LIMITS)
                ))
            assert dense == compat, (
                f"case {index} ({key}): dense={dense} compat={compat} "
                f"on {text!r}"
            )
        # The sweep must actually exercise the fast path, not fall back
        # its way to vacuous agreement.
        assert dense_docs.value - dense_before >= total // 8


_BAG_TAIL = "<f01/><f02>x</f02><f03/>"


class TestBags:
    """Bag-shaped content (``xs:all``) on the dense path and off it."""

    def _counters(self):
        from repro.observability import default_registry

        registry = default_registry()
        return (registry.counter("engine.dense.docs").value,
                registry.counter("engine.dense.fallbacks").value)

    def test_all_groups_compile_to_dense_bags(self):
        __, compiled, *___ = _setup("all24")
        wide = compiled.type_named("Tall")
        assert wide.bag is not None and wide.dfa is wide.bag
        assert len(wide.dfa) == 25  # 24 member bits + the dead bit
        assert compiled.type_named("Topt").bag is not None
        assert compiled.type_named("Ttext").bag is None
        assert wide.dense_bag[3] == wide.bag.dead == 1 << 24

    def test_valid_record_commits_dense_in_any_order(self):
        xsd, compiled, *__ = _setup("all24")
        text = ('<rec id="1"><f23/><f03/><f00/><f16/><f03/><f23/>'
                '<f02>x</f02><f07/><f01/></rec>')
        before = self._counters()
        report = StreamingValidator(compiled).validate(text)
        after = self._counters()
        assert after == (before[0] + 1, before[1])
        expected = validate_xsd(xsd, parse_document(text))
        assert report.valid and expected.valid
        assert list(report.typing.items()) == list(expected.typing.items())

    @pytest.mark.parametrize("text", [
        # a second occurrence of a once-member
        '<rec id="1"><f01/>' + _BAG_TAIL + "</rec>",
        # a required member missing
        '<rec id="1"><f01/><f03/></rec>',
        # a required member missing, on a self-closing element
        '<rec id="1"/>',
        # a second occurrence inside the all-optional nested bag
        '<rec id="1"><f00><g1/><g1/></f00>' + _BAG_TAIL + "</rec>",
        # the required attribute missing
        "<rec>" + _BAG_TAIL + "</rec>",
    ])
    def test_violations_fall_back_with_tree_diagnostics(self, text):
        xsd, compiled, *__ = _setup("all24")
        before = self._counters()
        report = StreamingValidator(compiled).validate(text)
        assert self._counters() == (before[0], before[1] + 1)
        expected = validate_xsd(xsd, parse_document(text))
        assert not report.valid
        assert sorted(report.violations) == sorted(expected.violations)
        assert report.typing == expected.typing

    def test_state_paths_follow_content_bag_step(self):
        # The loops step masks inline; a repeated once-member must set
        # the dead bit exactly as ContentBag.step does, so provenance
        # and the incremental memo record the same state paths.
        from repro.engine import ValidatedDocument
        from repro.observability.provenance import ProvenanceRecorder

        __, compiled, *___ = _setup("all24")
        bag = compiled.type_named("Tall").bag

        def bag_path(words):
            states = [0]
            for word in words:
                states.append(bag.step(states[-1], bag.symbol_ids[word]))
            return tuple(states)

        words = ["f01", "f16", "f01", "f16", "f02", "f03"]
        text = ('<rec id="1">' + "".join(f"<{w}/>" for w in words)
                + "</rec>")
        assert bag_path(words)[3] & bag.dead  # the repeat of f01 is dead
        recorder = ProvenanceRecorder()
        report = StreamingValidator(compiled).validate(text, recorder)
        assert not report.valid
        assert recorder.elements[0].dfa_states == bag_path(words)
        handle = ValidatedDocument(parse_document(text), compiled)
        root = handle.document.root
        assert handle.provenance_of(root) == ("Tall", bag_path(words))
        handle.delete_child(root, 2)  # drop the repeat: a live mask again
        del words[2]
        assert handle.provenance_of(root) == ("Tall", bag_path(words))
        assert handle.valid


def _counter_xsd():
    """``a{1,256}``: a counter whose minimal DFA has 258 states."""
    return XSD(
        ename={"r", "a"},
        types={"Tr", "Ta"},
        rho={
            "Tr": ContentModel(counter(sym(T("a", "Ta")), 1, 256)),
            "Ta": ContentModel(EPSILON),
        },
        start={T("r", "Tr")},
    )


def _interleave_xsd():
    """Four ``{2,3}``-counted members: an interleave outside the bag
    shape, whose minimal DFA has 257 states (4^4 count vectors plus the
    sink)."""
    return XSD(
        ename={"r", "a", "b", "c", "d"},
        types={"Tr", "Te"},
        rho={
            "Tr": ContentModel(interleave(
                *(counter(sym(T(name, "Te")), 2, 3) for name in "abcd")
            )),
            "Te": ContentModel(EPSILON),
        },
        start={T("r", "Tr")},
    )


class TestOffDensePath:
    """Types past the 256 states that once kept their schema off the
    dense path — a large counter and an interleave outside the bag
    shape — compile dense rows like any other type: text and bytes
    commit dense exactly when the document is valid, and edits step
    the rows."""

    def _counters(self):
        from repro.observability import default_registry

        registry = default_registry()
        return (registry.counter("engine.dense.docs").value,
                registry.counter("engine.dense.fallbacks").value)

    def _assert_route(self, xsd, text):
        before = self._counters()
        report = _assert_agreement(xsd, compile_xsd(xsd),
                                   parse_document(text))
        # validate(text) and validate_bytes: two dense attempts.
        committed = (before[0] + 2, before[1])
        fell_back = (before[0], before[1] + 2)
        assert self._counters() == (committed if report.valid
                                    else fell_back)
        return report

    def test_large_types_compile_dense_tables(self):
        for xsd, states in ((_counter_xsd(), 258), (_interleave_xsd(), 257)):
            compiled_type = compile_xsd(xsd).type_named("Tr")
            assert compiled_type.bag is None
            assert len(compiled_type.dfa) == states
            assert len(compiled_type.dense_rows) == states

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257])
    def test_text_and_bytes_agree_with_the_tree_validator(self, count):
        report = self._assert_route(_counter_xsd(),
                                    "<r>" + "<a/>" * count + "</r>")
        assert report.valid == (1 <= count <= 256)

    @pytest.mark.parametrize("word, valid", [
        ("aabbccdd", True),
        ("dcbadcbaabcd", True),
        ("abcdabc", False),  # d only once
        ("aaaabbccdd", False),  # a four times
        ("", False),
    ])
    def test_interleave_commits_dense_exactly_when_valid(self, word, valid):
        text = "<r>" + "".join(f"<{name}/>" for name in word) + "</r>"
        assert self._assert_route(_interleave_xsd(), text).valid == valid

    def test_edits_agree_with_the_tree_validator(self):
        from repro.engine import ValidatedDocument

        for xsd, text in (
            (_counter_xsd(), "<r>" + "<a/>" * 256 + "</r>"),
            (_interleave_xsd(), "<r>" + "<a/><b/><c/><d/>" * 2 + "<a/></r>"),
        ):
            # Both documents hold as many <a> as their type allows.
            handle = ValidatedDocument(parse_document(text),
                                       compile_xsd(xsd))
            root = handle.document.root
            for edit, valid in (
                (lambda: handle.insert_child(root, 0, XMLElement("a")),
                 False),
                (lambda: handle.delete_child(root, 1), True),
            ):
                edit()
                expected = validate_xsd(xsd, handle.document)
                report = handle.report()
                assert handle.valid == expected.valid == valid
                assert report.violations == expected.violations
                assert report.typing == expected.typing


class TestStreamingInputs:
    def test_text_and_tree_events_agree_on_parsed_documents(self):
        # The parser's event mode and the tree's event replay describe
        # the same document (modulo text-run chunking).
        text = """<doc a="1"><item>hi<sub/>there</item><item/></doc>"""
        from repro.xmlmodel import iter_events

        def coalesced(events):
            out = []
            for event in events:
                if (event[0] == "text" and out
                        and out[-1][0] == "text"):
                    out[-1] = ("text", out[-1][1] + event[1])
                else:
                    out.append(event)
            return [
                e if e[0] != "start" else (e[0], e[1], dict(e[2]))
                for e in out
            ]

        assert coalesced(iter_events(text)) == coalesced(
            parse_document(text).events()
        )

    def test_undeclared_root_stops_early(self):
        xsd, compiled, *__ = _setup("sections")
        report = StreamingValidator(compiled).validate(
            "<nowhere><junk/></nowhere>"
        )
        expected = validate_xsd(xsd, parse_document(
            "<nowhere><junk/></nowhere>"
        ))
        assert not report.valid
        assert report.violations == expected.violations
        assert report.typing == expected.typing == {}

    def test_unrecognized_child_subtree_is_skipped(self):
        xsd, compiled, *__ = _setup("sections")
        text = (
            "<doc><template/><content>"
            "<wrong><deep>text</deep></wrong>"
            "<section title='t'/></content></doc>"
        )
        expected = validate_xsd(xsd, parse_document(text))
        report = StreamingValidator(compiled).validate(text)
        assert sorted(report.violations) == sorted(expected.violations)
        assert report.typing == expected.typing
