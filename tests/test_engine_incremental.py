"""Unit tests for incremental revalidation and the XML patch layer.

The contract under test: a :class:`ValidatedDocument` driven through any
edit sequence reports *exactly* what a from-scratch run of the tree
validator reports on the resulting tree — verdict, violation multiset
and order, and typing — while revalidating only each edit's footprint.
The patch layer's two application modes (``apply_full`` on a raw tree,
``apply_incremental`` on a handle) must be indistinguishable.
"""

import hashlib
import json
import random
import re

import pytest

from repro.conformance import load_corpus, schema_from_json
from repro.engine import ValidatedDocument, compile_xsd, incremental
from repro.errors import ParseError, PatchError, SchemaError
from repro.observability import Tracer, default_registry, installed_tracer
from repro.observability.tracing import NULL_SPAN
from repro.paperdata import FIGURE1_XML, figure3_xsd
from repro.regex.ast import EPSILON, concat, interleave, optional, star, sym
from repro.translation import dfa_based_to_xsd
from repro.xmlmodel import (
    AddChild,
    Patch,
    RemoveChild,
    ReplaceChild,
    SetAttribute,
    SetText,
    clone_element,
    element,
    parse_document,
    parse_patch,
    random_op,
    snapshot_paths,
    write_document,
    write_patch,
)
from repro.xmlmodel.tree import XMLElement
from repro.xsd.content import ContentModel
from repro.xsd.model import XSD
from repro.xsd.typednames import TypedName
from repro.xsd.validator import validate_xsd
from tests.test_engine_batch_route import CORPUS_DIR
from tests.test_engine_differential import _setup


@pytest.fixture
def xsd():
    return figure3_xsd()


@pytest.fixture
def compiled(xsd):
    return compile_xsd(xsd)


def counter(name):
    return default_registry().counter(name).value


def assert_agrees(handle, xsd):
    """The handle's report must match a from-scratch tree validation."""
    reference = validate_xsd(xsd, handle.document)
    report = handle.report()
    assert handle.valid == reference.valid
    assert [str(v) for v in report.violations] == [
        str(v) for v in reference.violations
    ]
    assert report.typing == reference.typing


class TestBuild:
    def test_initial_walk_matches_tree_validator(self, xsd, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        assert handle.valid
        assert len(handle) == sum(1 for __ in handle.document.root.iter())
        assert_agrees(handle, xsd)

    def test_accepts_formal_xsd_and_bare_element(self, xsd):
        handle = ValidatedDocument(element("document"), xsd)
        assert not handle.valid  # document needs its three children
        assert_agrees(handle, xsd)

    def test_undeclared_root(self, xsd, compiled):
        handle = ValidatedDocument(parse_document("<stranger/>"), compiled)
        assert not handle.valid
        assert len(handle) == 0
        report = handle.report()
        assert "not declared" in report.violations[0]
        assert_agrees(handle, xsd)

    def test_provenance_records_type_and_state_path(self, xsd, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        root = handle.document.root
        type_name, states = handle.provenance_of(root)
        assert type_name == "T_document"
        assert len(states) == len(root.children) + 1
        assert handle.provenance_of(element("loose")) is None


class TestEditOps:
    def test_insert_valid_child(self, xsd, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        content = handle.node_at((2,))
        section = element("section", attributes={"title": "New"})
        handle.insert_child(content, len(content.children), section)
        assert handle.valid
        assert handle.provenance_of(section)[0] == "Tsection"
        assert_agrees(handle, xsd)

    def test_insert_stranger_then_delete_recovers(self, xsd, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        content = handle.node_at((2,))
        handle.insert_child(content, 0, element("stranger"))
        assert not handle.valid
        assert_agrees(handle, xsd)
        handle.delete_child(content, 0)
        assert handle.valid
        assert_agrees(handle, xsd)

    def test_delete_returns_detached_subtree(self, xsd, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        content = handle.node_at((2,))
        removed = handle.delete_child(content, 0)
        assert removed.name == "section"
        assert handle.provenance_of(removed) is None  # provenance dropped
        assert handle.valid
        assert_agrees(handle, xsd)

    def test_replace_root_rebuilds(self, xsd, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        old = handle.replace_subtree(
            handle.document.root,
            element("document", element("template"),
                    element("userstyles"), element("content")),
        )
        assert old.name == "document" and old.children
        assert handle.valid
        assert_agrees(handle, xsd)

    def test_replace_picks_the_identical_sibling(self, xsd, compiled):
        # Regression: list.index uses XMLElement *value* equality, so
        # with equal-valued siblings the wrong subtree was detached and
        # the replacement's provenance went missing.
        content = element(
            "content",
            element("section", attributes={"title": "twin"}),
            element("section", attributes={"title": "twin"}),
        )
        doc = element("document", element("template"),
                      element("userstyles"), content)
        handle = ValidatedDocument(doc, compiled)
        second = content.children[1]
        replacement = element("section", attributes={"title": "unique"})
        handle.replace_subtree(second, replacement)
        assert [c.attributes["title"] for c in content.children] == [
            "twin", "unique"
        ]
        assert handle.provenance_of(replacement) is not None
        assert_agrees(handle, xsd)

    def test_replace_child_by_index(self, xsd, compiled):
        content = element(
            "content",
            element("section", attributes={"title": "twin"}),
            element("section", attributes={"title": "twin"}),
            "between",
        )
        handle = ValidatedDocument(
            element("document", element("template"), element("userstyles"),
                    content),
            compiled,
        )
        old = content.children[1]
        texts = list(content.texts)
        replacement = element("stranger")
        assert handle.replace_child(content, 1, replacement) is old
        assert old.parent is None and replacement.parent is content
        assert content.children[1] is replacement and content.texts == texts
        assert handle.provenance_of(old) is None
        assert_agrees(handle, xsd)
        assert handle.replace_child(content, 1, _section("back")) is \
            replacement
        assert_agrees(handle, xsd)
        with pytest.raises(IndexError):
            handle.replace_child(content, 2, _section())
        with pytest.raises(SchemaError, match="already has a parent"):
            handle.replace_child(content, 0, content.children[1])
        assert [c.attributes["title"] for c in content.children] == [
            "twin", "back"]
        assert_agrees(handle, xsd)

    def test_replace_of_a_root_with_an_outside_parent(self, xsd, compiled):
        root = parse_document(FIGURE1_XML).root
        outer = element("wrapper", root)
        handle = ValidatedDocument(root, compiled)
        replacement = element("document", element("template"),
                              element("userstyles"), element("content"))
        assert handle.replace_subtree(root, replacement) is root
        assert handle.document.root is replacement
        assert outer.children == [root]
        assert handle.valid
        assert_agrees(handle, xsd)

    def test_set_attribute_add_and_remove(self, xsd, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        section = handle.node_at((2, 0))
        handle.set_attribute(section, "title", None)  # drop required attr
        assert not handle.valid
        assert_agrees(handle, xsd)
        handle.set_attribute(section, "title", "Restored")
        assert handle.valid
        assert_agrees(handle, xsd)

    def test_set_text_in_non_mixed_element(self, xsd, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        template = handle.node_at((0,))
        handle.set_text(template, "stray prose")
        assert not handle.valid  # T_template is not mixed
        assert_agrees(handle, xsd)
        handle.set_text(template, "")
        assert handle.valid
        assert_agrees(handle, xsd)

    def test_set_text_index_out_of_range(self, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        with pytest.raises(SchemaError):
            handle.set_text(handle.node_at((0,)), "x", index=99)

    def test_node_at_raises_patch_error(self, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        with pytest.raises(PatchError, match="does not exist"):
            handle.node_at((0, 0, 7))

    def test_edit_in_skipped_subtree_is_structural_only(self, xsd,
                                                        compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        content = handle.node_at((2,))
        stranger = element("stranger")
        handle.insert_child(content, 0, stranger)
        # Below an unrecognized element nothing is typed; edits there
        # still apply structurally and the verdicts keep agreeing.
        handle.insert_child(stranger, 0, element("bold"))
        assert handle.provenance_of(stranger.children[0]) is None
        assert_agrees(handle, xsd)


class TestFootprint:
    def test_memo_replay_on_tail_edit(self, compiled):
        # Editing at the end of a long content word must replay the
        # memoized DFA prefix instead of re-running it.
        content = element("content")
        for index in range(50):
            content.append(
                element("section", attributes={"title": f"s{index}"})
            )
        doc = element("document", element("template"),
                      element("userstyles"), content)
        handle = ValidatedDocument(doc, compiled)
        before = counter("engine.incremental.memo_hits")
        handle.insert_child(
            content, 50, element("section", attributes={"title": "tail"})
        )
        assert counter("engine.incremental.memo_hits") == before + 1

    def test_edit_elsewhere_keeps_sibling_provenance(self, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        untouched = handle.node_at((0,))  # <template>
        before = handle.provenance_of(untouched)
        handle.insert_child(
            handle.node_at((2,)), 0,
            element("section", attributes={"title": "New"}),
        )
        assert handle.provenance_of(untouched) == before


class TestPatchLayer:
    PINNED = """\
<patch>
  <add sel="2"><section title="Appendix"/></add>
  <replace sel="2/0/0"><bold>bolder</bold></replace>
  <replace sel="2/1" type="@title">Summary</replace>
  <remove sel="0/0/1"/>
  <replace sel="1/0" type="text()">illegal text</replace>
</patch>
"""

    def test_modes_agree_on_pinned_patch(self, xsd, compiled):
        patch = parse_patch(self.PINNED)
        full_doc = parse_document(FIGURE1_XML)
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        patch.apply_full(full_doc)
        patch.apply_incremental(handle)
        reference = validate_xsd(xsd, full_doc)
        report = handle.report()
        assert write_document(handle.document) == write_document(full_doc)
        assert report.valid == reference.valid is False
        assert [str(v) for v in report.violations] == [
            str(v) for v in reference.violations
        ]
        assert report.typing == reference.typing

    def test_roundtrip_is_a_fixed_point(self):
        patch = parse_patch(self.PINNED)
        assert len(patch) == 5
        assert write_patch(parse_patch(write_patch(patch))) == write_patch(
            patch
        )

    def test_ops_serialize_by_type(self):
        ops = [
            AddChild((2,), element("section"), index=0),
            RemoveChild((0, 1)),
            ReplaceChild((1,), element("userstyles")),
            SetAttribute((2, 0), "title", "New"),
            SetAttribute((2, 0), "title", None),
            SetText((0,), "words", index=0),
        ]
        reparsed = parse_patch(write_patch(Patch(ops)))
        assert [type(op) for op in reparsed] == [type(op) for op in ops]

    def test_bad_patches_raise_patch_error(self):
        for text in (
            "<notapatch/>",
            "<patch><frobnicate sel='0'/></patch>",
            "<patch><add sel='x/y'><a/></add></patch>",
            "<patch><add sel='0'/></patch>",  # payload missing
            "<patch><remove sel=''/></patch>",  # root removal forbidden
        ):
            with pytest.raises(PatchError):
                patch = parse_patch(text)
                patch.apply_full(parse_document(FIGURE1_XML))

    def test_missing_target_raises_patch_error(self, compiled):
        patch = parse_patch(
            "<patch><remove sel='0/9'/></patch>"
        )
        with pytest.raises(PatchError, match="does not exist"):
            patch.apply_full(parse_document(FIGURE1_XML))
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        with pytest.raises(PatchError, match="does not exist"):
            patch.apply_incremental(handle)

    def test_replace_ops_address_their_target_by_index(self, xsd, compiled,
                                                       monkeypatch):
        def scan(*__):
            raise AssertionError("ReplaceChild scanned for its target")

        monkeypatch.setattr(XMLElement, "replace_child", scan)
        patch = Patch([ReplaceChild((2, 1), _section("swapped")),
                       ReplaceChild((2, 0, 1), element("stranger")),
                       ReplaceChild((), parse_document(FIGURE1_XML).root)])
        for ops in (patch.ops[:2], patch.ops):
            full_doc = parse_document(FIGURE1_XML)
            handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
            Patch(ops).apply_full(full_doc)
            Patch(ops).apply_incremental(handle)
            assert write_document(handle.document) == write_document(
                full_doc)
            assert_agrees(handle, xsd)

    def test_clone_element_is_deep_and_parentless(self):
        original = parse_document(FIGURE1_XML).root
        copy = clone_element(original)
        assert copy is not original and copy == original
        assert copy.parent is None
        copy.children[0].attributes["tampered"] = "yes"
        assert "tampered" not in original.children[0].attributes


class TestRandomStormAgreement:
    def test_seeded_storm_agrees_after_every_op(self, xsd, compiled):
        rng = random.Random("unit-storm")
        labels = list(compiled.names) + ["zz-stranger"]
        full_doc = parse_document(FIGURE1_XML)
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        for __ in range(60):
            op = random_op(full_doc.root, rng, labels)
            op.apply_full(full_doc)
            op.apply_incremental(handle)
            reference = validate_xsd(xsd, full_doc)
            report = handle.report()
            assert report.valid == reference.valid
            assert sorted(str(v) for v in report.violations) == sorted(
                str(v) for v in reference.violations
            )
            assert report.typing == reference.typing

    def test_snapshot_sampling_matches_fresh_walks(self):
        doc = parse_document(FIGURE1_XML)
        nodes = snapshot_paths(doc.root)
        assert len(nodes) == sum(1 for __ in doc.root.iter())
        rng = random.Random("snapshot")
        op = random_op(doc.root, rng, ["section"], nodes=nodes)
        op.apply_full(doc)  # structurally applicable by construction


def _sections(count, text_after=""):
    """A Figure 3 document whose ``<content>`` holds ``count`` sections,
    each followed by ``text_after``; returns ``(root, content)``."""
    content = element("content")
    for index in range(count):
        content.append(
            element("section", attributes={"title": f"s{index}"}),
            text_after,
        )
    root = element("document", element("template"), element("userstyles"),
                   content)
    return root, content


def _section(title="new", *children):
    return element("section", *children, attributes={"title": title})


class TestChildEditText:
    """A child edit re-checks its parent's text only when an insert
    brings a non-blank ``text_after``: whether some run is non-blank
    survives a delete (which merges two runs) and a replace (which keeps
    them)."""

    def test_non_blank_text_after_raises_the_text_violation(self, xsd,
                                                            compiled):
        root, content = _sections(3)
        handle = ValidatedDocument(root, compiled)
        handle.insert_child(content, 1, _section(), text_after="\n ")
        assert handle.valid  # a blank run is no text
        handle.insert_child(content, 1, _section(), text_after=" stray ")
        assert not handle.valid
        assert handle.report().violations == [
            "/document/content: element <content> (type T_content) may "
            "not contain text"
        ]
        assert_agrees(handle, xsd)

    def test_delete_and_replace_keep_a_non_blank_run(self, xsd, compiled):
        root, content = _sections(3)
        handle = ValidatedDocument(root, compiled)
        handle.insert_child(content, 2, _section(), text_after="stray")
        assert_agrees(handle, xsd)
        # The run after child 2 merges into the one before it.
        handle.delete_child(content, 2)
        assert content.texts[2] == "stray"
        assert not handle.valid
        assert_agrees(handle, xsd)
        handle.replace_subtree(content.children[1], _section("swapped"))
        assert not handle.valid
        assert_agrees(handle, xsd)
        # A delete that merges the non-blank run with a blank one.
        handle.delete_child(content, 1)
        assert not handle.valid
        assert_agrees(handle, xsd)
        handle.set_text(content, "", content.texts.index("stray"))
        assert handle.valid
        assert_agrees(handle, xsd)

    def test_child_edits_under_a_wide_parent_never_scan_text(
            self, xsd, compiled, monkeypatch):
        root, content = _sections(10_000, text_after="\n  ")
        handle = ValidatedDocument(root, compiled)
        scanned = []
        has_text = XMLElement.has_text
        monkeypatch.setattr(XMLElement, "has_text",
                            lambda node: scanned.append(node) or
                            has_text(node))
        handle.insert_child(content, 5_000, _section(), text_after="\n")
        handle.delete_child(content, 5_000)
        handle.replace_subtree(content.children[0], _section("swapped"))
        handle.insert_child(content, 0, element("stranger"))
        handle.delete_child(content, 0)
        assert scanned == []
        monkeypatch.undo()
        assert handle.valid
        assert_agrees(handle, xsd)


class TestEditSpans:
    """Edit spans carry the new subtree's size only when recorded."""

    def test_no_subtree_walk_without_a_tracer(self, compiled, monkeypatch):
        root, content = _sections(2)
        handle = ValidatedDocument(root, compiled)
        walked = []
        walk = XMLElement.iter
        monkeypatch.setattr(XMLElement, "iter",
                            lambda node: walked.append(node) or walk(node))
        inserted = _section("a", element("bold"))
        handle.insert_child(content, 0, inserted)
        replacement = _section("b", element("italic"))
        handle.replace_subtree(content.children[1], replacement)
        assert not any(node is inserted or node is replacement
                       for node in walked)

    def test_a_tracer_still_sees_the_subtree_size(self, compiled):
        root, content = _sections(2)
        handle = ValidatedDocument(root, compiled)
        tracer = Tracer()
        with installed_tracer(tracer):
            handle.insert_child(content, 0, _section("a", element("bold")))
            handle.replace_subtree(
                content.children[1],
                _section("b", element("italic"), _section("c")),
            )
        edits = [(span.attributes["op"], span.attributes["subtree"])
                 for span in tracer.finished_spans()
                 if span.name == "engine.incremental.edit"]
        assert edits == [("insert_child", 2), ("replace_subtree", 3)]

    @staticmethod
    def _replayed(tracer):
        return [(span.attributes["op"], span.attributes.get("replayed"))
                for span in tracer.finished_spans()
                if span.name == "engine.incremental.edit"]

    def test_edits_under_a_wide_parent_replay_at_most_two(self, compiled):
        root, content = _sections(3_000)
        handle = ValidatedDocument(root, compiled)
        handle.insert_child(content, 1, element("stranger"))
        tracer = Tracer()
        with installed_tracer(tracer):
            handle.replace_child(content, 2_990, _section("swapped"))
            handle.replace_subtree(content.children[5], element("stranger"))
            handle.insert_child(content, 1_500, _section("inserted"))
            handle.delete_child(content, 1)
            handle.delete_child(content, 2_000)
        replayed = self._replayed(tracer)
        assert [op for op, __ in replayed] == [
            "replace_subtree", "replace_subtree", "insert_child",
            "delete_child", "delete_child"]
        assert all(count <= 2 for __, count in replayed)

    def test_a_member_inserted_into_a_bag_replays_the_rest(self):
        xsd, compiled = _wide_schema()
        root = _wide_root("bag", 40)
        handle = ValidatedDocument(root, compiled)
        tracer = Tracer()
        with installed_tracer(tracer):
            handle.insert_child(root, 10, element("c"))
            handle.delete_child(root, 30)
        assert self._replayed(tracer) == [("insert_child", 31),
                                          ("delete_child", 10)]
        assert_agrees(handle, xsd)

    def test_no_replay_count_without_a_tracer(self, compiled, monkeypatch):
        root, content = _sections(50)
        handle = ValidatedDocument(root, compiled)
        keys = []
        monkeypatch.setattr(type(NULL_SPAN), "set_attribute",
                            lambda span, key, value: keys.append(key))
        handle.insert_child(content, 10, _section())
        handle.replace_child(content, 10, element("stranger"))
        handle.replace_subtree(content.children[20], _section())
        handle.delete_child(content, 10)
        assert keys == ["op"] * 4


def _empty(name):
    return sym(TypedName(name, "Te"))


_WIDE = {}


def _wide_schema():
    """``(formal XSD, compiled)`` with two roots: ``p`` holds ``(a, b)*``
    (an insert shifts the parity, and the run never rejoins) and ``g``
    the bag ``a* & b* & c?``."""
    if not _WIDE:
        xsd = XSD(
            ename={"p", "g", "a", "b", "c"},
            types={"Tpar", "Tbag", "Te"},
            rho={
                "Tpar": ContentModel(star(concat(_empty("a"),
                                                 _empty("b")))),
                "Tbag": ContentModel(interleave(star(_empty("a")),
                                                star(_empty("b")),
                                                optional(_empty("c")))),
                "Te": ContentModel(EPSILON),
            },
            start={TypedName("p", "Tpar"), TypedName("g", "Tbag")},
        )
        _WIDE["schema"] = xsd, compile_xsd(xsd)
    return _WIDE["schema"]


def _wide_root(kind, width, strays=()):
    """``<p>`` (``kind`` "parity") or ``<g>`` ("bag") over ``a b a b ...``
    (the bag's fourth child a ``c``), with a ``<z/>`` stray inserted at
    each of the ``strays`` positions in turn."""
    names = ["a", "b"] * (width // 2)
    if kind == "bag":
        names[3] = "c"
    for index in strays:
        names.insert(index, "z")
    return element("g" if kind == "bag" else "p",
                   *(element(name) for name in names))


def _recognized_path(compiled_type, node):
    """The run over ``node``'s recognized children alone, stepped by
    the automaton's own ``step``."""
    content = compiled_type.dfa
    path = [0]
    for child in node.children:
        column = content.symbol_ids.get(child.name, -1)
        if compiled_type.child_types[column] >= 0:
            path.append(content.step(path[-1], column))
    return tuple(path)


def _assert_derived_paths(handle):
    """Both provenance readers report one state per recognized child."""
    typed = [node for node in handle.document.root.iter()
             if node.record is not None]
    entries = handle.provenance()
    assert len(entries) == len(typed)
    for node, entry in zip(typed, entries):
        expected = _recognized_path(
            handle.schema.types[node.record.type_id], node)
        assert handle.provenance_of(node)[1] == entry.dfa_states == expected


def _assert_lean(handle):
    """Clean records hold the shared empties, which stay empty; every
    record counts its strays over a path aligned with its children.  A
    shared leaf record is held by leaves alone, is its handle's one
    record for its type, holds the empties and the type's verdict on the
    empty word, and refuses writes."""
    assert incremental._LEAF_STATES == (0,)
    for node in handle.document.root.iter():
        state = node.record
        if state is None:
            continue
        if state.__class__ is incremental._LeafRecord:
            assert not node.children
            assert state is handle._leaves[state.type_id]
            assert state.states is incremental._LEAF_STATES
            assert (state.strays, state.text_viol, state.attr_viols) == (
                0, None, ())
            assert state.rejected == (not handle.schema.types[
                state.type_id].dfa.is_accepting(0))
            with pytest.raises(AttributeError):
                state.strays = 0
        assert state.strays == sum(
            child.record is None for child in node.children)
        assert len(state.states) == len(node.children) + 1
        if not state.attr_viols:
            assert state.attr_viols == ()
        if id(node) not in handle._invalid:
            assert state.strays == 0 and state.rejected is False
            assert state.attr_viols == () and state.text_viol is None


class TestLeanRecords:
    """Records share immutable empties and derive their slash paths."""

    def test_a_fresh_open_shares_the_empties(self, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        leaves = [node for node in handle.document.root.iter()
                  if not node.children]
        assert leaves
        for leaf in leaves:
            state = leaf.record
            assert state.states is incremental._LEAF_STATES
            assert state.strays == 0 and state.attr_viols == ()
        assert not any(hasattr(node.record, field)
                       for node in handle.document.root.iter()
                       for field in ("path", "child_viols", "content_viol"))
        _assert_lean(handle)

    def test_shared_empties_survive_edits_on_leaves(self, xsd, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        leaves = [node for node in handle.document.root.iter()
                  if not node.children]
        innermost = handle.node_at((0, 0, 2, 1))  # template's <section/>
        assert not innermost.children
        # An insert under a leaf.
        handle.insert_child(innermost, 0, element("titlefont"))
        assert handle.provenance_of(innermost)[1] != (0,)
        _assert_lean(handle)
        assert_agrees(handle, xsd)
        # Deleting a leaf's only child.
        handle.delete_child(innermost, 0)
        assert handle.provenance_of(innermost)[1] == (0,)
        _assert_lean(handle)
        assert_agrees(handle, xsd)
        # set_attribute and set_text on clean leaves, there and back.
        color = handle.node_at((0, 0, 1, 1))
        handle.set_attribute(color, "bogus", "1")
        handle.set_text(color, "stray")
        assert not handle.valid
        assert_agrees(handle, xsd)
        handle.set_attribute(color, "bogus", None)
        handle.set_text(color, "")
        assert handle.valid
        _assert_lean(handle)
        assert_agrees(handle, xsd)
        for leaf in leaves:
            if leaf is not innermost:
                assert handle.provenance_of(leaf)[1] == (0,)
                assert leaf.record.states == (0,)

    def test_leaf_records_test_the_empty_word(self, compiled):
        # T_document (ordered) and the 24-member bag both reject the
        # empty word; T_content accepts it.
        handle = ValidatedDocument(element("document"), compiled)
        assert not handle.valid
        assert handle.report().violations == [
            "/document: children of <document> [none] do not match the "
            "content model of type T_document"
        ]
        root, __ = _sections(0)
        assert ValidatedDocument(root, compiled).valid
        xsd24, compiled24, *__ = _setup("all24")
        record = ValidatedDocument(element("rec", attributes={"id": "r"}),
                                   compiled24)
        assert not record.valid
        assert_agrees(record, xsd24)

    @staticmethod
    def _deep_invalid():
        """Figure 3 with a broken template section seven levels down."""
        bottom = element("section",
                         element("titlefont", attributes={"bogus": "1"}),
                         element("stranger"), text="stray")
        node = element("section", bottom, element("titlefont"),
                       element("titlefont"))
        for __ in range(4):
            node = element("section", node)
        return element("document", element("template", node),
                       element("userstyles"), element("content"))

    def _assert_paths(self, handle, xsd):
        assert_agrees(handle, xsd)
        entries = handle.provenance()
        assert entries
        for entry in entries:
            assert entry.path == re.sub(r"\[\d+\]", "", entry.typed_path)
        return entries

    def test_deep_paths_match_the_eager_ones(self, xsd, compiled):
        root = self._deep_invalid()
        handle = ValidatedDocument(root, compiled)
        entries = self._assert_paths(handle, xsd)
        deepest = max(entries, key=lambda entry: entry.path.count("/"))
        assert deepest.path == ("/document/template/section/section/"
                                "section/section/section/section/"
                                "titlefont")
        violations = handle.report().violations
        assert len(violations) == 4
        assert all(v.startswith("/document/template/section/section/")
                   for v in violations)
        bottom = handle.node_at((0, 0, 0, 0, 0, 0))
        handle.set_attribute(bottom, "title", "x")
        handle.insert_child(bottom, 0, element("wrong"))
        handle.set_text(bottom, "more", 1)
        self._assert_paths(handle, xsd)

    def test_paths_start_at_the_handle_root(self, xsd, compiled):
        root = self._deep_invalid()
        outer = element("wrapper", element("other", root))
        assert root.parent is not None
        handle = ValidatedDocument(root, compiled)
        entries = self._assert_paths(handle, xsd)
        assert entries[0].path == "/document"
        bottom = handle.node_at((0, 0, 0, 0, 0, 0))
        handle.set_attribute(bottom, "lost", "1")
        handle.insert_child(bottom, 0, element("wrong"), text_after="t")
        entries = self._assert_paths(handle, xsd)
        assert all(entry.path.startswith("/document") for entry in entries)
        assert all(v.startswith("/document/")
                   for v in handle.report().violations)
        assert outer.children[0].children[0] is root

    def test_paths_follow_a_root_replacement(self, xsd, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        handle.replace_subtree(handle.document.root, self._deep_invalid())
        self._assert_paths(handle, xsd)
        handle.replace_subtree(
            handle.document.root,
            element("document", element("template"),
                    element("userstyles", element("style")),
                    element("content")),
        )
        assert handle.report().violations == [
            "/document/userstyles/style: element <style> is missing "
            "required attribute 'name'"
        ]
        self._assert_paths(handle, xsd)


class TestRejoin:
    """Child edits replay until the run rejoins the memo.

    Seeded storms over a parent with 2,000 children and eight strays:
    insert, delete and replace at the first, middle and last positions
    and on a stray, then every stray deleted, then the same again.
    After every op the report equals ``validate_xsd``'s in order, the
    provenance equals a fresh open's, and the records stay lean.
    """

    WIDTH = 2_000

    def _strays(self):
        width = self.WIDTH
        return (1, 2, width // 4, width // 2, width // 2 + 1,
                3 * width // 4, width - 2, width + 7)

    def _storm(self, xsd, compiled, root, parent_path, labels, seed):
        rng = random.Random(f"rejoin:{seed}")
        handle = ValidatedDocument(root, compiled)
        parent = handle.node_at(parent_path)

        def check():
            reference = validate_xsd(xsd, handle.document)
            report = handle.report()
            assert handle.valid == reference.valid
            assert report.violations == [
                str(v) for v in reference.violations]
            assert report.typing == reference.typing
            fresh = ValidatedDocument(
                clone_element(handle.document.root), compiled)
            assert [entry.to_dict() for entry in handle.provenance()] == [
                entry.to_dict() for entry in fresh.provenance()]
            _assert_lean(handle)

        def apply(kind, where):
            children = parent.children
            strays = [index for index, child in enumerate(children)
                      if child.record is None]
            if where == "stray" and strays:
                index = rng.choice(strays)
            elif where == "first":
                index = 0
            elif where == "last":
                index = len(children) - (kind != "insert")
            else:
                index = len(children) // 2
            new = element(rng.choice(labels))
            if kind == "insert":
                handle.insert_child(parent, index, new)
            elif kind == "delete":
                handle.delete_child(parent, index)
            else:
                handle.replace_child(parent, index, new)
            check()

        check()
        plan = [(kind, where) for kind in ("insert", "delete", "replace")
                for where in ("first", "middle", "last", "stray")]
        for __ in range(2):
            rng.shuffle(plan)
            for kind, where in plan:
                apply(kind, where)
            while any(child.record is None for child in parent.children):
                apply("delete", "stray")
            assert parent.record.strays == 0
        return handle

    def test_section_star_rejoins_at_once(self, xsd, compiled):
        root, content = _sections(self.WIDTH)
        for index in self._strays():
            content.insert(index, element("stranger"))
        self._storm(xsd, compiled, root, (2,), ["section", "stranger"],
                    "section*")

    def test_parity_rejoins_late_or_never(self):
        xsd, compiled = _wide_schema()
        root = _wide_root("parity", self.WIDTH, self._strays())
        self._storm(xsd, compiled, root, (), ["a", "b", "z"], "parity")

    def test_a_bag_replays_to_the_end(self):
        xsd, compiled = _wide_schema()
        assert compiled.types[compiled.start["g"]].bag is not None
        root = _wide_root("bag", self.WIDTH, self._strays())
        self._storm(xsd, compiled, root, (), ["a", "b", "c", "z"], "bag")


class TestDerivedPaths:
    """On words with strays, provenance reports the recognized-only
    path: ``states[0]`` and the state after each typed child."""

    def _edits(self, handle, parent, recognized, stray):
        _assert_derived_paths(handle)
        steps = [
            lambda: handle.insert_child(parent, 1, element(stray)),
            lambda: handle.insert_child(parent, len(parent.children),
                                        element(stray)),
            lambda: handle.replace_child(parent, 2, element(stray)),
            lambda: handle.replace_child(parent, 1, element(recognized)),
            lambda: handle.replace_child(parent, 2, element(stray)),
            lambda: handle.delete_child(parent, 2),
            lambda: handle.insert_child(parent, 0, element(stray)),
            lambda: handle.delete_child(parent, len(parent.children) - 1),
            lambda: handle.delete_child(parent, 0),
        ]
        for step in steps:
            step()
            _assert_derived_paths(handle)
        return handle

    def test_figure3(self, xsd, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        section = handle.node_at((2, 0))  # mixed, five children
        self._edits(handle, section, "bold", "stranger")
        assert_agrees(handle, xsd)
        self._edits(handle, handle.node_at((2,)), "section", "stranger")
        assert_agrees(handle, xsd)

    @pytest.mark.parametrize("kind", ["parity", "bag"])
    def test_wide_models(self, kind):
        xsd, compiled = _wide_schema()
        handle = ValidatedDocument(_wide_root(kind, 12, (5,)), compiled)
        self._edits(handle, handle.document.root, "b", "z")
        assert_agrees(handle, xsd)


def _compiled_corpus():
    """``(label, formal XSD, compiled, root)`` for every committed
    conformance-corpus document that parses."""
    out = []
    for case in load_corpus(CORPUS_DIR):
        if case.document is None:
            continue
        schema = schema_from_json(case.schema)
        if not isinstance(schema, XSD):
            schema = dfa_based_to_xsd(schema)
        try:
            root = parse_document(case.document).root
        except ParseError:
            continue
        out.append((case.case_id, schema, compile_xsd(schema), root))
    return out


def _generated_inputs():
    """``(label, formal XSD, compiled, root)`` for three generated
    documents of each differential-suite schema."""
    inputs = []
    for key in ("figure3", "sections", "inventory", "all24"):
        xsd, compiled, generator, *__ = _setup(key)
        rng = random.Random(f"lean-records:{key}")
        for index in range(3):
            document = generator.generate(rng, max_depth=4, max_children=5)
            inputs.append((f"{key}-{index}", xsd, compiled, document.root))
    return inputs


def _storm_records(inputs, ops):
    """Seeded ``ops``-op storms over ``inputs``: for every document and
    after every op, the provenance entries (``to_dict``) and the
    violations in order.

    Each snapshot is also checked against a fresh open of a copy of the
    tree and against ``validate_xsd``; returns the snapshots.
    """
    snapshots = []
    for label, xsd, compiled, root in inputs:
        rng = random.Random(f"lean-records:{label}")
        labels = list(compiled.names) + ["zz-stranger"]
        handle = ValidatedDocument(clone_element(root), compiled)
        for step in range(ops + 1):
            if step:
                random_op(handle.document.root, rng,
                          labels).apply_incremental(handle)
            entries = [entry.to_dict() for entry in handle.provenance()]
            fresh = ValidatedDocument(
                clone_element(handle.document.root), compiled)
            assert entries == [entry.to_dict()
                               for entry in fresh.provenance()], label
            for entry in entries:
                assert entry["path"] == re.sub(
                    r"\[\d+\]", "", entry["typed_path"])
            violations = list(handle.report().violations)
            assert violations == [
                str(v) for v in validate_xsd(xsd, handle.document).violations
            ], label
            snapshots.append([label, step, entries, violations])
    return snapshots


# sha256 of the corpus snapshots' sorted-key JSON, taken while every
# record still held its slash path and its own empty lists (the eager
# records): the lean records must give the same entries, state paths
# and violation order on the same storms.  Only the committed corpus is
# pinned: generated documents may follow PYTHONHASHSEED (ROADMAP item 1).
PINNED_RECORDS = (
    "f447c78ed9d56f6968b246eada2559e0dc0a2ea62236312a8c53a339352a5c97"
)


def test_records_equal_the_eager_records_on_corpus_storms():
    snapshots = _storm_records(_compiled_corpus(), ops=24)
    assert len(snapshots) >= 200
    digest = hashlib.sha256(
        json.dumps(snapshots, sort_keys=True).encode("utf-8")
    ).hexdigest()
    assert digest == PINNED_RECORDS


def test_records_equal_fresh_opens_on_generated_storms():
    assert len(_storm_records(_generated_inputs(), ops=12)) == 12 * 13
