"""Leaves share their empties and their records.

Every tree builder gives a leaf the shared empty tuple as its children
and, when it holds no text, the shared ``("",)`` run; every writer swaps
in lists of the node's own on its first write and leaves every other
leaf's empties alone.  A :class:`ValidatedDocument` gives every leaf
whose attributes and text pass its type's one read-only record, and an
edit that must write such a record gives its element a record of its
own first, so no other leaf's record, verdict or provenance moves.
"""

import random

import pytest

from repro.engine import ValidatedDocument, compile_xsd, incremental
from repro.paperdata import FIGURE1_XML, figure3_xsd
from repro.resilience import ParserLimits
from repro.xmlmodel import (
    SetText,
    XMLDocument,
    clone_element,
    element,
    parse_document,
    random_op,
)
from repro.xmlmodel.parser import iter_events
from repro.xmlmodel.tokenizer import fold_tree
from repro.xmlmodel.tree import _LEAF_TEXTS, XMLElement
from tests.test_engine_incremental import _assert_lean

SHARED = incremental._LeafRecord
NO_CHILDREN = ()  # the empty tuple is one object in CPython

DOCUMENT = ('<r a="1"><x/><y></y><z>text</z><w><v/></w>'
            '<u>lead<t/>tail</u></r>')


def _leaves(root):
    return [node for node in root.iter() if not node.children]


def _assert_shared_empties(root):
    """Every leaf holds the shared ``()``; one without text holds the
    shared run, one with text a one-run list of its own."""
    for leaf in _leaves(root):
        assert leaf.children is NO_CHILDREN
        if leaf.texts[0]:
            assert leaf.texts.__class__ is list and len(leaf.texts) == 1
        else:
            assert leaf.texts is _LEAF_TEXTS
    for node in root.iter():
        if node.children:
            assert node.children.__class__ is list
            assert node.texts.__class__ is list


def _constructed():
    return element(
        "r",
        element("x"), element("y"), element("z", text="text"),
        element("w", element("v")),
        element("u", "lead", element("t"), "tail"),
        attributes={"a": "1"},
    )


def _folded():
    return fold_tree(DOCUMENT.encode("utf-8"), ParserLimits())


def _char_tier():
    return XMLElement.from_events(iter_events(DOCUMENT))


BUILDERS = {
    "XMLElement()": lambda: XMLElement("x", {"a": "1"}),
    "XMLElement(text=)": lambda: XMLElement("x", text="t"),
    "element()": _constructed,
    "from_events": _char_tier,
    "fold_tree": _folded,
    "parse_document": lambda: parse_document(DOCUMENT).root,
    "clone_element": lambda: clone_element(_folded()),
}


class TestSharedEmpties:
    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_every_builder_shares_the_leaf_empties(self, builder):
        root = BUILDERS[builder]()
        _assert_shared_empties(root)
        if root.children:
            assert sum(leaf.texts is _LEAF_TEXTS
                       for leaf in _leaves(root)) == 4

    def test_folded_char_tier_and_constructed_trees_compare_equal(self):
        trees = [_folded(), _char_tier(), _constructed(),
                 clone_element(_constructed())]
        for tree in trees[1:]:
            assert tree == trees[0]
            assert XMLDocument(tree) == XMLDocument(trees[0])

    def test_shared_and_listed_empties_compare_by_value(self):
        shared = XMLElement("a")
        listed = XMLElement("a")
        listed.append(XMLElement("b"))
        listed.remove_child(0)
        assert shared.texts is _LEAF_TEXTS and listed.texts == [""]
        assert shared.children == () and listed.children == []
        assert shared == listed and listed == shared
        listed.append_text("x")
        assert shared != listed and listed != shared

    def test_from_events_concatenates_text_runs_of_a_leaf(self):
        node = XMLElement.from_events([
            ("start", "a", {}), ("text", "x"), ("text", "y"),
            ("start", "b", {}), ("end", "b"), ("text", "z"),
            ("end", "a"),
        ])
        assert node.texts == ["xy", "z"]
        assert node.children[0].texts is _LEAF_TEXTS


def _write_append(node):
    node.append(XMLElement("new"), "after")


def _write_insert(node):
    node.insert(0, XMLElement("new"), "after")


def _write_append_text(node):
    node.append_text("more")


def _write_set_run(node):
    node.set_run(0, "set")


def _write_set_text(node):
    handle = ValidatedDocument(node.parent, compile_xsd(figure3_xsd()))
    handle.set_text(node, "set")


def _write_apply_full(node):
    path = []
    while node.parent is not None:
        path.append(node.parent.children.index(node))
        node = node.parent
    SetText(tuple(reversed(path)), "set").apply_full(XMLDocument(node))


LEAF_WRITERS = {
    "append": _write_append,
    "insert": _write_insert,
    "append_text": _write_append_text,
    "set_run": _write_set_run,
    "ValidatedDocument.set_text": _write_set_text,
    "SetText.apply_full": _write_apply_full,
}


class TestWriters:
    @pytest.mark.parametrize("writer", list(LEAF_WRITERS))
    def test_a_write_to_a_leaf_swaps_in_lists_of_its_own(self, writer):
        root = _folded()
        x, y = root.children[0], root.children[1]
        assert x.texts is _LEAF_TEXTS and y.texts is _LEAF_TEXTS
        LEAF_WRITERS[writer](x)
        assert x.texts.__class__ is list
        assert len(x.texts) == len(x.children) + 1
        if x.children:
            assert x.children.__class__ is list
        # The other leaves still share the empties, which stay empty.
        assert y.children is NO_CHILDREN and y.texts is _LEAF_TEXTS
        assert _LEAF_TEXTS == ("",)
        _assert_shared_empties(root.children[3])

    @pytest.mark.parametrize("writer", ["remove_child", "replace_child_at"])
    def test_a_parent_write_leaves_the_moved_leaves_shared(self, writer):
        root = _folded()
        parent = root.children[3]  # <w><v/></w>
        leaf = parent.children[0]
        if writer == "remove_child":
            assert parent.remove_child(0) is leaf
            assert parent.children == [] and parent.texts == [""]
        else:
            replacement = XMLElement("n")
            assert parent.replace_child_at(0, replacement) is leaf
            assert parent.children == [replacement]
            assert replacement.texts is _LEAF_TEXTS
        assert leaf.children is NO_CHILDREN and leaf.texts is _LEAF_TEXTS
        assert root.children[0].texts is _LEAF_TEXTS
        # A leaf whose last child left holds lists; the next write works.
        parent.append(XMLElement("again"), "t")
        assert [child.name for child in parent.children][-1] == "again"
        assert parent.texts[-1] == "t"

    def test_a_leaf_with_text_keeps_its_own_list(self):
        leaf = XMLElement("a", text="x")
        texts = leaf.texts
        leaf.set_run(0, "y")
        assert leaf.texts is texts and texts == ["y"]


@pytest.fixture(scope="module")
def compiled():
    return compile_xsd(figure3_xsd())


def _template_fonts(handle):
    """The four TtemplateFont leaves of Figure 1 (two titlefonts, two
    fonts), which share one record."""
    return [node for node in handle.document.root.iter()
            if not node.children
            and handle.provenance_of(node)[0] == "TtemplateFont"]


def _others(handle, edited):
    """Every typed element but ``edited``: its record, verdict and
    provenance."""
    return {
        id(node): (node.record, id(node) in handle._invalid,
                   handle.provenance_of(node))
        for node in handle.document.root.iter()
        if node is not edited and node.record is not None
    }


def _assert_fresh(handle, compiled):
    fresh = ValidatedDocument(clone_element(handle.document.root), compiled)
    report, expected = handle.report(), fresh.report()
    assert handle.valid == fresh.valid
    assert report.violations == expected.violations
    assert report.typing == expected.typing
    assert [entry.to_dict() for entry in handle.provenance()] == [
        entry.to_dict() for entry in fresh.provenance()]
    assert len(handle) == len(fresh)


class TestSharedRecords:
    def test_clean_leaves_of_a_type_share_one_read_only_record(
            self, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        fonts = _template_fonts(handle)
        assert len(fonts) == 4
        records = {id(leaf.record) for leaf in fonts}
        assert len(records) == 1
        record = fonts[0].record
        assert record.__class__ is SHARED
        assert record.states is incremental._LEAF_STATES
        assert (record.strays, record.rejected, record.text_viol,
                record.attr_viols) == (0, False, None, ())
        for field in ("type_id", "states", "strays", "rejected",
                      "text_viol", "attr_viols"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(record, field, getattr(record, field))
        # Every clean leaf of a fresh open shares its type's record.
        for leaf in _leaves(handle.document.root):
            assert leaf.record is handle._leaves[leaf.record.type_id]
        _assert_lean(handle)

    def test_a_leaf_that_fails_gets_its_own_record(self, compiled):
        root = parse_document(FIGURE1_XML).root
        titlefont = root.children[0].children[0].children[0]
        titlefont.attributes["bogus"] = "1"
        handle = ValidatedDocument(root, compiled)
        record = titlefont.record
        assert record.__class__ is incremental._NodeState
        assert record.attr_viols and id(titlefont) in handle._invalid
        assert record.states is incremental._LEAF_STATES
        _assert_lean(handle)
        _assert_fresh(handle, compiled)

    def test_a_type_rejecting_the_empty_word_shares_a_rejected_record(
            self, compiled):
        handle = ValidatedDocument(
            element("document", element("template"), element("userstyles"),
                    element("content", element("section", attributes={
                        "title": "t"}))),
            compiled,
        )
        assert handle.valid
        bare = ValidatedDocument(element("document"), compiled)
        record = bare.document.root.record
        assert record.__class__ is SHARED and record.rejected
        assert not bare.valid
        _assert_fresh(bare, compiled)

    @pytest.mark.parametrize("edit", [
        "set_attribute", "set_text", "insert_delete",
    ])
    def test_an_edit_on_one_shared_leaf_moves_no_other(self, compiled,
                                                       edit):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        fonts = _template_fonts(handle)
        leaf = fonts[1]
        shared = leaf.record
        before = _others(handle, leaf)
        if edit == "set_attribute":
            handle.set_attribute(leaf, "undeclared", "1")
        elif edit == "set_text":
            handle.set_text(leaf, "text in element-only content")
        else:
            handle.insert_child(leaf, 0, element("stranger"))
        own = leaf.record
        assert own is not shared and own.__class__ is incremental._NodeState
        assert not handle.valid and id(leaf) in handle._invalid
        assert _others(handle, leaf) == before
        for other in fonts:
            if other is not leaf:
                assert other.record is shared
        _assert_lean(handle)
        _assert_fresh(handle, compiled)
        # And back: the leaf is clean on its own record; nothing else moved.
        if edit == "set_attribute":
            handle.set_attribute(leaf, "undeclared", None)
        elif edit == "set_text":
            handle.set_text(leaf, "")
        else:
            handle.delete_child(leaf, 0)
        assert handle.valid
        assert leaf.record is own
        assert handle.provenance_of(leaf) == ("TtemplateFont", (0,))
        assert _others(handle, leaf) == before
        assert (shared.states, shared.strays, shared.rejected,
                shared.text_viol, shared.attr_viols) == (
            (0,), 0, False, None, ())
        _assert_lean(handle)
        _assert_fresh(handle, compiled)

    def test_a_clean_write_keeps_the_shared_record(self, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        leaf = _template_fonts(handle)[0]
        shared = leaf.record
        handle.set_attribute(leaf, "size", "7")
        handle.set_text(leaf, "   ")
        assert leaf.record is shared
        assert handle.valid
        _assert_fresh(handle, compiled)

    def test_records_equal_a_fresh_open_after_every_op_of_a_storm(
            self, compiled):
        rng = random.Random("shared-leaves")
        labels = list(compiled.names) + ["zz-stranger"]
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        applied = 0
        own_leaves = 0
        while applied < 2_000:
            op = random_op(handle.document.root, rng, labels)
            try:
                op.apply_incremental(handle)
            except (IndexError, ValueError):
                continue
            applied += 1
            _assert_fresh(handle, compiled)
            for node in handle.document.root.iter():
                state = node.record
                if state.__class__ is SHARED:
                    assert not node.children
                    assert state is handle._leaves[state.type_id]
                elif state is not None and not node.children:
                    own_leaves += 1
            if not applied % 250:
                _assert_lean(handle)
        assert own_leaves  # the storm made leaves write their records
