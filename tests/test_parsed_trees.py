"""Parsed trees share their empty attribute map, records live on the
elements, and the newest handle owns a tree.

Every parse route gives an element without attributes the one read-only
empty map, so a missed write raises instead of writing through to every
such element; the writers that reach parsed trees go through
``XMLElement.set_attribute``.  A :class:`ValidatedDocument` keeps each
element's record in the element's ``record`` slot: a reused tree keeps
no record of an earlier open where the newest open types nothing, and an
older handle refuses to read a newer one's records.  Tree edits refuse
cycles.
"""

import random

import pytest

from repro.conformance.generate import mutate_document
from repro.conformance.shrink import document_reductions
from repro.engine import ValidatedDocument, compile_xsd, incremental
from repro.errors import SchemaError
from repro.observability import ResourceBudget, default_registry
from repro.paperdata import FIGURE1_XML, figure3_xsd
from repro.regex.ast import EPSILON, plus, star, sym
from repro.resilience import ParserLimits
from repro.xmlmodel import (
    SetAttribute,
    XMLDocument,
    clone_element,
    element,
    parse_document,
)
from repro.xmlmodel.parser import iter_events
from repro.xmlmodel.tokenizer import fold_tree
from repro.xmlmodel.tree import _LEAF_TEXTS, _NO_ATTRIBUTES, XMLElement
from repro.xsd import validate_xsd
from repro.xsd.content import ContentModel
from repro.xsd.model import XSD
from repro.xsd.typednames import TypedName

DOCUMENT = ('<r a="1"><x/><y></y><z>text</z><w k="v"><v/></w>'
            '<u>lead<t/>tail</u><z>text</z></r>')

# A document the byte tier refuses (a DOCTYPE with an internal subset),
# so parse_document folds the char tier's events.
CHAR_ONLY = '<!DOCTYPE r [<!ELEMENT r ANY>]>' + DOCUMENT


def _folded():
    return fold_tree(DOCUMENT.encode("utf-8"), ParserLimits())


def _parsed_trees():
    return {
        "fold_tree": _folded(),
        "parse_document": parse_document(DOCUMENT).root,
        "parse_document (char tier)": parse_document(CHAR_ONLY).root,
        "from_events": XMLElement.from_events(iter_events(DOCUMENT)),
    }


def _xsd(b_child, repeat=star):
    """``a`` holds ``b*``, and ``b`` holds ``repeat(b_child)`` of an
    empty type: two schemas differing in ``b_child`` type the children
    of ``b`` differently, and ``repeat=plus`` makes ``Tb`` reject the
    empty word."""
    def T(name, type_name):
        return TypedName(name, type_name)

    return XSD(
        ename={"a", "b", b_child},
        types={"Ta", "Tb", "Tleaf"},
        rho={
            "Ta": ContentModel(star(sym(T("b", "Tb")))),
            "Tb": ContentModel(repeat(sym(T(b_child, "Tleaf")))),
            "Tleaf": ContentModel(EPSILON),
        },
        start={T("a", "Ta")},
    )


def _recursive_xsd():
    """``a`` of type ``A = a*``."""
    return XSD(
        ename={"a"},
        types={"A"},
        rho={"A": ContentModel(star(sym(TypedName("a", "A"))))},
        start={TypedName("a", "A")},
    )


@pytest.fixture(scope="module")
def compiled():
    return compile_xsd(figure3_xsd())


def _assert_fresh(handle, schema):
    """The handle's report, provenance and count equal a fresh open's
    of a copy of its tree."""
    fresh = ValidatedDocument(clone_element(handle.document.root), schema)
    report, expected = handle.report(), fresh.report()
    assert handle.valid == fresh.valid
    assert report.violations == expected.violations
    assert report.typing == expected.typing
    assert [entry.to_dict() for entry in handle.provenance()] == [
        entry.to_dict() for entry in fresh.provenance()]
    assert len(handle) == len(fresh)


class TestSharedAttributeMap:
    @pytest.mark.parametrize("route", list(_parsed_trees()))
    def test_every_parse_route_hands_out_the_one_map(self, route):
        root = _parsed_trees()[route]
        bare = [node for node in root.iter() if not node.attributes]
        assert len(bare) == 7
        assert all(node.attributes is _NO_ATTRIBUTES for node in bare)
        owned = [node.attributes for node in root.iter() if node.attributes]
        assert owned == [{"a": "1"}, {"k": "v"}]
        assert all(attributes.__class__ is dict for attributes in owned)

    @pytest.mark.parametrize("route", list(_parsed_trees()))
    def test_a_direct_write_raises_and_moves_no_other_map(self, route):
        root = _parsed_trees()[route]
        x, y = root.children[0], root.children[1]
        with pytest.raises(TypeError):
            x.attributes["k"] = "v"
        assert _NO_ATTRIBUTES == {} and y.attributes is _NO_ATTRIBUTES
        x.set_attribute("k", "v")
        assert x.attributes == {"k": "v"} and x.attributes is not y.attributes
        assert _NO_ATTRIBUTES == {} and y.attributes == {}
        x.set_attribute("k", None)
        y.set_attribute("absent", None)  # a no-op: no dict swapped in
        assert x.attributes == {} and y.attributes is _NO_ATTRIBUTES

    def test_the_constructor_keeps_a_dict_of_its_own(self):
        node = XMLElement("x")
        assert node.attributes.__class__ is dict
        node.attributes["id"] = "1"
        assert XMLElement("x").attributes == {}

    def test_folded_char_tier_and_constructed_trees_compare_equal(self):
        constructed = element(
            "r", element("x"), element("y"), element("z", text="text"),
            element("w", element("v"), attributes={"k": "v"}),
            element("u", "lead", element("t"), "tail"),
            element("z", text="text"), attributes={"a": "1"},
        )
        trees = list(_parsed_trees().values()) + [
            constructed, clone_element(_folded())]
        for tree in trees:
            assert tree == trees[0] and trees[0] == tree
            assert XMLDocument(tree) == XMLDocument(trees[0])
            assert hash(tree) == hash(trees[0])


class TestWritersOnParsedTrees:
    def test_set_attribute_apply_full(self):
        document = parse_document(DOCUMENT)
        SetAttribute((0,), "k", "v").apply_full(document)
        SetAttribute((1,), "k", None).apply_full(document)
        x, y = document.root.children[0], document.root.children[1]
        assert x.attributes == {"k": "v"} and y.attributes is _NO_ATTRIBUTES

    def test_mutate_documents_attribute_mutations(self):
        document = parse_document(DOCUMENT)
        before = clone_element(document.root)
        rng = random.Random("parsed-mutants")
        changed = 0
        for __ in range(200):
            mutant = mutate_document(document, rng, ["x", "y"], ["k", "a"])
            changed += any(node.attributes.get("k") == "x"
                           for node in mutant.iter())
        assert changed
        assert document.root == before

    def test_the_shrinkers_attribute_drop(self):
        document = parse_document(DOCUMENT)
        smaller = list(document_reductions(document))
        dropped = [reduction for reduction in smaller
                   if not reduction.root.attributes
                   and reduction.size() == document.size()]
        assert dropped
        assert document.root.attributes == {"a": "1"}

    def test_the_handles_writers(self, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        bare = [node for node in handle.document.root.iter()
                if node.attributes is _NO_ATTRIBUTES]
        assert bare
        leaf = next(node for node in bare if not node.children)
        handle.set_attribute(leaf, "undeclared", "1")
        handle.set_text(leaf, "stray text")
        assert not handle.valid
        assert leaf.attributes == {"undeclared": "1"}
        assert all(node.attributes is _NO_ATTRIBUTES
                   for node in bare if node is not leaf)
        _assert_fresh(handle, compiled)
        handle.set_attribute(leaf, "undeclared", None)
        handle.set_text(leaf, "")
        assert handle.valid
        _assert_fresh(handle, compiled)


class TestTextRuns:
    def test_equal_text_chunks_hold_runs_of_their_own(self):
        root = _folded()
        first, second = root.children[2], root.children[-1]
        assert first.texts == ["text"] and first.texts is not second.texts
        assert root.children[0].texts is _LEAF_TEXTS
        first.set_run(0, "new")
        assert second.texts == ["text"]

    def test_set_text_on_one_leaf_leaves_the_others_run(self):
        xsd = figure3_xsd()
        text = FIGURE1_XML.replace(
            "<bold>bold words</bold>", "<bold>same</bold><bold>same</bold>")
        handle = ValidatedDocument(parse_document(text), compile_xsd(xsd))
        bolds = [node for node in handle.document.root.iter()
                 if node.name == "bold"]
        assert len(bolds) >= 2
        assert all(b.texts == ["same"] for b in bolds)
        handle.set_text(bolds[0], "changed")
        assert bolds[0].texts == ["changed"]
        assert all(b.texts == ["same"] for b in bolds[1:])
        assert handle.report().violations == [
            str(v) for v in validate_xsd(xsd, handle.document).violations]


class TestRecordsOnTheNode:
    def test_clean_leaves_are_recorded_by_their_parent(self, compiled):
        registry = default_registry()
        typed = registry.counter("engine.incremental.nodes_typed")
        replays = registry.counter("engine.incremental.content_replays")
        before = typed.value, replays.value
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        count = sum(1 for __ in handle.document.root.iter())
        assert len(handle) == count
        assert (typed.value, replays.value) == (
            before[0] + count, before[1] + count)
        for node in handle.document.root.iter():
            if not node.children and not node.attributes:
                assert node.record is handle._leaves[node.record.type_id]

    def test_a_rejecting_leaf_type_is_indexed_as_invalid(self):
        xsd = _xsd("c", repeat=plus)
        compiled = compile_xsd(xsd)
        handle = ValidatedDocument(
            element("a", element("b"), element("b", element("c"))),
            compiled)
        bare = handle.document.root.children[0]
        assert bare.record.__class__ is incremental._LeafRecord
        assert bare.record.rejected and id(bare) in handle._invalid
        assert not handle.valid and len(handle) == 4
        assert handle.report().violations == [
            str(v) for v in validate_xsd(xsd, handle.document).violations]
        _assert_fresh(handle, compiled)

    def test_a_reused_tree_keeps_no_record_where_nothing_is_typed(self):
        tree = element("a", element("b", element("c"), element("c")),
                       element("b"))
        first = ValidatedDocument(tree, compile_xsd(_xsd("c")))
        assert first.valid and len(first) == 5
        # Under the second schema <c> is not allowed under <b>.
        second_schema = compile_xsd(_xsd("d"))
        second = ValidatedDocument(tree, second_schema)
        assert not second.valid and len(second) == 3
        for c in tree.children[0].children:
            assert c.record is None
            assert second.provenance_of(c) is None
        _assert_fresh(second, second_schema)

    def test_an_undeclared_root_clears_the_tree(self, compiled):
        tree = parse_document(FIGURE1_XML).root
        ValidatedDocument(tree, compiled)
        tree.name = "undeclared"
        handle = ValidatedDocument(tree, compiled)
        assert len(handle) == 0
        assert all(node.record is None for node in tree.iter())
        assert handle.provenance_of(tree.children[0]) is None


class TestOwnership:
    def test_the_older_handle_raises(self):
        tree = element("a", element("b", element("c")), element("b"))
        older = ValidatedDocument(tree, compile_xsd(_xsd("c")))
        assert older.valid
        newer = ValidatedDocument(tree, compile_xsd(_xsd("d")))
        assert not newer.valid
        b = tree.children[0]
        for call in (older.report, older.provenance,
                     lambda: older.provenance_of(b),
                     lambda: older.set_attribute(b, "k", "v"),
                     lambda: older.set_text(b, "x"),
                     lambda: older.insert_child(b, 0, element("c")),
                     lambda: older.delete_child(b, 0),
                     lambda: older.replace_child(b, 0, element("c")),
                     lambda: older.replace_subtree(b, element("b"))):
            with pytest.raises(SchemaError, match="newer ValidatedDocument"):
                call()
        # The refused edits left the tree alone, and the newer handle works.
        assert tree == element("a", element("b", element("c")),
                               element("b"))
        assert newer.report().violations == [
            "/a/b: element <c> is not allowed under <b> (type Tb)"]

    def test_the_newest_open_owns_a_leaf_root(self, compiled):
        tree = element("document")
        older = ValidatedDocument(tree, compiled)
        newer = ValidatedDocument(tree, compiled)
        assert tree.record is not None and older.valid == newer.valid
        with pytest.raises(SchemaError):
            older.report()
        # An edit that gives the root a record of its own keeps the
        # newer handle the owner.
        newer.set_attribute(tree, "bogus", "1")
        assert tree.record.__class__ is incremental._NodeState
        assert newer.report().violations
        newer.set_attribute(tree, "bogus", None)
        _assert_fresh(newer, compiled)

    def test_an_open_under_a_typed_ancestor_is_refused(self, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        content = handle.node_at((2,))
        records = [node.record for node in content.iter()]
        with pytest.raises(SchemaError, match="under <document>"):
            ValidatedDocument(content, compiled)
        with pytest.raises(SchemaError, match="under <content>"):
            ValidatedDocument(XMLDocument(content.children[0]), compiled)
        # A clone opens; neither the refused opens nor the clone's open
        # touched the handle's records, and its edits still count.
        clone = ValidatedDocument(clone_element(content), compiled)
        assert not clone.valid  # <content> is no root of Figure 3
        assert [node.record for node in content.iter()] == records
        assert handle.valid
        handle.insert_child(content, 0, element("bogus"))
        assert not handle.valid
        assert handle.report().violations
        _assert_fresh(handle, compiled)

    def test_an_open_under_an_undeclared_root(self, compiled):
        tree = parse_document(FIGURE1_XML).root
        tree.name = "undeclared"
        older = ValidatedDocument(tree, compiled)
        content = tree.children[2]
        content.name = "document"
        newer = ValidatedDocument(content, compiled)
        assert len(newer) > 0 and content.record is not None
        # The older handle reads no record, so its answers stay a fresh
        # open's, and its edits leave the newer handle's records alone.
        section = content.children[0]
        record = section.record
        older.set_attribute(section, "title", None)
        older.set_text(section, "text")
        older.insert_child(section, 0, element("bogus"))
        assert section.record is record
        assert older.provenance_of(section) is None
        assert older.delete_child(tree, 2) is content
        assert content.record is not None
        assert len(older) == 0 and older.provenance() == []
        assert older.report().violations == [
            compiled.undeclared_root("undeclared")]

class TestDetachedSubtrees:
    def test_reinserted_under_a_stray_label_then_edited(self, compiled):
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        content = handle.node_at((2,))
        index = next(i for i, child in enumerate(content.children)
                     if child.children)
        section = handle.delete_child(content, index)
        assert all(node.record is None for node in section.iter())
        stray = element("stranger")
        handle.insert_child(content, 0, stray)
        handle.insert_child(stray, 0, section)
        assert all(node.record is None for node in section.iter())
        _assert_fresh(handle, compiled)
        handle.set_attribute(section.children[0], "bogus", "1")
        handle.set_text(section, "text")
        handle.delete_child(section, 0)
        handle.insert_child(section, 0, element("bold"))
        _assert_fresh(handle, compiled)
        # Back under a typed label: retyped like any new subtree.
        handle.delete_child(content, 0)
        stray.remove_child(0)
        handle.insert_child(content, 0, section)
        assert section.record is not None
        _assert_fresh(handle, compiled)

    def test_another_handles_root_is_retyped_or_cleared(self, compiled):
        other = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        moved = other.document.root.children[2]  # <content>, typed
        other.delete_child(other.document.root, 2)
        for node in moved.iter():
            assert node.record is None
        other_root = other.document.root
        assert other_root.record is not None
        handle = ValidatedDocument(parse_document(FIGURE1_XML), compiled)
        content = handle.node_at((2,))
        stray = element("stranger")
        handle.insert_child(content, 0, stray)
        handle.insert_child(stray, 0, other_root)  # its records go
        assert all(node.record is None for node in other_root.iter())
        with pytest.raises(SchemaError):
            other.report()
        _assert_fresh(handle, compiled)
        handle.delete_child(content, 0)
        stray.remove_child(0)
        handle.insert_child(handle.document.root, 2, moved)
        handle.delete_child(handle.document.root, 3)
        assert moved.record is not None
        _assert_fresh(handle, compiled)


class TestCycles:
    @pytest.fixture
    def budget(self):
        with ResourceBudget(max_seconds=10.0) as budget:
            yield budget

    def test_append_refuses_the_target_and_its_root(self, budget):
        root = element("a", element("b", element("c")))
        b = root.children[0]
        for target, child in ((b, root), (b.children[0], root),
                              (b, b), (root, root)):
            if child.parent is None:
                with pytest.raises(SchemaError, match="cycle"):
                    target.append(child)
        assert root == element("a", element("b", element("c")))
        assert sum(1 for __ in root.iter()) == 3

    def test_replace_child_at_refuses_a_cycle(self, budget):
        root = element("a", element("b", element("c")))
        b = root.children[0]
        with pytest.raises(SchemaError, match="cycle"):
            b.replace_child_at(0, root)
        with pytest.raises(SchemaError, match="cycle"):
            root.replace_child(b, root)
        assert b.parent is root and b.children[0].parent is b

    def test_a_leaf_or_an_unrelated_root_is_no_cycle(self, budget):
        root = element("a", element("b"))
        root.children[0].append(element("c"))
        root.children[0].append(element("d", element("e")))
        assert [node.name for node in root.iter()] == [
            "a", "b", "c", "d", "e"]

    def test_replace_child_names_a_non_child(self):
        root = element("a", element("b"))
        with pytest.raises(SchemaError, match="not a child of <a>"):
            root.replace_child(element("b"), element("c"))

    def test_a_recursive_schemas_handle_refuses_its_root(self, budget):
        compiled = compile_xsd(_recursive_xsd())
        handle = ValidatedDocument(element("a", element("a")), compiled)
        root = handle.document.root
        with pytest.raises(SchemaError, match="cycle"):
            handle.insert_child(root.children[0], 0, root)
        with pytest.raises(SchemaError, match="cycle"):
            handle.replace_child(root, 0, root)
        assert handle.valid and len(handle) == 2
        _assert_fresh(handle, compiled)
