"""Unit tests for the XML tree model (anc-str / ch-str semantics)."""

import pytest

from repro.errors import SchemaError
from repro.xmlmodel.tree import XMLDocument, XMLElement, element


class TestTreeStructure:
    def test_anc_str_matches_paper_example(self):
        # Example 4.1: the section child of template has
        # anc-str = document template section.
        doc = element(
            "document",
            element("template", element("section")),
        )
        section = doc.children[0].children[0]
        assert section.anc_str() == ["document", "template", "section"]

    def test_ch_str(self):
        node = element("v", element("titlefont"), element("style"),
                       element("section"))
        assert node.ch_str() == ["titlefont", "style", "section"]

    def test_root_anc_str_is_own_label(self):
        root = element("doc")
        assert root.anc_str() == ["doc"]

    def test_parent_links(self):
        child = element("b")
        parent = element("a", child)
        assert child.parent is parent
        assert parent.parent is None

    def test_single_parent_enforced(self):
        child = element("b")
        element("a", child)
        with pytest.raises(SchemaError):
            element("c", child)

    def test_depth(self):
        doc = element("a", element("b", element("c")))
        leaf = doc.children[0].children[0]
        assert leaf.depth() == 2
        assert doc.depth() == 0


class TestMixedContent:
    def test_texts_invariant(self):
        node = element("p", "hello ", element("b"), " world")
        assert len(node.texts) == len(node.children) + 1
        assert node.text == "hello  world"

    def test_has_text_ignores_whitespace(self):
        node = element("p", "   \n  ")
        assert not node.has_text()
        node.append_text("x")
        assert node.has_text()

    def test_text_order(self):
        node = XMLElement("p", text="a")
        node.append(XMLElement("x"), text_after="b")
        node.append(XMLElement("y"), text_after="c")
        assert node.texts == ["a", "b", "c"]


class TestDocument:
    def test_iteration_is_document_order(self):
        doc = XMLDocument(
            element("r", element("a", element("b")), element("c"))
        )
        assert [n.name for n in doc.iter()] == ["r", "a", "b", "c"]

    def test_size_and_height(self):
        doc = XMLDocument(
            element("r", element("a", element("b")), element("c"))
        )
        assert doc.size() == 4
        assert doc.height() == 3

    def test_labels(self):
        doc = XMLDocument(element("r", element("a"), element("a")))
        assert doc.labels() == {"r", "a"}

    def test_find_helpers(self):
        root = element("r", element("a"), element("b"), element("a"))
        assert root.find("b").name == "b"
        assert root.find("zz") is None
        assert len(root.find_all("a")) == 2

    def test_equality_is_structural(self):
        left = element("r", element("a", attributes={"x": "1"}))
        right = element("r", element("a", attributes={"x": "1"}))
        assert XMLDocument(left) == XMLDocument(right)
        different = element("r", element("a", attributes={"x": "2"}))
        assert XMLDocument(left) != XMLDocument(different)


class TestEventFold:
    """``XMLElement.from_events`` inverts ``XMLElement.events``."""

    def test_fold_of_events_is_the_tree(self):
        tree = element(
            "doc",
            "lead",
            element("a", element("b", "deep"), attributes={"k": "v"}),
            "mid",
            element("a"),
            attributes={"id": "1"},
        )
        rebuilt = XMLElement.from_events(tree.events())
        assert rebuilt == tree
        assert rebuilt.texts == ["lead", "mid", ""]
        assert [node.parent for node in rebuilt.children] == [rebuilt] * 2
        assert rebuilt.parent is None

    def test_adjacent_text_events_join_one_run(self):
        node = XMLElement.from_events([
            ("start", "a", {}), ("text", "x"), ("text", "y"),
            ("start", "b", {}), ("end", "b"), ("text", "z"), ("end", "a"),
        ])
        assert node.texts == ["xy", "z"]
        assert node.ch_str() == ["b"]

    def test_the_stream_is_drained(self):
        def events():
            yield ("start", "a", {})
            yield ("end", "a")
            raise ValueError("after the element")

        with pytest.raises(ValueError):
            XMLElement.from_events(events())

    def test_producer_errors_are_not_read_as_stray_events(self):
        def events():
            yield ("start", "a", {})
            yield ("end", "a")
            yield ("text", " ")
            raise AttributeError("inside the producer")

        with pytest.raises(AttributeError, match="inside the producer"):
            XMLElement.from_events(events())

    def test_text_outside_the_element_is_ignored(self):
        node = XMLElement.from_events([
            ("text", "\n"), ("start", "a", {}), ("text", "x"),
            ("end", "a"), ("text", "  "),
        ])
        assert node.texts == ["x"]

    @pytest.mark.parametrize("events, message", [
        ([], "holds no element"),
        ([("text", " ")], "holds no element"),
        ([("start", "a", {}), ("start", "b", {}), ("end", "b")],
         "ends inside"),
        ([("end", "a")], "closes no open element"),
        ([("start", "a", {}), ("end", "a"), ("end", "a")],
         "closes no open element"),
        ([("start", "a", {}), ("end", "a"), ("start", "b", {}),
          ("end", "b")], "more than one root"),
    ])
    def test_streams_that_spell_no_single_element(self, events, message):
        from repro.errors import ParseError

        with pytest.raises(ParseError, match=message):
            XMLElement.from_events(events)
