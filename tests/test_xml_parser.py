"""Unit tests for the from-scratch XML parser and the serializer."""

import pytest

from repro.errors import ParseError
from repro.xmlmodel.parser import from_etree, parse_document, parse_fragment
from repro.xmlmodel.tree import element, XMLDocument
from repro.xmlmodel.writer import (
    escape_attribute,
    escape_text,
    write_document,
    write_element,
)


class TestParsing:
    def test_minimal(self):
        doc = parse_document("<a/>")
        assert doc.root.name == "a"
        assert not doc.root.children

    def test_nested_elements(self):
        doc = parse_document("<a><b><c/></b><d/></a>")
        assert [n.name for n in doc.iter()] == ["a", "b", "c", "d"]

    def test_attributes_both_quote_styles(self):
        doc = parse_document("""<a x="1" y='2'/>""")
        assert doc.root.attributes == {"x": "1", "y": "2"}

    def test_text_and_tail(self):
        doc = parse_document("<p>one<b/>two<b/>three</p>")
        assert doc.root.texts == ["one", "two", "three"]

    def test_entities(self):
        doc = parse_document("<a x='&lt;&amp;&gt;'>&quot;&apos;&#65;&#x42;</a>")
        assert doc.root.attributes["x"] == "<&>"
        assert doc.root.text == "\"'AB"

    def test_cdata(self):
        doc = parse_document("<a><![CDATA[<not> & parsed]]></a>")
        assert doc.root.text == "<not> & parsed"

    def test_comments_and_pis_skipped(self):
        doc = parse_document(
            "<?xml version='1.0'?><!-- hi --><a><!-- in --><?pi data?>"
            "<b/></a><!-- post -->"
        )
        assert doc.root.ch_str() == ["b"]

    def test_doctype_skipped(self):
        doc = parse_document(
            "<!DOCTYPE a [ <!ELEMENT a (b)> ]><a><b/></a>"
        )
        assert doc.root.name == "a"

    def test_namespaced_names_kept_verbatim(self):
        doc = parse_document("<xs:schema xmlns:xs='u'><xs:element/></xs:schema>")
        assert doc.root.name == "xs:schema"
        assert doc.root.children[0].name == "xs:element"

    def test_fragment(self):
        node = parse_fragment("  <a><b/></a>  ")
        assert node.name == "a"


class TestParseFragment:
    """One element, optionally wrapped in whitespace, and nothing else."""

    def test_surrounding_whitespace_is_accepted(self):
        node = parse_fragment(" \n\t<a x='1'>t<b/>u</a>\r\n ")
        assert node == element("a", "t", element("b"), "u",
                               attributes={"x": "1"})
        assert node.parent is None

    @pytest.mark.parametrize("text, message, line, column", [
        # Markup before the element: its '<' opens a tag whose name is
        # missing (a fragment has no prolog).
        ("<?xml version='1.0'?><a/>", "expected a name", 1, 2),
        ("<!-- c --><a/>", "expected a name", 1, 2),
        (" \n<!-- c -->\n<a/>", "expected a name", 2, 2),
        ("text<a/>", "expected an element start tag", 1, 1),
        ("", "expected an element start tag", 1, 1),
        ("  ", "expected an element start tag", 1, 3),
        # Anything after it, misc included.
        ("<a/><!-- c -->", "content after the element", 1, 5),
        ("<a/>\n<!--c-->", "content after the element", 2, 1),
        ("<a/>  <?xml version='1.0'?>", "content after the element", 1, 7),
        ("<a/><?pi x?>", "content after the element", 1, 5),
        ("<a/>\n  <b/>", "content after the element", 2, 3),
    ])
    def test_anything_but_one_element_is_rejected(self, text, message,
                                                  line, column):
        with pytest.raises(ParseError) as info:
            parse_fragment(text)
        assert (info.value.message, info.value.line, info.value.column) == (
            message, line, column
        )

    def test_max_depth_is_honoured(self):
        from repro.errors import LimitExceeded
        from repro.resilience import ParserLimits

        text = "<a><b><c/></b></a>"
        node = parse_fragment(text, limits=ParserLimits(max_depth=3))
        assert node.children[0].children[0].name == "c"
        with pytest.raises(LimitExceeded) as info:
            parse_fragment(text, limits=ParserLimits(max_depth=2))
        error = info.value
        assert (str(error), error.limit, error.value) == (
            "nesting depth limit exceeded at <c> (depth 3 > max_depth=2) "
            "at line 1, column 9", "max_depth", 3,
        )


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "<a>",
            "<a></b>",
            "<a",
            "<a x=1/>",
            "<a x='1' x='2'/>",
            "<a>&undefined;</a>",
            "<a/><b/>",
            "<a><!-- unterminated </a>",
            "text only",
            "<a>< b/></a>",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_document(text)

    def test_error_location(self):
        with pytest.raises(ParseError) as info:
            parse_document("<a>\n<b>\n</a>")
        assert info.value.line in (2, 3)


class TestWriting:
    def test_escapes(self):
        assert escape_text("a<b&c>d") == "a&lt;b&amp;c&gt;d"
        assert escape_attribute('say "hi" & go') == "say &quot;hi&quot; &amp; go"

    def test_self_closing(self):
        assert write_element(element("a")) == "<a/>"

    def test_attributes(self):
        node = element("a", attributes={"x": "1 & 2"})
        assert write_element(node) == '<a x="1 &amp; 2"/>'

    def test_roundtrip_structure(self):
        doc = XMLDocument(
            element(
                "root",
                element("child", "mixed ", element("b", "bold"), " tail",
                        attributes={"k": "v"}),
                element("empty"),
            )
        )
        text = write_document(doc)
        again = parse_document(text)
        assert again.root.name == "root"
        assert again.root.children[0].attributes == {"k": "v"}
        assert again.root.children[0].text == "mixed  tail"
        assert again.root.children[0].children[0].text == "bold"

    def test_pretty_printing_skips_mixed(self):
        doc = XMLDocument(element("a", element("b"), element("c")))
        pretty = write_document(doc, indent="  ")
        assert "\n  <b/>" in pretty
        mixed = XMLDocument(element("a", "text", element("b")))
        compact = write_document(mixed, indent="  ")
        assert "text<b/>" in compact

    def test_declaration_toggle(self):
        doc = XMLDocument(element("a"))
        assert write_document(doc).startswith("<?xml")
        assert write_document(doc, declaration=False).startswith("<a")


class TestEtreeAdapter:
    def test_from_etree(self):
        import xml.etree.ElementTree as ET

        source = ET.fromstring(
            '<root xmlns:n="urn:x"><n:child a="1">t</n:child>tail</root>'
        )
        converted = from_etree(source)
        assert converted.name == "root"
        # Namespaced tags reduce to local names through ElementTree.
        child = converted.children[0]
        assert child.attributes == {"a": "1"}
        assert child.text == "t"
