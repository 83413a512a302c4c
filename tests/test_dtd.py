"""Unit tests for the DTD parser and validator."""

import pytest

from repro.errors import ParseError
from repro.regex.derivatives import matches
from repro.xmlmodel.dtd import parse_dtd
from repro.xmlmodel.tree import XMLDocument, element


class TestElementDeclarations:
    def test_children_model(self):
        dtd = parse_dtd("<!ELEMENT a (b, (c | d)*, e?)>"
                        "<!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
                        "<!ELEMENT d EMPTY><!ELEMENT e EMPTY>")
        model = dtd.elements["a"].content
        assert matches(model, ["b"])
        assert matches(model, ["b", "c", "d", "e"])
        assert not matches(model, ["c"])

    def test_empty(self):
        dtd = parse_dtd("<!ELEMENT a EMPTY>")
        assert dtd.elements["a"].category == "EMPTY"

    def test_any(self):
        dtd = parse_dtd("<!ELEMENT a ANY>")
        assert dtd.elements["a"].category == "ANY"
        assert dtd.elements["a"].allows_text

    def test_pcdata_only(self):
        dtd = parse_dtd("<!ELEMENT a (#PCDATA)>")
        declaration = dtd.elements["a"]
        assert declaration.category == "MIXED"
        assert matches(declaration.content, [])

    def test_mixed_with_children(self):
        dtd = parse_dtd("<!ELEMENT a (#PCDATA | b | c)*><!ELEMENT b EMPTY>"
                        "<!ELEMENT c EMPTY>")
        model = dtd.elements["a"].content
        assert matches(model, ["b", "c", "b"])

    def test_mixed_requires_star_with_children(self):
        with pytest.raises(ParseError):
            parse_dtd("<!ELEMENT a (#PCDATA | b)>")

    def test_occurrence_operators(self):
        dtd = parse_dtd("<!ELEMENT a (b+, c*)><!ELEMENT b EMPTY>"
                        "<!ELEMENT c EMPTY>")
        model = dtd.elements["a"].content
        assert matches(model, ["b"])
        assert matches(model, ["b", "b", "c"])
        assert not matches(model, ["c"])

    def test_duplicate_declaration_rejected(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            parse_dtd("<!ELEMENT a EMPTY><!ELEMENT a ANY>")

    def test_mixing_separators_rejected(self):
        with pytest.raises(ParseError):
            parse_dtd("<!ELEMENT a (b, c | d)>")


class TestParameterEntities:
    def test_substitution(self):
        dtd = parse_dtd(
            '<!ENTITY % inline "b|i">'
            "<!ELEMENT p (#PCDATA|%inline;)*>"
            "<!ELEMENT b EMPTY><!ELEMENT i EMPTY>"
        )
        model = dtd.elements["p"].content
        assert matches(model, ["b", "i"])

    def test_nested_entities(self):
        dtd = parse_dtd(
            '<!ENTITY % one "b">'
            '<!ENTITY % two "%one;|c">'
            "<!ELEMENT p (%two;)>"
            "<!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
        )
        assert matches(dtd.elements["p"].content, ["c"])

    def test_undefined_entity(self):
        with pytest.raises(ParseError):
            parse_dtd("<!ELEMENT p (%missing;)>")


class TestAttlists:
    def test_required_implied_fixed_default(self):
        dtd = parse_dtd(
            "<!ELEMENT a EMPTY>"
            "<!ATTLIST a r CDATA #REQUIRED"
            "            i CDATA #IMPLIED"
            '            f CDATA #FIXED "k"'
            '            d CDATA "dflt">'
        )
        attrs = dtd.elements["a"].attributes
        assert attrs["r"].required
        assert not attrs["i"].required
        assert attrs["f"].fixed_value == "k"
        assert attrs["d"].default == "dflt"

    def test_enumeration(self):
        dtd = parse_dtd(
            "<!ELEMENT a EMPTY><!ATTLIST a kind (x|y|z) #REQUIRED>"
        )
        assert dtd.elements["a"].attributes["kind"].kind == ("x", "y", "z")

    def test_attlist_before_element(self):
        dtd = parse_dtd(
            "<!ATTLIST a x CDATA #IMPLIED><!ELEMENT b EMPTY>"
        )
        assert "x" in dtd.elements["a"].attributes


class TestValidation:
    @pytest.fixture
    def dtd(self):
        return parse_dtd(
            "<!ELEMENT doc (head, item*)>"
            "<!ELEMENT head (#PCDATA)>"
            "<!ELEMENT item (#PCDATA|em)*>"
            "<!ELEMENT em EMPTY>"
            "<!ATTLIST item id CDATA #REQUIRED kind (a|b) #IMPLIED>",
            root="doc",
        )

    def test_valid_document(self, dtd):
        doc = XMLDocument(
            element(
                "doc",
                element("head", "title"),
                element("item", "text ", element("em"),
                        attributes={"id": "1", "kind": "a"}),
            )
        )
        assert dtd.validate(doc) == []
        assert dtd.is_valid(doc)

    def test_wrong_root(self, dtd):
        assert not dtd.is_valid(XMLDocument(element("head")))

    def test_content_violation(self, dtd):
        doc = XMLDocument(element("doc", element("item",
                                                 attributes={"id": "1"})))
        violations = dtd.validate(doc)
        assert any("content model" in v for v in violations)

    def test_text_in_element_content(self, dtd):
        doc = XMLDocument(
            element("doc", "stray", element("head"))
        )
        violations = dtd.validate(doc)
        assert any("may not contain text" in v for v in violations)

    def test_missing_required_attribute(self, dtd):
        doc = XMLDocument(element("doc", element("head"),
                                  element("item")))
        violations = dtd.validate(doc)
        assert any("required attribute 'id'" in v for v in violations)

    def test_bad_enumeration_value(self, dtd):
        doc = XMLDocument(
            element("doc", element("head"),
                    element("item", attributes={"id": "1", "kind": "zz"}))
        )
        violations = dtd.validate(doc)
        assert any("expected one of" in v for v in violations)

    def test_undeclared_attribute(self, dtd):
        doc = XMLDocument(
            element("doc", element("head", attributes={"nope": "1"}))
        )
        violations = dtd.validate(doc)
        assert any("not declared" in v for v in violations)

    def test_undeclared_element(self, dtd):
        doc = XMLDocument(element("doc", element("head"),
                                  element("mystery")))
        assert not dtd.is_valid(doc)

    def test_empty_element_with_children(self):
        dtd = parse_dtd("<!ELEMENT a EMPTY><!ELEMENT b EMPTY>", root="a")
        doc = XMLDocument(element("a", element("b")))
        assert any("must be empty" in v for v in dtd.validate(doc))


class TestByteOrderMark:
    """One U+FEFF at offset 0 is skipped, as in an XML document."""

    @staticmethod
    def _shape(dtd):
        return {
            name: (element.category, element.content,
                   [(a.name, a.kind, a.default, a.fixed_value)
                    for a in element.attributes.values()])
            for name, element in dtd.elements.items()
        }

    def test_leading_mark_is_skipped(self):
        from repro.paperdata import FIGURE2_DTD

        plain = parse_dtd(FIGURE2_DTD, root="document")
        marked = parse_dtd("\ufeff" + FIGURE2_DTD, root="document")
        assert self._shape(marked) == self._shape(plain)
        assert marked.root == plain.root == "document"

    @pytest.mark.parametrize("text", [
        " \ufeff<!ELEMENT a EMPTY>",      # after leading whitespace
        "\ufeff\ufeff<!ELEMENT a EMPTY>",  # a second mark
        "<!ELEMENT a EMPTY>\ufeff",       # after a declaration
    ])
    def test_mark_anywhere_else_is_an_error(self, text):
        with pytest.raises(ParseError, match="unexpected DTD content"):
            parse_dtd(text)
