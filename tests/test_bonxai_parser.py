"""Unit tests for the concrete BonXai parser and pretty printer."""

import pytest

from repro.bonxai.parser import parse_bonxai
from repro.bonxai.printer import print_schema
from repro.errors import ParseError

MINIMAL = """
global { doc }
grammar {
  doc = { (element item)* }
  item = mixed { attribute id }
}
"""


class TestBlocks:
    def test_minimal(self):
        schema = parse_bonxai(MINIMAL)
        assert schema.global_names == ["doc"]
        assert len(schema.rules) == 2

    def test_namespace_headers(self):
        schema = parse_bonxai(
            "target namespace urn:example\n"
            "namespace xs = http://www.w3.org/2001/XMLSchema\n"
            "default namespace urn:default\n" + MINIMAL
        )
        assert schema.target_namespace == "urn:example"
        assert schema.namespaces["xs"].startswith("http")
        assert schema.namespaces[""] == "urn:default"

    def test_global_block_required(self):
        with pytest.raises(ParseError):
            parse_bonxai("grammar { a = { element b } }")

    def test_comments_stripped(self):
        schema = parse_bonxai(
            "# leading comment\nglobal { doc } # roots\n"
            "grammar { doc = { } # empty\n }"
        )
        assert schema.global_names == ["doc"]

    def test_multiple_globals(self):
        schema = parse_bonxai(
            "global { a, b c }\ngrammar { a = { } }"
        )
        assert schema.global_names == ["a", "b", "c"]


class TestGroupsBlock:
    SOURCE = """
    global { doc }
    groups {
      group markup = { element b | element i }
      attribute-group meta = { attribute id, attribute lang? }
    }
    grammar {
      doc = mixed { attribute-group meta, (group markup)* }
    }
    """

    def test_group_parsed(self):
        schema = parse_bonxai(self.SOURCE)
        assert "markup" in schema.groups

    def test_attribute_group_parsed(self):
        schema = parse_bonxai(self.SOURCE)
        assert schema.attribute_groups["meta"] == [
            ("id", True), ("lang", False),
        ]

    def test_group_body_must_not_be_empty(self):
        with pytest.raises(ParseError):
            parse_bonxai(
                "global { a }\ngroups { group g = { } }\n"
                "grammar { a = { } }"
            )

    def test_attribute_group_rejects_elements(self):
        with pytest.raises(ParseError):
            parse_bonxai(
                "global { a }\n"
                "groups { attribute-group g = { element b } }\n"
                "grammar { a = { } }"
            )


class TestGrammarRules:
    def test_rule_order_preserved(self):
        schema = parse_bonxai(
            "global { a }\ngrammar {\n"
            "  a = { element b }\n"
            "  b//a = { element c }\n"
            "  (a|b) = { }\n"
            "}"
        )
        texts = [rule.ancestor.text for rule in schema.rules]
        assert texts == ["a", "b//a", "(a|b)"]

    def test_mixed_keyword(self):
        schema = parse_bonxai(
            "global { a }\ngrammar { a = mixed { element b } }"
        )
        assert schema.rules[0].child.mixed

    def test_type_rule(self):
        schema = parse_bonxai(
            "global { a }\ngrammar {\n"
            "  a = { }\n"
            "  @size = { type xs:integer }\n"
            "}"
        )
        rule = schema.rules[1]
        assert rule.is_attribute_rule
        assert rule.child.type_name == "xs:integer"

    def test_counters_in_child_patterns(self):
        schema = parse_bonxai(
            "global { a }\ngrammar { a = { element b{2,4} } }"
        )
        body = schema.rules[0].child.body
        assert body[0] == "counter"
        assert (body[2], body[3]) == (2, 4)

    def test_counter_unbounded(self):
        schema = parse_bonxai(
            "global { a }\ngrammar { a = { element b{2,*} } }"
        )
        assert schema.rules[0].child.body[3] is None

    def test_interleave_precedence(self):
        schema = parse_bonxai(
            "global { a }\n"
            "grammar { a = { attribute n, element f? & element c? } }"
        )
        body = schema.rules[0].child.body
        assert body[0] == "seq"
        assert body[1][1][0] == "interleave"

    def test_bare_element_names_rejected(self):
        with pytest.raises(ParseError):
            parse_bonxai("global { a }\ngrammar { a = { b } }")

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError):
            parse_bonxai("global { a }\ngrammar { a { element b } }")

    def test_unbalanced_braces_rejected(self):
        with pytest.raises(ParseError):
            parse_bonxai("global { a }\ngrammar { a = { element b }")


class TestConstraints:
    SOURCE = """
    global { doc }
    grammar { doc = { (element item)* }
              item = { attribute id, attribute ref? } }
    constraints {
      unique doc/item (@id)
      key itemKey doc/item (@id)
      keyref itemRef doc/item (@ref) refers itemKey
    }
    """

    def test_parsed(self):
        schema = parse_bonxai(self.SOURCE)
        kinds = [c.kind for c in schema.constraints]
        assert kinds == ["unique", "key", "keyref"]
        assert schema.constraints[1].name == "itemKey"
        assert schema.constraints[2].refers == "itemKey"
        assert schema.constraints[0].fields == ("id",)

    def test_key_requires_name(self):
        with pytest.raises(ParseError):
            parse_bonxai(
                "global { a }\ngrammar { a = { } }\n"
                "constraints { key a (@x) }"
            )

    def test_fields_must_be_attributes(self):
        with pytest.raises(ParseError):
            parse_bonxai(
                "global { a }\ngrammar { a = { } }\n"
                "constraints { unique a (id) }"
            )


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("source", [MINIMAL, TestGroupsBlock.SOURCE,
                                        TestConstraints.SOURCE])
    def test_parse_print_parse(self, source):
        first = parse_bonxai(source)
        printed = print_schema(first)
        second = parse_bonxai(printed)
        assert [r.ancestor.text for r in first.rules] == [
            r.ancestor.text for r in second.rules
        ]
        assert first.global_names == second.global_names
        assert len(first.constraints) == len(second.constraints)
        # Printing is a fixpoint after one round trip.
        assert print_schema(second) == printed

    def test_paper_figures_roundtrip(self):
        from repro.paperdata import FIGURE4_BONXAI, FIGURE5_BONXAI

        for source in (FIGURE4_BONXAI, FIGURE5_BONXAI):
            schema = parse_bonxai(source)
            printed = print_schema(schema)
            again = parse_bonxai(printed)
            assert len(schema.rules) == len(again.rules)
            assert print_schema(again) == printed


class TestByteOrderMark:
    """One U+FEFF at offset 0 is skipped, as in an XML document."""

    def test_leading_mark_is_skipped(self):
        from repro.paperdata import FIGURE5_BONXAI

        plain = parse_bonxai(FIGURE5_BONXAI)
        marked = parse_bonxai("\ufeff" + FIGURE5_BONXAI)
        assert print_schema(marked) == print_schema(plain)

    @pytest.mark.parametrize("prefix", [" ", "\n", "\ufeff"])
    def test_mark_anywhere_else_is_an_error(self, prefix):
        with pytest.raises(ParseError, match="unexpected content"):
            parse_bonxai(prefix + "\ufeff" + MINIMAL)
