"""Hardening tests: hostile documents against the parser and both engines."""

import xml.etree.ElementTree as ElementTree

import pytest

from repro.errors import LimitExceeded, ParseError
from repro.resilience import ParserLimits
from repro.xmlmodel.parser import iter_events, parse_document


class TestCharacterReferences:
    """Invalid numeric character references raise ParseError, never
    ValueError (they used to escape ``int``/``chr`` raw)."""

    @pytest.mark.parametrize(
        "text",
        [
            "<a>&#x;</a>",          # empty hex digits
            "<a>&#xZZ;</a>",        # non-hex digits
            "<a>&#;</a>",           # empty decimal digits
            "<a>&#abc;</a>",        # non-decimal digits
            "<a>&#+12;</a>",        # int() would accept the sign
            "<a>&# 12;</a>",        # int() would accept the whitespace
            "<a>&#1114112;</a>",    # one past U+10FFFF
            "<a>&#x110000;</a>",    # one past U+10FFFF, hex
            "<a>&#xD800;</a>",      # low surrogate bound
            "<a>&#xDFFF;</a>",      # high surrogate bound
            "<a>&#55296;</a>",      # surrogate, decimal spelling
            "<a>&#0;</a>",          # NUL is not an XML character
            "<a b='&#x;'/>",        # same checks inside attribute values
        ],
    )
    def test_invalid_references_raise_parse_error(self, text):
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert info.value.line is not None
        with pytest.raises(ParseError):
            list(iter_events(text))

    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("<a>&#65;</a>", "A"),
            ("<a>&#x41;</a>", "A"),
            ("<a>&#x1F600;</a>", "\U0001F600"),
            ("<a>&#x10FFFF;</a>", "\U0010FFFF"),
            ("<a>&#xd7ff;</a>", "퟿"),
        ],
    )
    def test_valid_references_still_decode(self, text, expected):
        assert parse_document(text).root.text == expected


class TestAttributeLists:
    """XML 1.0 requires whitespace before every attribute ([40] STag,
    [44] EmptyElemTag) and keeps ``<`` out of values ([10] AttValue)."""

    @pytest.mark.parametrize(
        ("text", "message", "line", "column"),
        [
            ("<a b='1'c='2'/>",
             "missing whitespace before an attribute of <a>", 1, 9),
            ("<a b = '1'c='2'>x</a>",
             "missing whitespace before an attribute of <a>", 1, 11),
            ('<a b="<"/>', "'<' in the value of attribute 'b'", 1, 7),
            ("<a\n  b='x<y'/>", "'<' in the value of attribute 'b'", 2, 7),
        ],
    )
    def test_malformed_lists_raise_parse_error(self, text, message, line,
                                               column):
        for parse in (parse_document, lambda t: list(iter_events(t))):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.message == message
            assert (info.value.line, info.value.column) == (line, column)

    def test_whitespace_separated_lists_still_parse(self):
        doc = parse_document("<a b='1'\tc='&lt;'\n d=\"'\"/>")
        assert doc.root.attributes == {"b": "1", "c": "<", "d": "'"}


class TestCharacterDataAndComments:
    """``]]>`` may not occur in character data ([14]), nor ``--`` in a
    comment, whose text may not end in ``-`` either ([15]); the error
    points at the offending ``]]>`` or ``--``."""

    @pytest.mark.parametrize(
        ("text", "message", "line", "column"),
        [
            ("<a>x]]>y</a>", "']]>' in character data", 1, 5),
            ("<a>\n  <b/>tail]]></a>", "']]>' in character data", 2, 11),
            ("<a><!-- a -- b --></a>", "'--' in a comment", 1, 11),
            ("<a><!-- ok ---></a>", "'--' in a comment", 1, 12),
            ("<!-- x -- y --><a/>", "'--' in a comment", 1, 8),
            ("<?xml version='1.0'?>\n<!--x--y--><a/>", "'--' in a comment",
             2, 6),
            ("<a/>\n<!-- x -- y -->", "'--' in a comment", 2, 8),
        ],
    )
    def test_malformed_shapes_raise_parse_error(self, text, message, line,
                                                column):
        for parse in (parse_document, lambda t: list(iter_events(t))):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.message == message
            assert (info.value.line, info.value.column) == (line, column)

    def test_near_misses_still_parse(self):
        doc = parse_document(
            "<a b=']]>'>]]&gt; ]] ] &gt;<!---->-<!-- - -->"
            "<![CDATA[]]]]><![CDATA[>]]></a>"
        )
        assert doc.root.attributes == {"b": "]]>"}
        assert doc.root.text == "]]> ]] ] >-]]>"

    @pytest.mark.parametrize("text", [
        "<a>x]]>y</a>",
        "<a><!-- a -- b --></a>",
        "<!-- x -- y --><a/>",
        "<a><!-- ok ---></a>",
    ])
    def test_expat_rejects_the_same_shapes(self, text):
        with pytest.raises(ElementTree.ParseError):
            ElementTree.fromstring(text)
        with pytest.raises(ParseError):
            parse_document(text)

    def test_expat_accepts_cdata_close_in_an_attribute_value(self):
        text = "<a b=']]&gt;' c=\"x]]>y\">]]&gt;<!---->-</a>"
        expected = ElementTree.fromstring(text)
        root = parse_document(text).root
        assert root.attributes == expected.attrib
        assert root.text == expected.text


class TestPrologMarks:
    """A byte-order mark may open a document (§4.3.3) and the XML
    declaration may come only there or right after it ([22], [23]); a PI
    whose target is ``xml`` in any case is an error anywhere ([17]).
    The error points at the ``<?``; expat agrees on every shape."""

    _DECLARATION = "<?xml version='1.0'?>"

    @pytest.mark.parametrize(
        ("text", "message", "line", "column"),
        [
            ("  " + _DECLARATION + "<a/>",
             "XML declaration not at the start of the document", 1, 3),
            (_DECLARATION + _DECLARATION + "<a/>",
             "XML declaration not at the start of the document", 1, 22),
            ("<!-- c -->" + _DECLARATION + "<a/>",
             "XML declaration not at the start of the document", 1, 11),
            ("<!DOCTYPE a>\n" + _DECLARATION + "<a/>",
             "XML declaration not at the start of the document", 2, 1),
            ("<a>\n  " + _DECLARATION + "</a>",
             "XML declaration not at the start of the document", 2, 3),
            ("<a/>" + _DECLARATION,
             "XML declaration not at the start of the document", 1, 5),
            ("\ufeff \ufeff" + _DECLARATION + "<a/>",
             "expected an element start tag", 1, 3),
            ("<?XML v?><a/>",
             "reserved processing instruction target 'XML'", 1, 1),
            ("<a><?xMl?></a>",
             "reserved processing instruction target 'xMl'", 1, 4),
            ("<?xml?><a/>",
             "reserved processing instruction target 'xml'", 1, 1),
            (" \ufeff<a/>", "expected an element start tag", 1, 2),
            (_DECLARATION + "\ufeff<a/>", "expected an element start tag",
             1, 22),
            ("\ufeff\ufeff<a/>", "expected an element start tag", 1, 2),
        ],
    )
    def test_misplaced_shapes_raise_parse_error(self, text, message, line,
                                                column):
        for parse in (parse_document, lambda t: list(iter_events(t))):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.message == message
            assert (info.value.line, info.value.column) == (line, column)
        with pytest.raises(ElementTree.ParseError):
            ElementTree.fromstring(text)

    @pytest.mark.parametrize("text", [
        "\ufeff<a>x</a>",
        "\ufeff" + _DECLARATION + "\n<!-- c --><a b='1'/>",
        "\ufeff<!DOCTYPE a><a/>",
        "<a>\ufeff<b>\ufeff</b>\ufeff</a>",
        "<?xml\tversion='1.0'?><a/>",
        "<?xml-stylesheet href='s'?><a><?xmlfoo x?></a><?xml-x?>",
    ])
    def test_legal_shapes_parse_as_expat_does(self, text):
        from repro.xmlmodel.parser import from_etree
        from repro.xmlmodel.tree import XMLElement

        expected = from_etree(ElementTree.fromstring(text))
        assert parse_document(text).root == expected
        assert XMLElement.from_events(iter_events(text)) == expected


class TestProcessingInstructionTargets:
    """A PI is ``<?``, a target name, then whitespace or ``?>`` ([16]).
    A target that is no name is an error where the name should start;
    anything else after the name is one where it stands.  Both tiers
    raise the same error (the byte tier refuses these shapes), and expat
    refuses each."""

    _AFTER = "processing instruction target 'x' must be followed by " \
        "whitespace or '?>'"

    @pytest.mark.parametrize(
        ("text", "message", "line", "column"),
        [
            ("<a><? x?></a>", "expected a name", 1, 6),
            ("<a><?1?></a>", "expected a name", 1, 6),
            ("<?-x?><a/>", "expected a name", 1, 3),
            ("<a><??></a>", "expected a name", 1, 6),
            ("<a/><? y?>", "expected a name", 1, 7),
            ("<a>\n<?x?y?></a>", _AFTER, 2, 4),
            ("<a><?x]?></a>", _AFTER, 1, 7),
            ("<a><?x\x0b?></a>", _AFTER, 1, 7),
        ],
    )
    def test_malformed_targets_raise_parse_error(self, text, message, line,
                                                 column):
        from repro.observability import default_registry

        byte_docs = default_registry().counter("xmlmodel.parse.byte_docs")
        before = byte_docs.value
        for parse in (parse_document, lambda t: list(iter_events(t))):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.message == message
            assert (info.value.line, info.value.column) == (line, column)
        assert byte_docs.value == before
        with pytest.raises(ElementTree.ParseError):
            ElementTree.fromstring(text)

    @pytest.mark.parametrize("text", [
        "<a><?x y?></a>", "<a><?x\ty?></a>", "<a><?x-y z?></a>",
        "<a><?x ?></a>", "<?x?><a><?x\n?></a>",
    ])
    def test_legal_targets_parse_as_expat_does(self, text):
        from repro.xmlmodel.parser import from_etree
        from repro.xmlmodel.tree import XMLElement

        expected = from_etree(ElementTree.fromstring(text))
        assert parse_document(text).root == expected
        assert XMLElement.from_events(iter_events(text)) == expected

    def test_prefixed_target_is_legal_though_expat_refuses_it(self):
        # XML 1.0 allows ':' in a target; namespace-aware expat refuses
        # it, as it refuses '<?xml:a?>' (DESIGN §8).
        text = "<a><?x:y?></a>"
        assert parse_document(text).root.name == "a"
        assert [event[0] for event in iter_events(text)] == ["start", "end"]
        with pytest.raises(ElementTree.ParseError):
            ElementTree.fromstring(text)

    def test_unterminated_instruction_points_past_its_opening(self):
        for text in ("<a><?x", "<a><?x y"):
            with pytest.raises(ParseError) as info:
                list(iter_events(text))
            assert info.value.message == "unterminated processing instruction"
            assert (info.value.line, info.value.column) == (1, 6)


class TestDoctypeLiterals:
    def test_gt_inside_system_id_does_not_terminate(self):
        doc = parse_document('<!DOCTYPE a SYSTEM "odd>name.dtd"><a/>')
        assert doc.root.name == "a"

    def test_gt_inside_single_quoted_literal(self):
        doc = parse_document("<!DOCTYPE a SYSTEM 'odd>name.dtd'><a/>")
        assert doc.root.name == "a"

    def test_brackets_inside_literal_do_not_nest(self):
        doc = parse_document(
            '<!DOCTYPE a [ <!ENTITY e "val]ue"> ]><a/>'
        )
        assert doc.root.name == "a"

    def test_unterminated_literal_is_an_error(self):
        with pytest.raises(ParseError):
            parse_document('<!DOCTYPE a SYSTEM "no-close <a/>')

    def test_internal_subset_still_skipped(self):
        doc = parse_document("<!DOCTYPE a [ <!ELEMENT a (b)> ]><a><b/></a>")
        assert doc.root.find("b") is not None


class TestDepthLimits:
    """Deep nesting is policy-limited, never interpreter-limited."""

    @staticmethod
    def _nested(depth, name="a"):
        return f"<{name}>" * depth + f"</{name}>" * depth

    def test_10k_deep_rejected_by_tree_parser(self):
        with pytest.raises(ParseError, match="nesting depth limit"):
            parse_document(self._nested(10_000))

    def test_10k_deep_rejected_by_event_stream(self):
        with pytest.raises(ParseError, match="nesting depth limit"):
            list(iter_events(self._nested(10_000)))

    def test_limit_exceeded_is_a_parse_error_with_metadata(self):
        with pytest.raises(LimitExceeded) as info:
            parse_document(self._nested(10_000))
        assert info.value.limit == "max_depth"
        assert info.value.value == 1001
        assert info.value.line == 1

    def test_no_recursion_error_even_with_tiny_sys_limit(self):
        import sys

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            doc = parse_document(self._nested(80), limits=ParserLimits())
        finally:
            sys.setrecursionlimit(limit)
        assert doc.height() == 80

    def test_explicit_depth_limit(self):
        limits = ParserLimits(max_depth=3)
        assert parse_document(self._nested(3), limits=limits).height() == 3
        with pytest.raises(LimitExceeded):
            parse_document(self._nested(4), limits=limits)

    def test_self_closing_element_counts_toward_depth(self):
        limits = ParserLimits(max_depth=2)
        with pytest.raises(LimitExceeded):
            parse_document("<a><b><c/></b></a>", limits=limits)

    def test_ambient_limits(self):
        with ParserLimits(max_depth=2):
            with pytest.raises(LimitExceeded):
                parse_document(self._nested(3))
        # Out of the extent, defaults apply again.
        assert parse_document(self._nested(3)).height() == 3

    def test_unlimited_disables_the_cap(self):
        import sys

        deep = 2 * sys.getrecursionlimit()
        doc = parse_document(
            self._nested(deep), limits=ParserLimits.unlimited()
        )
        assert doc.height() == deep


class TestOtherLimits:
    def test_input_size(self):
        limits = ParserLimits(max_input_bytes=16)
        with pytest.raises(LimitExceeded) as info:
            parse_document("<a>" + "x" * 100 + "</a>", limits=limits)
        assert info.value.limit == "max_input_bytes"

    def test_input_size_counts_utf8_bytes(self):
        # 9 code points spelling more than 16 UTF-8 bytes.
        text = "<a>ééééé</a>".replace("a", "ab")
        limits = ParserLimits(max_input_bytes=len(text) + 1)
        with pytest.raises(LimitExceeded):
            parse_document(text * 3, limits=limits)

    def test_input_size_counts_a_lone_surrogate(self):
        # 8 code points, 10 bytes with the surrogate's three: close
        # enough to the cap that the exact size is computed, which must
        # not leak UnicodeEncodeError.
        text = "<a>\ud800</a>"
        document = parse_document(text, limits=ParserLimits(
            max_input_bytes=16
        ))
        assert document.root.text == "\ud800"
        with pytest.raises(LimitExceeded) as info:
            parse_document(text, limits=ParserLimits(max_input_bytes=9))
        assert info.value.value == 10

    def test_attribute_count(self):
        attrs = " ".join(f"a{i}='v'" for i in range(5))
        limits = ParserLimits(max_attributes=4)
        with pytest.raises(LimitExceeded) as info:
            parse_document(f"<a {attrs}/>", limits=limits)
        assert info.value.limit == "max_attributes"
        parse_document(f"<a {attrs}/>", limits=ParserLimits(max_attributes=5))

    def test_name_length(self):
        limits = ParserLimits(max_name_length=8)
        with pytest.raises(LimitExceeded) as info:
            parse_document(f"<{'n' * 9}/>", limits=limits)
        assert info.value.limit == "max_name_length"

    def test_text_run_length(self):
        limits = ParserLimits(max_text_length=10)
        with pytest.raises(LimitExceeded) as info:
            parse_document("<a>" + "x" * 11 + "</a>", limits=limits)
        assert info.value.limit == "max_text_length"
        with pytest.raises(LimitExceeded):
            parse_document("<a><![CDATA[" + "x" * 11 + "]]></a>",
                           limits=limits)
        with pytest.raises(LimitExceeded):
            parse_document("<a b='" + "x" * 11 + "'/>", limits=limits)

    def test_events_enforce_the_same_limits(self):
        limits = ParserLimits(max_attributes=1)
        with pytest.raises(LimitExceeded):
            list(iter_events("<a x='1' y='2'/>", limits=limits))

    def test_defaults_accept_ordinary_documents(self):
        from repro.paperdata import FIGURE1_XML

        assert parse_document(FIGURE1_XML).root.name == "document"

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            ParserLimits(max_depth=0)
        with pytest.raises(ValueError):
            ParserLimits(max_input_bytes=-1)
