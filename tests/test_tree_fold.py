"""The byte tier's tree fold builds exactly the char tier's trees.

``parse_document`` first folds the byte tier's chunks
(:func:`repro.xmlmodel.tokenizer.fold_tree`: ``body_start``,
``split_body``, the memoized chunk grammar of the dense scan and
``check_after_root``) straight into ``XMLElement`` nodes, and falls
back to the char tier
(``XMLElement.from_events(iter_events(text))``) on anything it cannot
certify.  It promises that for *every* input it returns the char tier's
tree — names, attributes in document order, text runs — or raises the
char tier's error — type, message, line and column (plus
``limit``/``value`` for :class:`~repro.errors.LimitExceeded`).  This
suite replays the parser fuzz corpus (the base documents, the 600
seeded mutants and every mutation operator alone) through both, under
the fuzz ``LIMITS`` and under the defaults, and probes the commit and
fallback boundary.  ``xmlmodel.parse.byte_docs`` and
``xmlmodel.parse.fallbacks`` tell which tier built each tree.
"""

import random

import pytest

from repro.errors import LimitExceeded, ParseError
from repro.observability import default_registry
from repro.resilience import FaultInjector, ParserLimits
from repro.xmlmodel.parser import iter_events, parse_document
from repro.xmlmodel.tree import XMLElement
from tests.test_fuzz_parser import BASE_DOCUMENTS, LIMITS, MUTATIONS, mutate


def _counts():
    registry = default_registry()
    return (registry.counter("xmlmodel.parse.byte_docs").value,
            registry.counter("xmlmodel.parse.fallbacks").value)


def _shape(node):
    """Everything a tree holds, attribute order included."""
    return (node.name, list(node.attributes.items()), list(node.texts),
            [_shape(child) for child in node.children])


def _outcome(thunk):
    """The tree's shape, or the error's identity."""
    try:
        root = thunk()
    except ParseError as error:
        return ("error", type(error).__name__, str(error), error.line,
                error.column, getattr(error, "limit", None),
                getattr(error, "value", None))
    return ("tree", _shape(root))


def assert_fold_agreement(text, limits=None):
    """``parse_document`` gives the char tier's tree or error; returns
    True iff the byte tier built the tree."""
    before = _counts()
    fold = _outcome(lambda: parse_document(text, limits=limits).root)
    after = _counts()
    char = _outcome(
        lambda: XMLElement.from_events(iter_events(text, limits=limits)))
    assert fold == char, (
        f"parse_document diverges from the char tier on {text!r}:\n"
        f"  char={char}\n  fold={fold}"
    )
    committed = after[0] - before[0]
    assert (committed, after[1] - before[1]) in ((1, 0), (0, 1), (0, 0))
    return committed == 1


def assert_agreement_both_limits(text):
    """Agreement under the fuzz caps and under the defaults; returns
    the two commits."""
    return (assert_fold_agreement(text, limits=LIMITS),
            assert_fold_agreement(text))


class TestSeededCorpus:
    """The parser fuzz corpus, replayed through the fold."""

    def test_base_documents_commit_and_agree(self):
        for text in BASE_DOCUMENTS:
            assert assert_agreement_both_limits(text) == (True, True), text

    def test_600_mutants_agree(self):
        # Same seed and schedule as the parser fuzz sweep.
        rng = random.Random(0x20150806)
        capped = defaults = 0
        for round_number in range(600):
            base = BASE_DOCUMENTS[round_number % len(BASE_DOCUMENTS)]
            under_caps, under_defaults = assert_agreement_both_limits(
                mutate(base, rng))
            capped += under_caps
            defaults += under_defaults
        # Agreement must come from commits, not from falling back on
        # every input.  The fuzz caps refuse the deeper nests, a base
        # document nested in <w> elements puts its XML declaration in
        # content, which [17] forbids, and four mutants hold a PI whose
        # target is no name or runs into another character ([16]).
        assert capped >= 71 and defaults >= 95

    def test_every_mutation_operator_alone(self):
        rng = random.Random(0xFACADE)
        capped = defaults = 0
        for mutation in MUTATIONS:
            for base in BASE_DOCUMENTS:
                for __ in range(5):
                    under_caps, under_defaults = (
                        assert_agreement_both_limits(mutation(base, rng)))
                    capped += under_caps
                    defaults += under_defaults
        # Two inputs hold a PI whose target is no name or runs into
        # another character ([16]).
        assert capped >= 55 and defaults >= 70


class TestCommits:
    """Markup the byte tier certifies builds the tree there."""

    @pytest.mark.parametrize("text", [
        '<!DOCTYPE r SYSTEM "r>.dtd"><r><s/></r>',     # DOCTYPE, no subset
        "<!-- c --><?pi x?>\n<a><!-- c -->x<?p?>y<b/>z<!-- d --></a>"
        "<!-- after --><?pi?>\n",                      # comments and PIs
        "<a>x<![CDATA[<b> & ]]>y<![CDATA[]]></a>",     # CDATA holding '<'
        "<a k='&lt;&#65;&#x42;' q=\"&quot;&apos;\">&amp;&gt;&#x3000;"
        "<b/>&#233;</a>",                              # references
        "<a t='café'>été 漢字<b/>☃</a>",                 # UTF-8
        "<a>]]&gt; ]] ] &gt;<!---->-</a>",             # near-misses of [14]
        "<a b=\"1\"\n\tc='2' ></a >",                  # whitespace in tags
        "<r><a/><a/><a>t</a><a>t</a></r>",             # repeated chunks
        "<a>wow! why?<b/>!?</a>",                      # '!', '?' in text
        "<a>x<?pi !?></a>",                            # ... in a PI
        "\ufeff<a>x</a>",                              # byte-order mark
        "\ufeff<?xml version='1.0'?>\n<!-- c --><a/>",  # ... and a declaration
        "<a>\ufeff<b>x\ufeff</b></a>",                  # U+FEFF in text
        "<?xml-stylesheet href='s'?><a><?xmlfoo?></a>",  # PI targets past xml
        "<a><?x y?><?x\ty?><?x-y z?><?x ?><?x:y?></a>",  # legal PI targets
    ])
    def test_certified_shapes_commit(self, text):
        before = _counts()
        assert assert_fold_agreement(text) is True
        assert _counts() == (before[0] + 1, before[1])

    def test_elements_from_one_chunk_own_their_attributes(self):
        before = _counts()
        root = parse_document("<r><a k='1'/><a k='1'/></r>").root
        assert _counts() == (before[0] + 1, before[1])
        first, second = root.children
        assert first.attributes is not second.attributes
        first.attributes["k"] = "2"
        assert second.attributes == {"k": "1"}
        assert parse_document("<r><a k='1'/></r>").root.children[0] \
            .attributes == {"k": "1"}


class TestFallbacks:
    """What the byte tier refuses, the char tier answers unchanged."""

    @pytest.mark.parametrize("text", [
        "<!DOCTYPE a [<!ENTITY e 'v'>]><a/>",    # internal subset
        "<élément/>",                            # non-ASCII name
        "<a>\ud800</a>",                         # lone surrogate
        "<a><!-- \ud800 --></a>",                # ... in a comment
        "<a b='x>y'/>",                          # '>' in an attribute value
        "<a></b>",                               # mismatched end tag
        "<a/><b/>",                              # second root
        "<a><b></a>",                            # unclosed child
        "<a>",                                   # unterminated root
        "</a>",                                  # end tag first
        "<a>x]]>y</a>",                          # ']]>' in text ([14])
        "<a><!-- a -- b --></a>",                # '--' in a comment ([15])
        "<a><!-- ok ---></a>",                   # ... ending in '-'
        "<!-- x -- y --><a/>",                   # ... in the prolog
        "<a/><!-- x -- y -->",                   # ... after the root
        " <?xml version='1.0'?><a/>",            # declaration after space
        "<?xml version='1.0'?><?xml version='1.0'?><a/>",  # a second one
        "<!-- c --><?xml version='1.0'?><a/>",   # ... after a comment
        "<a><?xml version='1.0'?></a>",          # ... in content
        "<a/><?xml version='1.0'?>",             # ... after the root
        "<?XML v?><a/>",                         # target xml, any case
        "<a><?xMl?></a>",
        "<?xml?><a/>",                           # no declaration: no space
        " \ufeff<a/>",                           # mark after a space
        "<?xml version='1.0'?>\ufeff<a/>",       # ... after the declaration
        "\ufeff\ufeff<a/>",                      # a second mark
        "<a><? x?></a>",                         # PI target: no name
        "<a><?1?></a>",
        "<?-x?><a/>",
        "<a><??></a>",
        "<a/><? y?>",
        "<a><?x?y?></a>",                        # ... running on ([16])
        "<a><?x]?></a>",
        "<a><?x\x0b?></a>",
        "<a>x<?pi!?></a>",
    ])
    def test_refused_shapes_fall_back(self, text):
        before = _counts()
        assert assert_fold_agreement(text) is False
        assert _counts() == (before[0], before[1] + 1)

    @pytest.mark.parametrize(("text", "limits", "limit"), [
        ("<a><a><a/></a></a>", ParserLimits(max_depth=2), "max_depth"),
        ("<a><a></a></a>", ParserLimits(max_depth=1), "max_depth"),
        ("<a x='1' y='2' z='3'/>", ParserLimits(max_attributes=2),
         "max_attributes"),
        ("<abcdefghi/>", ParserLimits(max_name_length=8), "max_name_length"),
        ("<a abcdefghi='1'/>", ParserLimits(max_name_length=8),
         "max_name_length"),
        ("<a></abcdefghi>", ParserLimits(max_name_length=8),
         "max_name_length"),
        ("<a>" + "x" * 9 + "</a>", ParserLimits(max_text_length=8),
         "max_text_length"),
        ("<a k='" + "v" * 9 + "'/>", ParserLimits(max_text_length=8),
         "max_text_length"),
        ("<a><![CDATA[" + "c" * 9 + "]]></a>",
         ParserLimits(max_text_length=8), "max_text_length"),
        ("<a>é" + "x" * 8 + "</a>",
         ParserLimits(max_text_length=8), "max_text_length"),
    ])
    def test_each_cap_falls_back_to_the_char_tier_error(self, text, limits,
                                                        limit):
        before = _counts()
        assert assert_fold_agreement(text, limits=limits) is False
        assert _counts() == (before[0], before[1] + 1)
        with pytest.raises(LimitExceeded) as info:
            parse_document(text, limits=limits)
        assert info.value.limit == limit

    def test_input_size_cap_is_checked_once_before_either_tier(self):
        before = _counts()
        with pytest.raises(LimitExceeded) as info:
            parse_document("<a>" + "x" * 64 + "</a>",
                           limits=ParserLimits(max_input_bytes=32))
        assert info.value.limit == "max_input_bytes"
        assert _counts() == before

    @pytest.mark.parametrize("text", ["<a/>", "<a></b>"])
    def test_parse_probe_fires_once_on_either_tier(self, text):
        with FaultInjector() as injector:
            _outcome(lambda: parse_document(text).root)
        assert injector.checks("parse") == 1

    def test_fallbacks_keep_no_frames(self):
        # The shared FallbackRequired instance would chain each raise's
        # frames, and with them the document, onto its traceback.
        from repro.xmlmodel import tokenizer

        body = "<r>" + "<item k='v'>text</item>" * 20_000
        for text in (body + "</q>",                  # mismatched at the end
                     body + "x]]>y</r>",             # [14] at the end
                     "<!DOCTYPE r [<!ENTITY e 'v'>]>" + body + "</r>"):
            before = _counts()
            _outcome(lambda: parse_document(text).root)
            assert _counts() == (before[0], before[1] + 1)
            assert tokenizer._FALLBACK.__traceback__ is None
            assert tokenizer._FALLBACK.__context__ is None
