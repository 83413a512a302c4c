"""Hardening suite: the dense scan certifies only what the char parser accepts.

``StreamingValidator.validate_bytes`` runs the byte fast tier
(:mod:`repro.xmlmodel.tokenizer`: ``body_start``, ``split_body``, the
memoized ``parse_chunk`` and ``check_after_root``) fused with the dense
table loop, and falls
back to the char parser plus compat loop on anything it cannot certify.
It promises that for *every* input it returns the report
``validate_events(iter_events(text))`` returns — verdict, violations,
typing and typing order — or raises the same error — type, message,
line, and column (plus ``limit``/``value`` for
:class:`~repro.errors.LimitExceeded`).  The dangerous surface is the set
of inputs the scan *does* commit; this suite sweeps it with the same
600-mutant seeded corpus the parser fuzz suite uses, plus targeted
probes of the limits plumbing and the fallback boundary.

Each input is validated against schemas built from its own names, so a
well-formed mutant can commit on the dense path: one type that admits
every name-shaped token of the input as the root, as a child in any
order, and as an optional attribute.  The *mixed* variant accepts text
and commits every certifiable document; the *element-only* variant
rejects significant text, so the scan's undecoded whitespace test is
held to the compat loop's ``str.strip``.
"""

import functools
import random
import re

import pytest

from repro.engine import StreamingValidator, compile_xsd
from repro.errors import LimitExceeded, ParseError
from repro.observability import default_registry
from repro.regex.ast import star, sym, union
from repro.resilience import ParserLimits
from repro.xmlmodel.parser import iter_events
from repro.xsd.content import AttributeUse, ContentModel
from repro.xsd.model import XSD
from repro.xsd.typednames import TypedName
from tests.test_fuzz_parser import BASE_DOCUMENTS, LIMITS, MUTATIONS, mutate

pytestmark = pytest.mark.differential

# Over-inclusive on purpose: every name the char parser could read (and
# some it could not) becomes a schema name.
_NAME_TOKEN = re.compile(r"[\w:][\w:.\-]*")


@functools.lru_cache(maxsize=None)
def _validator(names, mixed):
    typed = [sym(TypedName(name, "T")) for name in names]
    model = ContentModel(
        star(union(*typed)),
        mixed=mixed,
        attributes=tuple(AttributeUse(name, required=False)
                         for name in names),
    )
    xsd = XSD(ename=names, types={"T"}, rho={"T": model},
              start={TypedName(name, "T") for name in names})
    return StreamingValidator(compile_xsd(xsd))


def permissive_validator(text, mixed):
    """A validator for a schema built from ``text``'s own names."""
    names = tuple(sorted(set(_NAME_TOKEN.findall(text)))) or ("x",)
    return _validator(names, mixed)


def _outcome(thunk):
    """Normalize a validation attempt: the report, or the error."""
    try:
        report = thunk()
    except ParseError as error:
        return ("error", type(error).__name__, str(error), error.line,
                error.column, getattr(error, "limit", None),
                getattr(error, "value", None))
    return ("report", report.valid, list(report.violations),
            list(report.typing.items()))


def _dense_docs():
    return default_registry().counter("engine.dense.docs").value


def assert_scan_agreement(text, mixed):
    """``validate_bytes`` (and ``validate`` of the text) agree with the
    compat route under the ambient limits; returns True iff the bytes
    scan committed the document."""
    validator = permissive_validator(text, mixed)
    before = _dense_docs()
    scan = _outcome(lambda: validator.validate_bytes(text.encode("utf-8")))
    committed = _dense_docs() - before == 1
    compat = _outcome(lambda: validator.validate_events(iter_events(text)))
    variant = "mixed" if mixed else "element-only"
    assert scan == compat, (
        f"dense scan diverges on {text!r} ({variant}):\n"
        f"  compat={compat}\n  scan={scan}"
    )
    assert _outcome(lambda: validator.validate(text)) == compat, (
        f"validate(text) diverges on {text!r} ({variant})"
    )
    return committed


def assert_tokenizer_agreement(text, limits=None):
    """Both schema variants agree under ``limits`` (installed ambiently:
    ``validate_bytes`` reads the ambient limits); returns the mixed
    variant's commit."""
    with limits or ParserLimits():
        committed = assert_scan_agreement(text, mixed=True)
        assert_scan_agreement(text, mixed=False)
    return committed


class TestSeededCorpus:
    """The parser fuzz corpus, replayed through the dense scan."""

    def test_base_documents_agree(self):
        for text in BASE_DOCUMENTS:
            assert_tokenizer_agreement(text, limits=LIMITS)

    def test_600_mutants_agree(self):
        # Same seed and mutation schedule as the parser fuzz sweep, so
        # the two suites certify the same inputs.
        rng = random.Random(0x20150806)
        committed = 0
        for round_number in range(600):
            base = BASE_DOCUMENTS[round_number % len(BASE_DOCUMENTS)]
            committed += assert_tokenizer_agreement(
                mutate(base, rng), limits=LIMITS
            )
        # The replay must reach the commit path, not agree by falling
        # back every time (four mutants hold a PI whose target is no
        # name or runs into another character, which [16] forbids).
        assert committed >= 71

    def test_every_mutation_operator_alone(self):
        rng = random.Random(0xFACADE)
        for mutation in MUTATIONS:
            for base in BASE_DOCUMENTS:
                for __ in range(5):
                    assert_tokenizer_agreement(
                        mutation(base, rng), limits=LIMITS
                    )


class TestLimitsPlumbing:
    """Ambient ParserLimits reach the dense scan intact."""

    def test_ambient_limits_are_honored(self):
        deep = "<a>" * 10 + "x" + "</a>" * 10
        assert_tokenizer_agreement(deep, limits=ParserLimits(max_depth=4))
        validator = permissive_validator(deep, mixed=True)
        with ParserLimits(max_depth=4):
            with pytest.raises(LimitExceeded) as caught:
                validator.validate_bytes(deep.encode("utf-8"))
        assert caught.value.limit == "max_depth"

    def test_input_size_cap_is_eager_and_identical(self):
        text = "<a>" + "x" * 64 + "</a>"
        limits = ParserLimits(max_input_bytes=32)
        with limits, pytest.raises(LimitExceeded) as fast:
            permissive_validator(text, mixed=True).validate_bytes(
                text.encode("utf-8")
            )
        with pytest.raises(LimitExceeded) as reference:
            iter_events(text, limits=limits)  # raises before iteration
        assert str(fast.value) == str(reference.value)
        assert fast.value.limit == reference.value.limit
        assert fast.value.value == reference.value.value

    def test_per_chunk_caps_match_reference_errors(self):
        cases = [
            ("<" + "n" * 20 + "/>", ParserLimits(max_name_length=8)),
            ("<a>" + "y" * 40 + "</a>", ParserLimits(max_text_length=16)),
            ("<a " + " ".join(f'k{i}="v"' for i in range(6)) + "/>",
             ParserLimits(max_attributes=3)),
            ("<a k='" + "v" * 40 + "'/>", ParserLimits(max_text_length=16)),
            ("<a><![CDATA[" + "c" * 17 + "]]></a>",
             ParserLimits(max_text_length=16)),
            ("<a><![CDATA[" + "c" * 16 + "]]></a>",
             ParserLimits(max_text_length=16)),
            # A comment splits the text into two runs, each within the cap
            # and their sum over it; then the run before, and the run
            # after, over the cap alone.
            ("<a>" + "y" * 10 + "<!-- c -->" + "y" * 10 + "</a>",
             ParserLimits(max_text_length=16)),
            ("<a>" + "y" * 17 + "<!-- c -->" + "y" * 10 + "</a>",
             ParserLimits(max_text_length=16)),
            ("<a>" + "y" * 10 + "<!-- c -->" + "y" * 17 + "</a>",
             ParserLimits(max_text_length=16)),
        ]
        for text, limits in cases:
            assert_tokenizer_agreement(text, limits=limits)


class TestFallbackBoundary:
    """The scan commits when it can and falls back when it must."""

    def test_clean_document_takes_the_fast_tier(self):
        text = "<doc a='1'><item>text</item><item/></doc>"
        assert assert_tokenizer_agreement(text) is True
        report = permissive_validator(text, mixed=True).validate_bytes(
            text.encode("utf-8")
        )
        assert report.valid
        assert list(report.typing) == [
            "/doc[1]", "/doc[1]/item[1]", "/doc[1]/item[2]",
        ]

    @pytest.mark.parametrize("text", [
        "<!DOCTYPE d><d/>",                      # prolog DOCTYPE
        "<a><!-- c --></a>",                     # comment in the body
        "<a><![CDATA[x]]></a>",                  # CDATA in the body
        "<a>&amp;</a>",                          # entity reference
        "<a b='&lt;'/>",                         # entity in attribute
        "<a><!-- <b>x</b> > --></a>",            # '<' and '>' in a comment
        "<a><?pi <b/> > ?></a>",                 # ... in a PI
        "<a><![CDATA[<b>x</b> >]]></a>",         # ... in a CDATA section
        "<a><![CDATA[]]></a>",                   # empty CDATA: no text event
        '<!DOCTYPE a SYSTEM "a>b.dtd"><a/>',     # quoted '>' in a DOCTYPE
        "<a/><!-- c --><?pi?>\n",               # comment and PI after root
        "<a>caf\u00e9 &#x3000;&lt;</a>",        # non-ASCII text, references
        "\ufeff<a>x</a>",                        # byte-order mark
        "\ufeff<?xml version='1.0'?><!DOCTYPE a><a/>",  # ... declaration
        "<a>\ufeff<b/>\ufeff</a>",               # U+FEFF in text
        "<?xml-stylesheet h='s'?><a><?xmlfoo?></a>",  # targets past xml
        "<a><?x y?><?x\ty?><?x-y z?><?x ?><?x:y?></a>",  # PI targets
    ])
    def test_rich_markup_commits(self, text):
        # Markup that never changes a verdict stays on the dense path.
        assert assert_tokenizer_agreement(text) is True
        assert permissive_validator(text, mixed=True).validate(text).valid

    @pytest.mark.parametrize("text", [
        "<élément/>",                  # non-ASCII name
        "<!DOCTYPE a [<!ENTITY e 'v'>]><a/>",    # internal subset
        "<!DOCTYPE a [ garbage %% ]><a/>",       # ... one without a '>'
    ])
    def test_uncertifiable_inputs_delegate(self, text):
        # Valid under the mixed schema, yet never committed by the scan.
        assert assert_tokenizer_agreement(text) is False
        assert permissive_validator(text, mixed=True).validate(text).valid

    @pytest.mark.parametrize("data", [
        b"<a>\xff</a>",                          # text
        b"<a b='\xc3'/>",                        # attribute value
        b"<a><!-- \xed\xa0\x80 --></a>",         # comment (a surrogate)
    ])
    def test_undecodable_body_bytes_delegate(self, data):
        from repro.engine.streaming import as_events

        validator = permissive_validator("a b", mixed=True)
        before = _dense_docs()
        scan = _outcome(lambda: validator.validate_bytes(data))
        assert _dense_docs() == before
        assert scan == _outcome(
            lambda: validator.validate_events(as_events(data)))
        assert scan[0] == "error" and "not valid UTF-8" in scan[2]

    @pytest.mark.parametrize("text", [
        "<?>",                      # '?>' overlapping the opening '<?'
        "<a/>\n",                   # trailing misc after the root
        "<a> </a>",                 # whitespace-only text event
        "<a b=''/>",                # empty attribute value
        "<a><a></a></a>",           # same name, nested
        "<a>wow! why?<b/>!?</a>",   # '!' and '?' outside markup
    ])
    def test_tricky_certified_shapes_agree(self, text):
        assert_tokenizer_agreement(text)

    def test_malformed_shapes_produce_reference_errors(self):
        for text in ["<a b/>", "</a>", "<a></b>", "<a", "<>", "<a//>",
                     "<a>text", "x<a/>", "<a/><b/>", "<a 1='x'/>",
                     "<a b='1' b='2'/>", "<a b='1' c='2' b='1'>t</a>",
                     # str.strip whitespace that the char parser refuses
                     # after the root
                     "<a/>\x0b", "<a></a>\x0c", "<a/> \x1f\n",
                     # markup and references the char parser refuses
                     "<!DOCTYPE a><!DOCTYPE a><a/>", "<a><!X></a>",
                     "<a/><![CDATA[x]]>", "<a/><![CDATA[]]>",
                     "<a>&bogus;</a>", "<a>&#xD800;</a>",
                     # attribute lists XML 1.0 refuses ([40], [10])
                     "<a b = '1'c='2'/>", "<a b='<'/>",
                     # ']]>' in text ([14]), '--' in a comment ([15])
                     "<a>x]]>y</a>", "<a>x]]></a>", "<a>é]]></a>",
                     "<a><!-- a -- b --></a>", "<a><!-- ok ---></a>",
                     "<!-- x -- y --><a/>", "<a/><!-- x -- y -->",
                     "<a><!--a><!-- c --></a>",
                     # an XML declaration anywhere but the start, and
                     # PI targets xml in any case ([17], [22], [23])
                     " <?xml version='1.0'?><a/>",
                     "<?xml version='1.0'?><?xml version='1.0'?><a/>",
                     "<!-- c --><?xml version='1.0'?><a/>",
                     "<a><?xml version='1.0'?></a>",
                     "<a/><?xml version='1.0'?>", "<?XML v?><a/>",
                     "<a><?xMl?></a>", "<?xml?><a/>",
                     # a byte-order mark anywhere but offset 0
                     " \ufeff<a/>", "<?xml version='1.0'?>\ufeff<a/>",
                     "\ufeff\ufeff<a/>",
                     # a PI target that is no name, or runs on ([16])
                     "<a><? x?></a>", "<a><?1?></a>", "<?-x?><a/>",
                     "<a><??></a>", "<a><?x?y?></a>", "<a><?x]?></a>",
                     "<a><?x\x0b?></a>", "<a/><? y?>", "<a>x<?pi!?></a>"]:
            assert assert_tokenizer_agreement(text) is False

    @pytest.mark.parametrize("data", [
        b"<!-- \xff --><a/>",                            # comment
        b"<?pi \xff?><a/>",                              # PI
        b"<?xml version='1.0' encoding='\xff'?><a/>",    # declaration
        "<!-- caf\xe9 --><a/>".encode("latin-1"),
        b"\xef\xbb\xbf<!-- \xff --><a/>",                # past a mark
    ])
    def test_undecodable_prolog_bytes_are_refused(self, data):
        # The scan skips the prolog without decoding it, so it must not
        # commit a document whose prolog is not UTF-8: the compat route
        # rejects the whole input.
        from repro.engine.streaming import as_events

        validator = permissive_validator("a", mixed=True)
        scan = _outcome(lambda: validator.validate_bytes(data))
        compat = _outcome(lambda: validator.validate_events(as_events(data)))
        assert scan == compat
        assert scan[0] == "error" and "not valid UTF-8" in scan[2]

    def test_fallbacks_keep_no_frames(self):
        # FallbackRequired instances are shared across raises; each raise
        # would chain its frames (holding the document) onto them.
        from repro.engine import streaming
        from repro.xmlmodel import tokenizer

        validator = permissive_validator("a", mixed=True)
        for text in ("<zz/>",                # name outside the alphabet
                     "<a>&bogus;</a>"):      # reference the parser rejects
            _outcome(lambda: validator.validate(text))
        for instance in (streaming._FALLBACK, tokenizer._FALLBACK):
            assert instance.__traceback__ is None
            assert instance.__context__ is None

    def test_text_significance_matches_str_strip_on_ascii(self):
        # The scan tests ASCII text bytes against _STR_WS undecoded, and
        # decodes any other text; the compat loop tests the decoded run
        # with str.strip.  Every ASCII character that is not markup, alone
        # and around a letter; element-only content commits exactly the
        # whitespace runs.  Then every other whitespace code point,
        # written literally and as a character reference.
        for code in range(128):
            char = chr(code)
            if char in "<&":
                continue
            for text in (f"<a>{char}</a>", f"<a>{char}x{char}</a>",
                         f"<a><b/>{char}</a>"):
                assert_tokenizer_agreement(text)
            committed = assert_scan_agreement(f"<a>{char}</a>", mixed=False)
            assert committed == char.isspace(), repr(char)
        spaces = [chr(code) for code in range(128, 0x110000)
                  if chr(code).isspace()]
        for char in spaces:
            for written in (char, f"&#x{ord(char):X};"):
                for text in (f"<a>{written}</a>", f"<a><b/>{written}</a>"):
                    assert assert_tokenizer_agreement(text), repr(text)
                    assert assert_scan_agreement(text, mixed=False), (
                        repr(text))
