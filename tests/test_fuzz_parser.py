"""Fuzz suite: mutated documents never desynchronize the parser's two
entry points.

The char tier's XML grammar exists once, as the event generator behind
``iter_events``.  ``parse_document`` builds its tree from the byte
tier's chunks, or, on any input the byte tier cannot certify, by
folding that event stream (``XMLElement.from_events``).  The engine's
safety story rests on one invariant: for *every* input, the two either
both accept — with the parser's tree equal to an independent rebuild of
the tree from the events (:func:`tree_from_events`, through the public
``XMLElement`` API) — or both raise :class:`~repro.errors.ParseError`,
never any other exception type (``RecursionError``, ``ValueError`` from
entity decoding, ``IndexError`` from cursor math, ...).  The suite mutates well-formed
documents (truncate, bit-flip, tag-swap, slice-splice, deep-nest) and
asserts the invariant on each mutant: a seeded deterministic sweep of
500+ inputs in tier-1, plus a hypothesis generator for open-ended search.
``tests/test_tokenizer_hardening`` replays the same corpus through the
dense byte scan, and ``tests/test_tree_fold`` through the byte tier's
tree fold, holding its trees and errors to the char tier's exactly.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParseError
from repro.resilience import ParserLimits
from repro.xmlmodel.parser import iter_events, parse_document
from repro.xmlmodel.tree import XMLElement

LIMITS = ParserLimits(max_depth=64, max_attributes=16, max_name_length=64,
                      max_text_length=4096, max_input_bytes=1 << 20)

BASE_DOCUMENTS = [
    "<doc><item id='1'>text</item><item id='2'/></doc>",
    "<?xml version='1.0'?><a><b x=\"1\" y='2'>mixed <c/> tail</b></a>",
    "<!DOCTYPE r SYSTEM \"sys>id.dtd\"><r><s>&lt;&amp;&#65;</s></r>",
    "<a><!-- comment --><![CDATA[raw <>& data]]><?pi target?></a>",
    "<root>&quot;q&quot;<child/>&apos;a&apos;<child>&#x41;</child></root>",
    "<m:a xmlns:m='u'><m:b m:k='v'/>\n  <plain/>\n</m:a>",
]


def tree_from_events(events):
    """Rebuild the tree an event stream spells (the fuzz oracle)."""
    root = None
    stack = []
    for event in events:
        kind = event[0]
        if kind == "start":
            # Appended to its parent at its end tag, like the parser.
            stack.append(XMLElement(event[1], attributes=event[2]))
        elif kind == "end":
            node = stack.pop()
            if not stack:
                root = node
            else:
                stack[-1].append(node)
        else:
            stack[-1].append_text(event[1])
    return root


def assert_agreement(text):
    """The invariant: identical trees, or ParseError from both."""
    try:
        document = parse_document(text, limits=LIMITS)
        tree_error = None
    except ParseError:
        document = None
        tree_error = True
    except Exception as exc:  # pragma: no cover - the bug being hunted
        raise AssertionError(
            f"parse_document leaked {type(exc).__name__} on {text!r}: {exc}"
        )
    try:
        events = list(iter_events(text, limits=LIMITS))
        event_error = None
    except ParseError:
        events = None
        event_error = True
    except Exception as exc:  # pragma: no cover - the bug being hunted
        raise AssertionError(
            f"iter_events leaked {type(exc).__name__} on {text!r}: {exc}"
        )
    assert (tree_error is None) == (event_error is None), (
        f"parsers disagree on acceptance of {text!r}: "
        f"tree={'rejects' if tree_error else 'accepts'}, "
        f"events={'rejects' if event_error else 'accepts'}"
    )
    if tree_error is None:
        assert tree_from_events(events) == document.root, (
            f"parsers accept {text!r} with different trees"
        )


# -- mutation operators ---------------------------------------------------

def _truncate(text, rng):
    return text[: rng.randrange(len(text))]

def _flip(text, rng):
    index = rng.randrange(len(text))
    char = chr(rng.choice([rng.randrange(32, 127), 60, 62, 38, 39, 34]))
    return text[:index] + char + text[index + 1:]

def _delete_slice(text, rng):
    start = rng.randrange(len(text))
    end = min(len(text), start + rng.randrange(1, 8))
    return text[:start] + text[end:]

def _duplicate_slice(text, rng):
    start = rng.randrange(len(text))
    end = min(len(text), start + rng.randrange(1, 8))
    return text[:start] + text[start:end] + text[start:]

def _tag_swap(text, rng):
    tags = [i for i, c in enumerate(text) if c == "<"]
    if len(tags) < 2:
        return text
    first, second = sorted(rng.sample(tags, 2))
    width = rng.randrange(1, 4)
    return (text[:first] + text[second:second + width]
            + text[first + width:second] + text[first:first + width]
            + text[second + width:])

def _entity_garble(text, rng):
    body = rng.choice(["#x;", "#xZZ;", "#1114112;", "#xD800;", "bogus;",
                       "#;", "amp", "#x41;", "#65;"])
    index = rng.randrange(len(text))
    return text[:index] + "&" + body + text[index:]

def _deep_nest(text, rng):
    depth = rng.choice([8, 63, 64, 65, 200])
    return "<w>" * depth + text + "</w>" * depth

MUTATIONS = (_truncate, _flip, _delete_slice, _duplicate_slice, _tag_swap,
             _entity_garble, _deep_nest)


def mutate(text, rng):
    for __ in range(rng.randrange(1, 4)):
        text = rng.choice(MUTATIONS)(text, rng)
        if not text:
            break
    return text


class TestSeededFuzz:
    """Deterministic sweep: 600 mutants checked on every tier-1 run."""

    def test_base_documents_agree_unmutated(self):
        for text in BASE_DOCUMENTS:
            assert_agreement(text)

    def test_600_mutants_never_desynchronize(self):
        rng = random.Random(0x20150806)
        for round_number in range(600):
            base = BASE_DOCUMENTS[round_number % len(BASE_DOCUMENTS)]
            assert_agreement(mutate(base, rng))

    def test_every_mutation_operator_alone(self):
        rng = random.Random(0xFACADE)
        for mutation in MUTATIONS:
            for base in BASE_DOCUMENTS:
                for __ in range(5):
                    assert_agreement(mutation(base, rng))


@st.composite
def xml_documents(draw):
    """A small well-formed document drawn from a recursive tree shape."""
    names = st.sampled_from(["a", "b", "c", "ns:d", "long-name"])
    texts = st.text(
        alphabet=st.sampled_from(list("xy <&;>'\"\n#&amp;&#65;")),
        max_size=12,
    )

    def serialize(depth):
        name = draw(names)
        attrs = draw(st.dictionaries(names, texts, max_size=2))
        rendered = "".join(
            f' {key}="{value.replace("&", "&amp;").replace("<", "&lt;").replace(chr(34), "&quot;")}"'
            for key, value in attrs.items()
        )
        if depth >= 3 or draw(st.booleans()):
            return f"<{name}{rendered}/>"
        children = [
            serialize(depth + 1)
            for __ in range(draw(st.integers(min_value=0, max_value=3)))
        ]
        body = draw(texts).replace("&", "&amp;").replace("<", "&lt;")
        return f"<{name}{rendered}>{body}{''.join(children)}</{name}>"

    return serialize(0)


class TestHypothesisFuzz:
    @given(document=xml_documents(), seed=st.integers(0, 2**32 - 1))
    def test_mutants_never_desynchronize(self, document, seed):
        assert_agreement(document)
        assert_agreement(mutate(document, random.Random(seed)))

    @given(st.text(alphabet=list("<>/&;#'\"=ab "), max_size=40))
    def test_tag_soup_never_leaks_other_exceptions(self, text):
        assert_agreement(text)
