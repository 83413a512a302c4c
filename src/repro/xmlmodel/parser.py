"""A from-scratch, dependency-free XML parser, hardened for hostile input.

Supports the XML subset the paper's data model needs: elements, attributes
(single- or double-quoted), character data with the five predefined
entities, numeric character references, comments, processing instructions,
CDATA sections, a byte-order mark and an XML declaration, each only at
the very start, and a DOCTYPE, which is skipped.  The skip checks only
that the DOCTYPE's brackets and quotes balance: an internal subset's
declarations are neither parsed nor applied, so
``<!DOCTYPE a [ garbage %% ]><a/>`` parses, an entity it declares is an
unknown entity, and its attribute defaults never reach the tree.
Namespaces are treated lexically: prefixed names are kept verbatim (the
formal model works over plain element names).

The parser is deliberately strict about well-formedness (mismatched tags,
unterminated constructs, stray ``<``, ``]]>`` in character data, ``--``
in a comment, and a processing instruction whose target is ``xml`` in
any case, a misplaced XML declaration included, are errors) because
schema tooling should never guess.  Every failure — including malformed
numeric character references and inputs that trip a cap — is a
:class:`~repro.errors.ParseError`; no other exception type escapes on any
input (the fuzz suite pins this).

Hardening (:mod:`repro.resilience`): both entry points accept a
``limits=`` :class:`~repro.resilience.ParserLimits` (explicit, ambient,
or the generous defaults) capping input size, nesting depth, attribute
counts, name lengths, and text runs.  Element parsing is *iterative* — an
explicit stack of open elements — so depth is policy-limited
(:class:`~repro.errors.LimitExceeded`), never interpreter-limited: a
10,000-deep nesting bomb is rejected cleanly instead of crashing the
process with ``RecursionError``.  An ambient
:class:`~repro.resilience.FaultInjector` may plant faults at the
``parse`` site (chaos testing).

The grammar is spelled once, as the event generator behind
:func:`iter_events`: this char tier is the reference, and
:func:`parse_fragment` folds its stream into a tree
(:meth:`XMLElement.from_events`).  :func:`parse_document` first folds
the byte tier's chunks (:mod:`repro.xmlmodel.tokenizer`, the grammar of
the dense validation scan) into the tree; on any input the byte tier
cannot certify (an internal subset, a non-ASCII name, a malformed or
over-limit shape, a PI that may be a misplaced declaration) it folds
that stream instead, from the start.  So the tree and event entry
points accept the same inputs, raise the same errors (always the char
tier's), and agree on every tree; ``tests/test_tree_fold`` holds the
byte tier's trees to the char tier's.
"""

from __future__ import annotations

from itertools import chain, islice

from repro.observability import default_registry
from repro.observability.budget import current_budget
from repro.resilience.faults import probe
from repro.resilience.limits import ParserLimits, resolve_limits
from repro.xmlmodel.lexical import _Cursor, _check_text, _decode_entities
from repro.xmlmodel.tokenizer import FallbackRequired, fold_tree
from repro.xmlmodel.tree import XMLDocument, XMLElement

# The whitespace characters ([3] S), one at a time.
_SPACES = (" ", "\t", "\r", "\n")

# Limits that cap nothing, for names no limit applies to.
_UNCAPPED = ParserLimits.unlimited()

# An event fold checks an ambient ResourceBudget's clock once per this
# many events, never per event (:func:`_clocked`): parse_document's
# char-tier fold and the streaming validator's event fold both.  The
# validation walk reads it once per half as many elements.
_CHECK_EVENTS = 64

# Each parse_document call counts into one of these, bound once from the
# default registry.
_metrics = default_registry()
_BYTE_DOCS = _metrics.counter("xmlmodel.parse.byte_docs")
_FALLBACKS = _metrics.counter("xmlmodel.parse.fallbacks")


def _is_name_start(char):
    return char.isalpha() or char in "_:"


def _is_name_char(char):
    return char.isalnum() or char in "_:.-"


def _read_name(cursor, limits):
    start = cursor.pos
    if cursor.at_end() or not _is_name_start(cursor.peek()):
        raise cursor.error("expected a name")
    cursor.advance()
    while not cursor.at_end() and _is_name_char(cursor.peek()):
        cursor.advance()
    name = cursor.text[start : cursor.pos]
    limit = limits.max_name_length
    if limit is not None and len(name) > limit:
        raise cursor.limit_error(
            f"name length limit exceeded ({len(name)} chars > "
            f"max_name_length={limit})",
            "max_name_length", len(name),
        )
    return name


def parse_document(text, limits=None):
    """Parse a complete XML document into an :class:`XMLDocument`.

    The byte tier folds the document first
    (:func:`~repro.xmlmodel.tokenizer.fold_tree`); whatever it cannot
    certify, the char tier parses from the start.  Both build the same
    tree and the char tier raises every error, so the two are one
    parser to the caller.  Each call counts one
    ``xmlmodel.parse.byte_docs`` or one ``xmlmodel.parse.fallbacks``
    (none when the input-size cap or the ``parse`` fault probe, both
    checked first, raises).

    Args:
        text: the document source.
        limits: optional :class:`~repro.resilience.ParserLimits`
            (explicit wins over ambient wins over the defaults).

    Raises:
        ParseError: if the input is not well-formed, or (the
            :class:`~repro.errors.LimitExceeded` subclass) if it trips a
            parsing limit.
        BudgetExceeded: if an ambient
            :class:`~repro.observability.ResourceBudget`'s deadline
            passes during the byte tier's fold, which checks its clock
            once per 4096 chunks, or during the char tier's, which
            checks it once per 64 events.
    """
    limits = resolve_limits(limits)
    limits.check_input_size(text)
    probe("parse")
    try:
        # A lone surrogate becomes bytes that are not UTF-8, which the
        # byte tier refuses.
        root = fold_tree(text.encode("utf-8", "surrogatepass"), limits)
    except FallbackRequired as fallback:
        # The raised instances are shared, and a raise chains its frames
        # onto the instance's traceback: drop them, or every fallback
        # would keep its fold's frames and document alive.
        fallback.__traceback__ = fallback.__context__ = None
    else:
        _BYTE_DOCS.inc()
        return XMLDocument(root)
    # The probe fired once for this document; the char tier reruns
    # without probing again.
    _FALLBACKS.inc()
    events = _clocked(_iter_events(text, limits), "xmlmodel.parse_document")
    return XMLDocument(XMLElement.from_events(events))


def _clocked(events, site):
    """``events`` under an ambient budget's clock, read under ``site``
    once per :data:`_CHECK_EVENTS` events.

    Without an ambient budget, ``events`` itself.  With one, the stream
    is read in blocks of :data:`_CHECK_EVENTS` and the clock before
    every block but the first, so a short document never reads it, as
    with the byte tier's fold; Python code runs once per block, not per
    event.
    """
    budget = current_budget()
    if budget is None:
        return events

    def blocks():
        block = list(islice(events, _CHECK_EVENTS))
        while block:
            yield block
            block = list(islice(events, _CHECK_EVENTS))
            if block:
                budget.check_time(site)

    return chain.from_iterable(blocks())


def parse_fragment(text, limits=None):
    """Parse a single element (no prolog allowed) into an :class:`XMLElement`."""
    limits = resolve_limits(limits)
    limits.check_input_size(text)
    probe("parse")
    return XMLElement.from_events(_fragment_events(text, limits))


def _skip_prolog(cursor):
    """Skip a byte-order mark at offset 0 (§4.3.3), the XML declaration
    right after it ([22], [23]: ``<?xml`` and whitespace, nowhere else),
    then misc and one DOCTYPE."""
    if cursor.startswith("\ufeff"):
        cursor.advance()
    if cursor.startswith("<?xml") and cursor.peek(6)[5:] in _SPACES:
        cursor.take_until("?>", "XML declaration")
    _skip_misc(cursor)
    if cursor.startswith("<!DOCTYPE"):
        _skip_doctype(cursor)
    _skip_misc(cursor)


def _skip_misc(cursor):
    while True:
        cursor.skip_whitespace()
        if cursor.startswith("<!--"):
            _skip_comment(cursor)
        elif cursor.startswith("<?"):
            _skip_pi(cursor)
        else:
            return


def _skip_pi(cursor):
    """Skip the processing instruction that opens at the cursor: ``<?``,
    a target name, then whitespace or ``?>`` ([16]).  The target may not
    be ``xml`` in any case ([17]), so a declaration anywhere but the
    start is an error, which points at the ``<?``; a target that is no
    name points where the name should start, anything but whitespace or
    ``?>`` after it where it stands, and an unterminated instruction
    just past the ``<?``.  The target's length is not capped, as the
    instruction's text is not.
    """
    start = cursor.pos
    cursor.advance(2)
    target = _read_name(cursor, _UNCAPPED)
    after = cursor.peek()
    if target.lower() == "xml":
        cursor.pos = start
        raise cursor.error(
            "XML declaration not at the start of the document"
            if target == "xml" and after in _SPACES else
            f"reserved processing instruction target {target!r}"
        )
    if after and after not in _SPACES and not cursor.startswith("?>"):
        raise cursor.error(
            f"processing instruction target {target!r} must be followed "
            "by whitespace or '?>'"
        )
    cursor.pos = start + 2
    cursor.take_until("?>", "processing instruction")


def _skip_comment(cursor):
    """Skip the comment that opens at the cursor.  Its text may hold no
    ``--`` and may not end in ``-`` ([15]); the error points at the
    offending ``--``."""
    cursor.advance(4)
    start = cursor.pos
    body = cursor.take_until("-->", "comment")
    # The text plus the closer's first '-' holds no '--'.
    dashes = cursor.text.find("--", start, start + len(body) + 1)
    if dashes >= 0:
        cursor.pos = dashes
        raise cursor.error("'--' in a comment")


def _skip_doctype(cursor):
    cursor.advance(len("<!DOCTYPE"))
    depth = 0
    while not cursor.at_end():
        char = cursor.peek()
        if char in ("'", '"'):
            # Quoted literals (system/public ids, entity values) may
            # contain '>', '[' and ']'; they must not affect nesting or
            # terminate the DOCTYPE.
            cursor.advance()
            cursor.take_until(char, "DOCTYPE literal")
            continue
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif char == ">" and depth == 0:
            cursor.advance()
            return
        cursor.advance()
    raise cursor.error("unterminated DOCTYPE")


def _read_attributes(cursor, owner_name, limits):
    """Read the attribute list of a start tag into a fresh dict.

    Whitespace must precede every attribute ([40] STag, [44]
    EmptyElemTag; before the first one, the element name's end already
    ensures it), and no value may hold a literal ``<`` ([10] AttValue).
    """
    max_attributes = limits.max_attributes
    attributes = {}
    while True:
        value_end = cursor.pos
        cursor.skip_whitespace()
        if cursor.at_end():
            raise cursor.error(f"unterminated start tag <{owner_name}>")
        if cursor.peek() in ("/", ">"):
            return attributes
        if attributes and cursor.pos == value_end:
            raise cursor.error(
                f"missing whitespace before an attribute of <{owner_name}>"
            )
        attr_name = _read_name(cursor, limits)
        cursor.skip_whitespace()
        if not cursor.startswith("="):
            raise cursor.error(f"attribute {attr_name!r} is missing '='")
        cursor.advance()
        cursor.skip_whitespace()
        quote = cursor.peek()
        if quote not in ("'", '"'):
            raise cursor.error(f"attribute {attr_name!r} value must be quoted")
        cursor.advance()
        value_start = cursor.pos
        raw = cursor.take_until(quote, f"attribute {attr_name!r}")
        if "<" in raw:
            cursor.pos = value_start + raw.index("<")
            raise cursor.error(f"'<' in the value of attribute {attr_name!r}")
        if attr_name in attributes:
            raise cursor.error(f"duplicate attribute {attr_name!r}")
        if max_attributes is not None and len(attributes) >= max_attributes:
            raise cursor.limit_error(
                f"attribute count limit exceeded on <{owner_name}> "
                f"({len(attributes) + 1} attributes > "
                f"max_attributes={max_attributes})",
                "max_attributes", len(attributes) + 1,
            )
        attributes[attr_name] = _decode_entities(raw, cursor, limits)


# -- streaming (SAX-style) event mode -----------------------------------
#
# ``iter_events`` tokenizes a document into a flat event stream without
# ever materializing the tree: ``("start", name, attributes)``,
# ``("text", data)`` and ``("end", name)``.  This is the char tier's only
# grammar: :func:`parse_document` folds this stream whenever the byte
# tier falls back, so for every input either both raise
# :class:`~repro.errors.ParseError` or the event stream spells exactly
# the tree the parser builds.  The compiled validation engine
# (:mod:`repro.engine.streaming`) consumes this stream keeping only a
# stack of DFA states.

def iter_events(text, limits=None):
    """Stream SAX-style events from XML ``text`` without building a tree.

    Args:
        text: the document source.
        limits: optional :class:`~repro.resilience.ParserLimits`
            (explicit wins over ambient wins over the defaults).

    Yields:
        ``("start", name, attributes)`` for each start tag (attributes is
        a fresh dict), ``("text", data)`` for each character-data or CDATA
        run (entity-decoded, possibly empty chunks are suppressed), and
        ``("end", name)`` for each end tag (self-closing tags produce a
        start/end pair).

    Raises:
        ParseError: on the same inputs :func:`parse_document` rejects
        (including over-limit ones).  The input-size cap and the fault
        probe fire eagerly at the call; all other errors surface lazily,
        as the stream is consumed.
    """
    limits = resolve_limits(limits)
    limits.check_input_size(text)
    probe("parse")
    return _iter_events(text, limits)


def _iter_events(text, limits):
    cursor = _Cursor(text)
    _skip_prolog(cursor)
    yield from _element_events(cursor, limits)
    _skip_misc(cursor)
    if not cursor.at_end():
        raise cursor.error("content after the root element")


def _fragment_events(text, limits):
    cursor = _Cursor(text)
    cursor.skip_whitespace()
    yield from _element_events(cursor, limits)
    cursor.skip_whitespace()
    if not cursor.at_end():
        raise cursor.error("content after the element")


def _element_events(cursor, limits):
    """Yield one element's subtree as events, iteratively.

    An explicit stack of open element names replaces per-nesting-level
    recursion, so the accepted depth is decided by ``limits.max_depth``,
    not by the interpreter's recursion limit.
    """
    if not cursor.startswith("<"):
        raise cursor.error("expected an element start tag")
    max_depth = limits.max_depth
    stack = []
    while True:
        # Cursor sits on the '<' of a start tag.
        cursor.advance()
        name = _read_name(cursor, limits)
        if max_depth is not None and len(stack) >= max_depth:
            raise cursor.limit_error(
                f"nesting depth limit exceeded at <{name}> "
                f"(depth {len(stack) + 1} > max_depth={max_depth})",
                "max_depth", len(stack) + 1,
            )
        attributes = _read_attributes(cursor, name, limits)
        cursor.skip_whitespace()
        if cursor.startswith("/>"):
            cursor.advance(2)
            yield ("start", name, attributes)
            yield ("end", name)
            if not stack:
                return
        elif cursor.startswith(">"):
            cursor.advance()
            yield ("start", name, attributes)
            stack.append(name)
        else:
            raise cursor.error(f"malformed start tag <{name}>")
        # Consume content until a nested start tag (break to the outer
        # loop) or until every open element has been closed.
        descend = False
        while stack:
            if cursor.at_end():
                raise cursor.error(f"unterminated element <{stack[-1]}>")
            if cursor.startswith("</"):
                cursor.advance(2)
                closing = _read_name(cursor, limits)
                if closing != stack[-1]:
                    raise cursor.error(
                        f"mismatched end tag </{closing}> "
                        f"(expected </{stack[-1]}>)"
                    )
                cursor.skip_whitespace()
                if not cursor.startswith(">"):
                    raise cursor.error(f"malformed end tag </{closing}>")
                cursor.advance()
                stack.pop()
                yield ("end", closing)
                continue
            if cursor.startswith("<!--"):
                _skip_comment(cursor)
                continue
            if cursor.startswith("<![CDATA["):
                cursor.advance(len("<![CDATA["))
                data = cursor.take_until("]]>", "CDATA section")
                _check_text(data, cursor, limits)
                if data:
                    yield ("text", data)
                continue
            if cursor.startswith("<?"):
                _skip_pi(cursor)
                continue
            if cursor.startswith("<"):
                descend = True
                break
            index = cursor.text.find("<", cursor.pos)
            if index < 0:
                raise cursor.error(f"unterminated element <{stack[-1]}>")
            raw = cursor.text[cursor.pos : index]
            if "]]>" in raw:  # [14]
                cursor.advance(raw.index("]]>"))
                raise cursor.error("']]>' in character data")
            cursor.pos = index
            data = _decode_entities(raw, cursor, limits)
            if data:
                yield ("text", data)
        if not descend:
            return


def from_etree(etree_element):
    """Convert a stdlib :mod:`xml.etree.ElementTree` element (adapter).

    Useful when callers already hold an ElementTree; namespace-qualified
    tags (``{uri}local``) are reduced to their local name.  The walk is
    iterative, so arbitrarily deep trees convert without recursion.
    """
    def local(tag):
        return tag.rsplit("}", 1)[-1] if tag.startswith("{") else tag

    def make(source):
        return XMLElement(
            local(source.tag),
            attributes={local(k): v for k, v in source.attrib.items()},
            text=source.text or "",
        )

    root = make(etree_element)
    stack = [(root, iter(etree_element))]
    while stack:
        node, children = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            continue
        converted = make(child)
        node.append(converted, text_after=child.tail or "")
        stack.append((converted, iter(child)))
    return root
