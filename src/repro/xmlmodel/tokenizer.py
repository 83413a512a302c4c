"""Byte-level chunk parsing: the dense validation scan and the tree fold.

The char-based parser (:mod:`repro.xmlmodel.parser`) is the semantic
reference: strict well-formedness, exact diagnostics, full entity and
CDATA support.  It is also the dominant cost of text-to-verdict
validation and of building trees — per-character cursor movement and
per-event object construction dwarf the engine's integer table steps
and the tree's node construction.

This module is the *fast tier* that never walks characters.  The body
of a document is split once on ``b"<"``, except that each comment,
processing instruction and CDATA section stays whole on the end of the
chunk before it (they may contain ``<``).  Every chunk is therefore
``tag-bytes + b">" + content``, the content being everything up to the
next tag: text and such markup.  Real documents repeat chunks heavily
(same tags, same markup runs), so each distinct chunk is parsed
**once** into an action tuple and memoized — the hot loop is one dict
lookup per chunk.  All well-formedness and limit checking happens on the
memo-miss path; the per-event cost for a repeated chunk is a hash of its
bytes.

The fast tier only commits to inputs it can prove the careful tier would
accept identically.  It falls back on:

* a prolog holding a non-ASCII byte (past a UTF-8 byte-order mark at
  offset 0, which it skips), a DOCTYPE with an internal subset (a ``[``
  or ``]`` outside its quoted literals), or a second DOCTYPE;
* a PI whose target may be ``xml`` in any case ([17]) — the XML
  declaration, at offset 0 or right after the mark, is the one
  ``<?xml`` it skips — and one whose target is not an ASCII name
  followed by whitespace or ``?>`` ([16]);
* ``<!`` in the body that opens no comment or CDATA section, and
  anything but whitespace, comments and PIs after the root element;
* bytes that are not UTF-8, and names outside a conservative ASCII
  subset of the reference name grammar (text and attribute values may
  hold any UTF-8);
* references the char parser's own ``_decode_entities`` rejects,
  ``]]>`` in a text run, ``--`` in a comment, over-limit constructs,
  duplicate attributes, and every malformed shape.

"Falls back" means :class:`FallbackRequired` is raised and the caller
turns to a slower tier: a dense scan that falls back is rerun on
:func:`fold_tree`'s tree (on the char-based tier at a root exit), and
what the fold refuses, its callers hand to the char-based tier from the
start.  So errors (type, message, line/column) are always the char
tier's, and trees and reports are *identical by construction*: the fast
tier either certifies exactly what the careful tier would accept, or it
certifies nothing and the careful tier speaks.

Entry points: :func:`body_start`, :func:`split_body`,
:func:`parse_chunk` and :func:`check_after_root`, driven by the fused
dense validation loop
(:meth:`repro.engine.streaming.StreamingValidator._scan_dense`) and its
lazy typing walk, which resolve names to the schema's own name objects,
and by :func:`fold_tree`, which builds the tree for
:func:`repro.xmlmodel.parser.parse_document` and for the streaming
validator's rerun of a document its scan did not commit.  Both chunk
loops check an ambient budget's clock once per :data:`_CHECK_CHUNKS`
chunks.  The chunk grammar is one function with two outputs: the scan
keeps what validation reads (names, attribute names, whether the text
is significant, undecoded where the bytes suffice), the fold decoded
names, attribute values and text.
``tests/test_tokenizer_hardening`` replays the parser fuzz corpus
through the scan against the char parser plus the validator's event
route, and ``tests/test_tree_fold`` through the fold against the char
tier's trees.
"""

from __future__ import annotations

import re
import sys
from itertools import islice

from repro.errors import ParseError
from repro.observability.budget import current_budget
from repro.xmlmodel.lexical import _Cursor, _decode_entities
from repro.xmlmodel.tree import _LEAF_TEXTS, _NO_ATTRIBUTES, XMLElement


class FallbackRequired(Exception):
    """The fast tier cannot certify this input; use the careful tier."""

    __slots__ = ()


_FALLBACK = FallbackRequired()

# Whitespace the reference parser skips between tokens ('\x0b' etc. are
# *not* in this set: the char parser rejects them between markup, so the
# fast tier must too).
_WS = b" \t\r\n"
_WS_RUN = re.compile(rb"[ \t\r\n]*")

# ASCII bytes that str.strip() removes — the validator's text-content
# test is `text.strip()`, whose whitespace set on ASCII is wider than
# the parser's token whitespace ('\x0b', '\x0c', '\x1c'-'\x1f').
# Stripping them from the raw bytes decides significance undecoded.
_STR_WS = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"

# Byte values for membership tests: ``byte in data`` with an int is a
# memchr, where a bytes needle first fails an int conversion (an
# exception raised and cleared per test).
_AMP, _LT, _RSQB = ord("&"), ord("<"), ord("]")
_BANG, _QUESTION = ord("!"), ord("?")

# Conservative ASCII subset of the reference name grammar (isalpha/_:
# start, isalnum/_:.- continue).  Anything outside falls back.
_NAME_RE = re.compile(rb"[A-Za-z_:][A-Za-z0-9_:.\-]*")

# One attribute: mandatory leading whitespace (the char parser also
# accepts none after a closing quote; that shape falls back), optional
# whitespace around '=', single- or double-quoted value.
_ATTR_RE = re.compile(
    rb"[ \t\r\n]+([A-Za-z_:][A-Za-z0-9_:.\-]*)[ \t\r\n]*=[ \t\r\n]*"
    rb"(?:\"([^\"]*)\"|'([^']*)')"
)

# A DOCTYPE without an internal subset.  Its quoted literals may hold
# '>', as in the char parser's _skip_doctype; a '[' or ']' outside them
# does not match, so an internal subset falls back.
_DOCTYPE_RE = re.compile(rb"<!DOCTYPE(?:[^\"'\[\]>]|\"[^\"]*\"|'[^']*')*>")

# Markup the body may hold, as (opener, closer).  A closer is searched
# from just past its opener, as the char parser does, so "<?>" and
# "<!-->" are not closed.  Only comments and PIs may follow the root.
_CDATA_OPEN, _CDATA_CLOSE = b"<![CDATA[", b"]]>"
_DASHES = b"--"  # closes a comment when a '>' follows
_PI_CLOSE = b"?>"
_MISC = ((b"<!--", _DASHES), (b"<?", _PI_CLOSE))
_MARKUP = _MISC + ((_CDATA_OPEN, _CDATA_CLOSE),)
_MARKUP_START = re.compile(rb"<[!?]")

# The opening of a PI the fast tier certifies ([16], [17]): a target in
# the ASCII name subset, then whitespace or ``?>``, the target not being
# ``xml`` in any case ([17] reserves it).  Any other shape falls back: a
# target that is no name, or is followed by anything else, is the
# careful tier's error, and a non-ASCII target its to judge.
_PI_START = re.compile(
    rb"<\?(?![Xx][Mm][Ll](?:[ \t\r\n]|\?>))"
    rb"[A-Za-z_:][A-Za-z0-9_:.\-]*(?:[ \t\r\n]|\?>)"
)

# The byte-order mark a document may open with (§4.3.3), and the XML
# declaration, which only it may precede ([22], [23]).
_BOM = b"\xef\xbb\xbf"
_XML_DECL = re.compile(rb"<\?xml[ \t\r\n]")

# The error locator handed to the shared decoding routine; its
# errors become fallbacks, so no location is ever reported.
_NOWHERE = _Cursor("")

_EMPTY_SET = frozenset()

# Action kinds.
START, END, SELFCLOSE = 0, 1, 2

# The chunk loops (the dense scan and the fold) check an ambient
# ResourceBudget's clock once per this many chunks, never per chunk.
_CHECK_CHUNKS = 4096


def _markup_end(data, pos, kinds=_MARKUP):
    """Offset just past the markup of ``kinds`` that opens at
    ``data[pos]``, or ``None`` if none opens there.

    A comment's first ``--`` must begin its ``-->``: its text may hold
    no ``--`` and may not end in ``-`` ([15]).  A PI opens with a target
    name and whitespace or ``?>`` ([16]), the target not ``xml`` in any
    case ([17]); :func:`body_start` skips the one declaration a document
    may hold.
    """
    for opener, closer in kinds:
        if data.startswith(opener, pos):
            end = data.find(closer, pos + len(opener))
            if end < 0:  # unterminated: the careful tier's error
                raise _FALLBACK
            end += len(closer)
            if closer is _DASHES:
                if data[end:end + 1] != b">":
                    raise _FALLBACK
                end += 1
            elif closer is _PI_CLOSE and _PI_START.match(data, pos) is None:
                raise _FALLBACK
            return end
    return None


def _skip_misc(data, pos):
    """Offset past the whitespace, comments and PIs from ``data[pos]``,
    as the char parser's ``_skip_misc`` skips them."""
    while True:
        pos = _WS_RUN.match(data, pos).end()
        end = _markup_end(data, pos, _MISC)
        if end is None:
            return pos
        pos = end


def body_start(data):
    """Byte offset of the root element's ``<`` after the prolog.

    Handles a UTF-8 byte-order mark at offset 0, an XML declaration at
    offset 0 or right after the mark, whitespace, comment/PI misc and
    one DOCTYPE without an internal subset.  Raises
    :class:`FallbackRequired` whenever the prolog is anything the
    structural scan cannot certify — including malformed shapes, which
    the careful tier then rejects with its exact diagnostics, and
    non-ASCII bytes after the mark, which may not be UTF-8 at all.
    """
    first = pos = len(_BOM) if data.startswith(_BOM) else 0
    declaration = _XML_DECL.match(data, pos)
    if declaration is not None:
        end = data.find(_PI_CLOSE, declaration.end())
        if end < 0:  # unterminated: the careful tier's error
            raise _FALLBACK
        pos = end + len(_PI_CLOSE)
    pos = _skip_misc(data, pos)
    if data.startswith(b"<!DOCTYPE", pos):
        doctype = _DOCTYPE_RE.match(data, pos)
        if doctype is None:  # an internal subset, or unterminated
            raise _FALLBACK
        pos = _skip_misc(data, doctype.end())
    if (data[pos:pos + 1] != b"<" or data.startswith(b"<!", pos)
            or not data[first:pos].isascii()):
        raise _FALLBACK
    return pos


def split_body(data, start):
    """Chunk the body: one entry per tag, ``tag + b'>' + content``.

    The content runs up to the next tag: text, plus any comments, PIs
    and CDATA sections, each kept whole.  Falls back if the body holds
    a ``<!`` that opens neither a comment nor a CDATA section, or
    unterminated markup.
    """
    body = data[start:] if start else data
    # A memchr for '!' and '?' skips the two-byte scans on bodies
    # without either byte.
    if ((_BANG not in body or b"<!" not in body)
            and (_QUESTION not in body or b"<?" not in body)):
        return body.split(b"<")
    chunks = []
    head = 0  # where the chunk that markup may still extend begins
    pos = 0
    while True:
        found = _MARKUP_START.search(body, pos)
        stop = len(body) if found is None else found.start()
        pieces = body[pos:stop].split(b"<")
        if len(pieces) > 1:  # tags between pos and stop end that chunk
            chunks.append(body[head:pos + len(pieces[0])])
            chunks += pieces[1:-1]
            head = stop - len(pieces[-1])
        if found is None:
            chunks.append(body[head:])
            return chunks
        pos = _markup_end(body, stop)
        if pos is None:
            raise _FALLBACK


def check_after_root(chunk):
    """Fall back unless only whitespace, comments and PIs follow the tag
    of ``chunk``, the chunk that closes the root element.

    The char parser skips exactly these after the root: its whitespace
    is :data:`_WS`, narrower than ``str.strip``'s, and a CDATA section
    is refused there even when it is empty (and so yields no text
    event).  Called once per document.
    """
    tail = chunk[chunk.find(b">") + 1:]
    if tail.strip(_WS) and _skip_misc(tail, 0) != len(tail):
        raise _FALLBACK


def _decoded(raw, limits):
    """``raw`` (a text run or attribute value) decoded as strict UTF-8,
    then by the char parser's ``_decode_entities``
    (:mod:`repro.xmlmodel.lexical`), which checks its references and the
    run-length cap; what either rejects falls back."""
    try:
        return _decode_entities(raw.decode("utf-8"), _NOWHERE, limits)
    except (UnicodeDecodeError, ParseError):  # LimitExceeded included
        raise _FALLBACK from None


def _content(rest, limits):
    """The text of the content after a chunk's tag: its decoded text
    runs and CDATA sections, joined (what the tree keeps).

    Walks it as the char parser's content loop does: text runs split by
    comments, PIs and CDATA sections.  Falls back unless ``rest`` is
    strict UTF-8, and on a run holding ``]]>`` ([14]).
    """
    try:
        rest.decode("utf-8")
    except UnicodeDecodeError:
        raise _FALLBACK from None
    max_text = limits.max_text_length
    pieces = []
    pos = 0
    while True:
        lt = rest.find(b"<", pos)
        run = rest[pos:] if lt < 0 else rest[pos:lt]
        if run:
            if _RSQB in run and _CDATA_CLOSE in run:
                raise _FALLBACK
            pieces.append(_decoded(run, limits))
        if lt < 0:
            return "".join(pieces)
        pos = _markup_end(rest, lt)
        if pos is None:  # no comment, PI or CDATA section opens here
            raise _FALLBACK
        if rest.startswith(_CDATA_OPEN, lt):
            start, stop = lt + len(_CDATA_OPEN), pos - len(_CDATA_CLOSE)
            data = rest[start:stop].decode("utf-8")
            if max_text is not None and len(data) > max_text:
                raise _FALLBACK
            pieces.append(data)


def parse_chunk(chunk, limits, name_id_of):
    """Parse one chunk into an action tuple (the scan's memo-miss path).

    Returns ``(kind, name, attr_names, significant_text)`` where
    ``kind`` is :data:`START`/:data:`END`/:data:`SELFCLOSE`, ``name`` is
    what ``name_id_of`` returned for the element name, ``attr_names`` is
    a frozenset of decoded attribute names (``None`` for end tags), and
    ``significant_text`` is True iff the content after the tag holds a
    character that is not whitespace by ``str.isspace``.  Attribute
    values and text are decoded only to check them: the validator reads
    only names and whether the text is significant.

    ``name_id_of`` resolves a name's bytes to the caller's key for it
    (the validator's is the schema's own name object, or ``None`` for a
    name outside the schema alphabet), which this function never looks
    inside; it may itself raise :class:`FallbackRequired`.  The grammar
    and its checks are :func:`_parse`'s.
    """
    return _parse(chunk, limits, name_id_of, False)


def fold_tree(data, limits):
    """The root :class:`~repro.xmlmodel.tree.XMLElement` of UTF-8
    ``data``, folded from its chunks.

    Folds as :meth:`XMLElement.from_events` folds the char parser's
    events.  Each distinct chunk is parsed once, with its values
    decoded, into ``(kind, name, attributes, text)``: the element name
    (one str per distinct name, so end tags match by identity), a dict
    of attribute names to values in document order (``None`` for end
    tags), and the content after the tag, its text runs and CDATA
    sections joined.  A start tag's content becomes the new node's first
    text run; the content after an end or self-closing tag is the
    parent's newest run.  Leaves share their empties (``()`` children,
    and the ``("",)`` run when they hold no text), as the tree's own
    builders make them.  An element with attributes gets its own copy
    of its chunk's attribute dict; every element without shares the
    read-only empty map (:data:`~repro.xmlmodel.tree._NO_ATTRIBUTES`),
    which :meth:`XMLElement.set_attribute` swaps for a dict on the
    first write.  End tags must close the open element, the root may
    have no sibling, and ``max_depth`` holds as in the char parser.
    Raises :class:`FallbackRequired` on anything it cannot certify.

    Two callers: :func:`repro.xmlmodel.parser.parse_document` and the
    streaming validator's rerun of a document its dense scan could not
    commit.  Checks an ambient budget's clock once per
    :data:`_CHECK_CHUNKS` chunks, as the scan does.
    """
    chunks = split_body(data, body_start(data))
    names = {}

    def name_of(name_bytes):
        name = names.get(name_bytes)
        if name is None:
            name = names[name_bytes] = name_bytes.decode("ascii")
        return name

    budget = current_budget()
    max_depth = limits.max_depth
    if max_depth is None:
        max_depth = sys.maxsize
    memo = {}
    memo_get = memo.get
    new = XMLElement.__new__
    leaf_texts = _LEAF_TEXTS
    no_attributes = _NO_ATTRIBUTES
    root = node = None  # node: the innermost open element
    depth = 0
    rest = iter(chunks)
    next(rest)  # chunks[0] precedes the root
    for first in range(1, len(chunks), _CHECK_CHUNKS):
        if budget is not None and first > 1:
            budget.check_time("xmlmodel.fold_tree")
        for chunk in islice(rest, _CHECK_CHUNKS):
            action = memo_get(chunk)
            if action is None:
                action = memo[chunk] = _parse(chunk, limits, name_of, True)
            kind, name, attributes, text = action
            if kind == END:
                if node is None or name != node.name:
                    raise _FALLBACK
                depth -= 1
                node = node.parent
                if node is not None:
                    node.texts[-1] = text
                continue
            if node is None:
                if root is not None:  # a second root
                    raise _FALLBACK
            elif depth >= max_depth:
                raise _FALLBACK
            child = new(XMLElement)
            child.name = name
            child.attributes = (attributes.copy() if attributes
                                else no_attributes)
            child.children = ()
            child.parent = node
            child.record = None
            if node is None:
                root = child
            elif node.children:
                node.children.append(child)
                node.texts.append("")
            else:
                node._first_child(child)
            if kind == START:
                child.texts = [text] if text else leaf_texts
                node = child
                depth += 1
            else:  # SELFCLOSE
                child.texts = leaf_texts
                if node is not None:
                    node.texts[-1] = text
    if node is not None:  # an element left open
        raise _FALLBACK
    check_after_root(chunks[-1])
    return root


def _parse(chunk, limits, name_id_of, decode):
    """The chunk grammar behind :func:`parse_chunk` (``decode`` false)
    and :func:`fold_tree` (true), which differ only in what they keep:
    with ``decode``, the fold's action.

    ASCII content with no ``&`` and no markup, and ASCII attribute
    values with no ``&``, are checked on their bytes; without
    ``decode``, significance is judged undecoded too (by stripping
    :data:`_STR_WS`).  Any other content or value is decoded as strict
    UTF-8 (the rest of a tag matches ASCII patterns only), once per
    distinct chunk.  Since ``<`` never occurs inside a multibyte
    sequence, decoding chunk by chunk accepts exactly the documents that
    decoding the whole input accepts.

    Every check the reference parser performs on this shape happens
    here — name grammar, quote closure, duplicate attributes, entity
    references, ``]]>`` in text, ``--`` in comments, and the ambient
    :class:`~repro.resilience.ParserLimits` caps — and every violation
    raises :class:`FallbackRequired` so the careful tier can produce the
    canonical error.
    """
    ascii_only = chunk.isascii()
    gt = chunk.find(b">")
    if gt < 0:
        raise _FALLBACK
    tag = chunk[:gt]
    rest = chunk[gt + 1:]
    max_text = limits.max_text_length
    text = ""
    significant = False
    if rest:
        if ascii_only and _AMP not in rest and _LT not in rest:
            if max_text is not None and len(rest) > max_text:
                raise _FALLBACK
            if _RSQB in rest and _CDATA_CLOSE in rest:  # [14]
                raise _FALLBACK
            if decode:
                text = rest.decode("ascii")
            else:
                significant = bool(rest.strip(_STR_WS))
        else:
            text = _content(rest, limits)
            significant = bool(text.strip())
    max_name = limits.max_name_length
    if tag[:1] == b"/":
        name = tag[1:].rstrip(_WS)
        if _NAME_RE.fullmatch(name) is None:
            raise _FALLBACK
        if max_name is not None and len(name) > max_name:
            raise _FALLBACK
        if decode:
            return (END, name_id_of(name), None, text)
        return (END, name_id_of(name), None, significant)
    selfclose = tag[-1:] == b"/"
    if selfclose:
        tag = tag[:-1]
    matched = _NAME_RE.match(tag)
    if matched is None:
        raise _FALLBACK
    end = matched.end()
    name = tag[:end]
    if max_name is not None and end > max_name:
        raise _FALLBACK
    attr_names = _EMPTY_SET
    attributes = {} if decode else None
    if end < len(tag):
        blob = tag[end:]
        pos = 0
        names = []
        match_attr = _ATTR_RE.match
        while True:
            attr = match_attr(blob, pos)
            if attr is None:
                break
            attr_name, double, single = attr.group(1, 2, 3)
            value = single if double is None else double
            if attr_name in names:
                raise _FALLBACK  # duplicate -> careful tier's error
            if max_name is not None and len(attr_name) > max_name:
                raise _FALLBACK
            if ascii_only and _AMP not in value:
                if max_text is not None and len(value) > max_text:
                    raise _FALLBACK
                if decode:
                    value = value.decode("ascii")
            else:
                value = _decoded(value, limits)
            names.append(attr_name)
            if decode:
                attributes[attr_name.decode("ascii")] = value
            pos = attr.end()
        if blob[pos:].strip(_WS):
            raise _FALLBACK
        max_attrs = limits.max_attributes
        if max_attrs is not None and len(names) > max_attrs:
            raise _FALLBACK
        if not decode:  # the names are ASCII: UTF-8 decodes them alike
            attr_names = frozenset(map(bytes.decode, names))
    kind = SELFCLOSE if selfclose else START
    if decode:
        return (kind, name_id_of(name), attributes, text)
    return (kind, name_id_of(name), attr_names, significant)
