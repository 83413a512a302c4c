"""Byte-level chunk parsing for the dense validation fast path.

The char-based parser (:mod:`repro.xmlmodel.parser`) is the semantic
reference: strict well-formedness, exact diagnostics, full entity and
CDATA support.  It is also the dominant cost of text-to-verdict
validation — per-character cursor movement and per-event object
construction dwarf the engine's integer table steps.

This module is the *fast tier* that never walks characters.  The body
of a document is split once on ``b"<"``; every resulting chunk is
exactly ``tag-bytes + b">" + trailing-text-bytes``, and real documents
repeat chunks heavily (same tags, same markup runs), so each distinct
chunk is parsed **once** into an action tuple and memoized — the hot
loop is one dict lookup per chunk.  All well-formedness and limit
checking happens on the memo-miss path; the per-event cost for a
repeated chunk is a hash of its bytes.

The fast tier only commits to inputs it can prove the careful tier would
accept identically:

* prolog is scanned structurally; a DOCTYPE or a non-ASCII byte falls
  back;
* any ``b"<!"``/``b"<?"`` in the body (comments, CDATA, PIs) falls back;
* non-ASCII chunks, entity references, over-limit constructs, duplicate
  attributes, and every malformed shape fall back;
* names use a conservative ASCII subset of the reference name grammar.

"Falls back" means :class:`FallbackRequired` is raised and the caller
re-runs the char-based tier from the start — so errors (type, message,
line/column) and reports are *identical by construction*: the fast tier
either certifies exactly what the careful tier would accept, or it
certifies nothing and the careful tier speaks.

Entry points: :func:`body_start`, :func:`split_body` and
:func:`parse_chunk`, driven by the fused dense validation loop
(:meth:`repro.engine.streaming.StreamingValidator._scan_dense`) and its
lazy typing walk, with schema-interned name ids.
``tests/test_tokenizer_hardening`` replays the parser fuzz corpus
through that loop against the char parser plus compat loop.
"""

from __future__ import annotations

import re


class FallbackRequired(Exception):
    """The fast tier cannot certify this input; use the careful tier."""

    __slots__ = ()


_FALLBACK = FallbackRequired()

# Whitespace the reference parser skips between tokens ('\x0b' etc. are
# *not* in this set: the char parser rejects them between markup, so the
# fast tier must too).
_WS = b" \t\r\n"

# ASCII bytes that str.strip() removes — the validator's text-content
# test is `text.strip()`, whose whitespace set on ASCII is wider than
# the parser's token whitespace ('\x0b', '\x0c', '\x1c'-'\x1f').
# Stripping them from the raw bytes decides significance undecoded.
_STR_WS = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"

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

_EMPTY_SET = frozenset()

# Action kinds.
START, END, SELFCLOSE = 0, 1, 2


def body_start(data):
    """Byte offset of the root element's ``<`` after the prolog.

    Handles whitespace, an XML declaration, and comment/PI misc;
    a DOCTYPE (rare, and full of quoting subtleties) falls back.
    Raises :class:`FallbackRequired` whenever the prolog is anything the
    structural scan cannot certify — including malformed shapes, which
    the careful tier then rejects with its exact diagnostics, and
    non-ASCII bytes, which may not be UTF-8 at all.
    """
    pos = 0
    size = len(data)
    while True:
        while pos < size and data[pos] in _WS:
            pos += 1
        if data.startswith(b"<?", pos):
            # Search after the opening "<?" so "<?>" (whose closing "?>"
            # would overlap it) is not mistaken for a complete PI.
            end = data.find(b"?>", pos + 2)
            if end < 0:
                raise _FALLBACK
            pos = end + 2
            continue
        if data.startswith(b"<!--", pos):
            end = data.find(b"-->", pos + 4)
            if end < 0:
                raise _FALLBACK
            pos = end + 3
            continue
        if data.startswith(b"<!", pos):  # DOCTYPE (or garbage)
            raise _FALLBACK
        if pos >= size or data[pos] != 0x3C or not data[:pos].isascii():
            raise _FALLBACK
        return pos


def split_body(data, start):
    """Chunk the body: one entry per tag, ``tag + b'>' + trailing text``.

    Falls back if the body contains any markup the chunk grammar cannot
    represent (comments, CDATA sections, processing instructions).
    """
    body = data[start:] if start else data
    if b"<!" in body or b"<?" in body:
        raise _FALLBACK
    return body.split(b"<")


def parse_chunk(chunk, limits, name_id_of):
    """Parse one chunk into an action tuple (the memo-miss path).

    Returns ``(kind, name_id, attr_names, significant_text, has_text)``
    where ``kind`` is :data:`START`/:data:`END`/:data:`SELFCLOSE`,
    ``attr_names`` is a frozenset of decoded attribute names (``None``
    for end tags), ``significant_text`` is True iff the trailing text
    contains a character that is not whitespace by ``str.isspace``, and
    ``has_text`` is True iff there is any trailing text (the char parser
    then yields a text event).  Neither attribute values nor text are
    decoded: the validator reads only names and these flags.

    Every check the reference parser performs on this shape happens
    here — name grammar, quote closure, duplicate attributes, entity
    references, and the ambient :class:`~repro.resilience.ParserLimits`
    caps — and every violation raises :class:`FallbackRequired` so the
    careful tier can produce the canonical error.  ``name_id_of`` interns
    a name's bytes to an integer id; it may itself raise
    :class:`FallbackRequired` (the validator does, for names outside the
    schema alphabet).
    """
    if not chunk.isascii():
        raise _FALLBACK
    gt = chunk.find(b">")
    if gt < 0:
        raise _FALLBACK
    tag = chunk[:gt]
    rest = chunk[gt + 1:]
    max_text = limits.max_text_length
    if rest:
        if b"&" in rest:
            raise _FALLBACK
        if max_text is not None and len(rest) > max_text:
            raise _FALLBACK
    significant = bool(rest.strip(_STR_WS))
    has_text = bool(rest)
    max_name = limits.max_name_length
    if tag[:1] == b"/":
        name = tag[1:].rstrip(_WS)
        if _NAME_RE.fullmatch(name) is None:
            raise _FALLBACK
        if max_name is not None and len(name) > max_name:
            raise _FALLBACK
        return (END, name_id_of(name), None, significant, has_text)
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
            if b"&" in value:
                raise _FALLBACK
            if max_text is not None and len(value) > max_text:
                raise _FALLBACK
            names.append(attr_name)
            pos = attr.end()
        if blob[pos:].strip(_WS):
            raise _FALLBACK
        max_attrs = limits.max_attributes
        if max_attrs is not None and len(names) > max_attrs:
            raise _FALLBACK
        attr_names = frozenset(attr.decode("ascii") for attr in names)
    kind = SELFCLOSE if selfclose else START
    return (kind, name_id_of(name), attr_names, significant, has_text)
