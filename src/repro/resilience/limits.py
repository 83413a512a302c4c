"""Hardened parsing limits for untrusted XML input.

The serving posture (ROADMAP north star: heavy traffic from millions of
users) means malformed and hostile documents are the common case.  The
parser must therefore bound every dimension an attacker controls: input
size, nesting depth, attribute counts, name lengths, and text/entity
expansion.  :class:`ParserLimits` carries those caps; the parser checks
them inline (a comparison per construct, nothing per character) and
raises :class:`~repro.errors.LimitExceeded` — a
:class:`~repro.errors.ParseError` subclass, so existing catch sites and
the per-document fault isolation in :func:`repro.engine.validate_many`
treat an over-limit document exactly like a malformed one.

Limits can be threaded explicitly (``limits=`` keyword on
:func:`~repro.xmlmodel.parse_document` and
:func:`~repro.xmlmodel.iter_events`), since serve and the CLI choose them
per call, or installed ambiently for a dynamic extent, the way a
:class:`~repro.observability.ResourceBudget` is::

    with ParserLimits(max_depth=64):
        parse_document(text)        # the parser observes the 64-deep cap

Explicit threading wins over ambient; with neither, :data:`DEFAULT_LIMITS`
applies — generous caps (64 MiB input, 1000 deep, 256 attributes) that no
legitimate document in the paper's workloads approaches, but that stop a
10k-deep nesting bomb long before the interpreter's recursion limit or
memory would.  ``ParserLimits.unlimited()`` disables every cap for callers
that genuinely trust their input.
"""

from __future__ import annotations

import contextlib
import contextvars

from repro.errors import LimitExceeded

_ambient = contextvars.ContextVar("repro_parser_limits", default=None)

_LIMIT_FIELDS = (
    "max_input_bytes",
    "max_depth",
    "max_attributes",
    "max_name_length",
    "max_text_length",
)


class ParserLimits:
    """Caps on attacker-controlled dimensions of one parsed document.

    Args:
        max_input_bytes: largest accepted document, in UTF-8 bytes.
        max_depth: deepest accepted element nesting (root is depth 1).
        max_attributes: most attributes accepted on one start tag.
        max_name_length: longest accepted element/attribute name.
        max_text_length: longest accepted single character-data, CDATA,
            or attribute-value run, measured after entity decoding (the
            parser has no user-defined entities, so decoding never grows
            text — this also caps the raw run).

    ``None`` disables a cap.  Instances are immutable in spirit (the
    parser only reads them) and safe to share across threads.
    """

    __slots__ = _LIMIT_FIELDS + ("_token",)

    def __init__(self, max_input_bytes=64 * 1024 * 1024, max_depth=1000,
                 max_attributes=256, max_name_length=1024,
                 max_text_length=16 * 1024 * 1024):
        for name, limit in (
            ("max_input_bytes", max_input_bytes),
            ("max_depth", max_depth),
            ("max_attributes", max_attributes),
            ("max_name_length", max_name_length),
            ("max_text_length", max_text_length),
        ):
            if limit is not None and limit <= 0:
                raise ValueError(f"{name} must be positive, got {limit!r}")
        self.max_input_bytes = max_input_bytes
        self.max_depth = max_depth
        self.max_attributes = max_attributes
        self.max_name_length = max_name_length
        self.max_text_length = max_text_length
        self._token = None

    @classmethod
    def unlimited(cls):
        """Limits with every cap disabled (trusted input only)."""
        return cls(max_input_bytes=None, max_depth=None, max_attributes=None,
                   max_name_length=None, max_text_length=None)

    def check_input_size(self, text):
        """Reject ``text`` if its UTF-8 size exceeds ``max_input_bytes``.

        The common case costs one ``len``: a string of N code points
        encodes to at least N and at most 4N bytes, so the exact encoded
        length is only computed in the narrow band where it matters.  A
        lone surrogate (which has no UTF-8 encoding, yet parses as
        character data) counts its three ``surrogatepass`` bytes.
        """
        limit = self.max_input_bytes
        if limit is None:
            return
        length = len(text)
        if length * 4 <= limit:
            return
        size = length if length > limit else len(
            text.encode("utf-8", "surrogatepass")
        )
        if size > limit:
            raise LimitExceeded(
                f"input size limit exceeded ({size} bytes > "
                f"max_input_bytes={limit})",
                limit="max_input_bytes", value=size,
            )

    def to_dict(self):
        return {name: getattr(self, name) for name in _LIMIT_FIELDS}

    def __repr__(self):
        caps = ", ".join(
            f"{name}={getattr(self, name)}" for name in _LIMIT_FIELDS
        )
        return f"ParserLimits({caps})"

    # -- ambient installation ---------------------------------------------
    def __enter__(self):
        self._token = _ambient.set(self)
        return self

    def __exit__(self, *exc_info):
        _ambient.reset(self._token)
        self._token = None
        return False


DEFAULT_LIMITS = ParserLimits()


def current_limits():
    """The ambiently installed limits, or ``None``."""
    return _ambient.get()


def resolve_limits(limits=None):
    """``limits`` if given, else ambient, else :data:`DEFAULT_LIMITS`."""
    if limits is not None:
        return limits
    ambient = _ambient.get()
    return ambient if ambient is not None else DEFAULT_LIMITS


@contextlib.contextmanager
def installed_limits(limits):
    """Install ``limits`` ambiently for one dynamic extent.

    Unlike entering the instance, this is safe to use concurrently from
    many threads (each gets its own contextvar token).
    """
    token = _ambient.set(limits)
    try:
        yield limits
    finally:
        _ambient.reset(token)
