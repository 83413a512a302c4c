"""The lexical layer both parser tiers share.

A :class:`_Cursor` over the document text gives line/column diagnostics
and limit errors, and :func:`_decode_entities` decodes the five
predefined entities and numeric character references under the
text-run cap.  The char tier (:mod:`repro.xmlmodel.parser`) reads its
whole input through them; the byte tier
(:mod:`repro.xmlmodel.tokenizer`) decodes through the same function, so
both tiers accept and reject the same references with the same errors.
Neither tier is imported here, so the parser can import the tokenizer
at module level without a cycle.
"""

from __future__ import annotations

from repro.errors import LimitExceeded, ParseError

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class _Cursor:
    """Tracks position in the input and provides line/column diagnostics."""

    __slots__ = ("text", "pos")

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def location(self):
        consumed = self.text[: self.pos]
        line = consumed.count("\n") + 1
        column = self.pos - (consumed.rfind("\n") + 1) + 1
        return line, column

    def error(self, message):
        line, column = self.location()
        return ParseError(message, line=line, column=column)

    def limit_error(self, message, limit, value):
        line, column = self.location()
        return LimitExceeded(
            message, line=line, column=column, limit=limit, value=value
        )

    def at_end(self):
        return self.pos >= len(self.text)

    def peek(self, width=1):
        return self.text[self.pos : self.pos + width]

    def startswith(self, token):
        return self.text.startswith(token, self.pos)

    def advance(self, amount=1):
        self.pos += amount

    def skip_whitespace(self):
        text = self.text
        while self.pos < len(text) and text[self.pos] in " \t\r\n":
            self.pos += 1

    def take_until(self, token, construct):
        index = self.text.find(token, self.pos)
        if index < 0:
            raise self.error(f"unterminated {construct}")
        chunk = self.text[self.pos : index]
        self.pos = index + len(token)
        return chunk


def _check_text(data, cursor, limits):
    """Enforce the per-run text cap (character data, CDATA, attributes)."""
    limit = limits.max_text_length
    if limit is not None and len(data) > limit:
        raise cursor.limit_error(
            f"text run limit exceeded ({len(data)} chars > "
            f"max_text_length={limit})",
            "max_text_length", len(data),
        )


def _decode_character_reference(body, cursor):
    """Decode a numeric character reference body (``#10`` / ``#x1F600``).

    Malformed digits, out-of-range code points, and surrogates all raise
    :class:`ParseError` with the cursor's line/column — never a raw
    ``ValueError`` from ``int``/``chr``.
    """
    if body[1:2] in ("x", "X"):
        digits = body[2:]
        if not digits or not all(c in _HEX_DIGITS for c in digits):
            raise cursor.error(f"invalid character reference &{body};")
        code = int(digits, 16)
    else:
        digits = body[1:]
        if not digits or not (digits.isascii() and digits.isdigit()):
            raise cursor.error(f"invalid character reference &{body};")
        code = int(digits)
    if code == 0 or code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise cursor.error(
            f"character reference &{body}; is not a valid XML character"
        )
    return chr(code)


def _decode_entities(raw, cursor, limits):
    _check_text(raw, cursor, limits)
    if "&" not in raw:
        return raw
    out = []
    index = 0
    while index < len(raw):
        char = raw[index]
        if char != "&":
            out.append(char)
            index += 1
            continue
        end = raw.find(";", index)
        if end < 0:
            raise cursor.error("unterminated entity reference")
        body = raw[index + 1 : end]
        if body.startswith("#"):
            out.append(_decode_character_reference(body, cursor))
        elif body in _ENTITIES:
            out.append(_ENTITIES[body])
        else:
            raise cursor.error(f"unknown entity &{body};")
        index = end + 1
    return "".join(out)
