"""Parser for the concrete BonXai syntax (Figures 4 and 5 of the paper).

The accepted language::

    target namespace <uri>
    namespace <prefix> = <uri>
    global { name, name, ... }                      (commas optional)
    groups {
      group <name> = { <child pattern body> }
      attribute-group <name> = { attribute a?, attribute b }
    }
    grammar {
      <ancestor pattern> = [mixed] { <child pattern body> }
      ...
    }
    constraints {
      unique <selector> (@f, @g)
      key <name> <selector> (@f)
      keyref <name> <selector> (@f) refers <key name>
    }
    types {                                       (extension, Section 5)
      simple-type <name> = restriction <base> { min 1 max 99 length 3 }
      simple-type <name> = enumeration { a | b | c }
      simple-type <name> = pattern { [A-Z]+-[0-9]+ }
    }

Comments run from ``#`` to the end of the line.  Rule order in the grammar
block is significant (priorities: the last matching rule wins).
"""

from __future__ import annotations

import re as _re

from repro.bonxai.ancestor import AncestorPattern
from repro.bonxai.child import (
    ChildPattern,
    CPAttribute,
    CPAttributeGroup,
    CPChoice,
    CPCounter,
    CPElement,
    CPGroup,
    CPInterleave,
    CPOpt,
    CPPlus,
    CPSeq,
    CPStar,
)
from repro.bonxai.syntax import BonXaiSchema, Constraint, GrammarRule
from repro.errors import ParseError

_COMMENT_RE = _re.compile(r"#[^\n]*")
_TARGET_NS_RE = _re.compile(r"^\s*target\s+namespace\s+(\S+)\s*$")
_NAMESPACE_RE = _re.compile(r"^\s*namespace\s+([\w.-]+)\s*=\s*(\S+)\s*$")
_DEFAULT_NS_RE = _re.compile(r"^\s*default\s+namespace\s+(\S+)\s*$")


def parse_bonxai(text):
    """Parse BonXai source text into a :class:`BonXaiSchema`.

    The text may open with a byte-order mark (U+FEFF at offset 0 only,
    as in an XML document).

    Raises:
        ParseError: on malformed input.
    """
    text = _COMMENT_RE.sub("", text.removeprefix("\ufeff"))
    scanner = _BlockScanner(text)
    target_namespace = None
    namespaces = {}
    global_names = None
    groups = {}
    attribute_groups = {}
    rules = []
    constraints = []
    simple_types = {}

    for kind, payload in scanner.items():
        if kind == "target":
            target_namespace = payload
        elif kind == "namespace":
            prefix, uri = payload
            namespaces[prefix] = uri
        elif kind == "global":
            global_names = _parse_global(payload)
        elif kind == "groups":
            _parse_groups(payload, groups, attribute_groups)
        elif kind == "grammar":
            rules.extend(_parse_grammar(payload))
        elif kind == "constraints":
            constraints.extend(_parse_constraints(payload))
        elif kind == "types":
            from repro.bonxai.usertypes import parse_types_block

            simple_types.update(parse_types_block(payload))

    if global_names is None:
        raise ParseError("missing 'global { ... }' block")
    return BonXaiSchema(
        global_names=global_names,
        rules=rules,
        groups=groups,
        attribute_groups=attribute_groups,
        constraints=constraints,
        target_namespace=target_namespace,
        namespaces=namespaces,
        simple_types=simple_types,
    )


class _BlockScanner:
    """Splits the input into header lines and brace-balanced blocks."""

    _BLOCK_KEYWORDS = ("global", "groups", "grammar", "constraints", "types")

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def items(self):
        while True:
            self._skip_whitespace()
            if self.pos >= len(self.text):
                return
            line_end = self.text.find("\n", self.pos)
            if line_end < 0:
                line_end = len(self.text)
            line = self.text[self.pos : line_end]

            match = _TARGET_NS_RE.match(line)
            if match:
                self.pos = line_end
                yield "target", match.group(1)
                continue
            match = _NAMESPACE_RE.match(line)
            if match:
                self.pos = line_end
                yield "namespace", (match.group(1), match.group(2))
                continue
            match = _DEFAULT_NS_RE.match(line)
            if match:
                self.pos = line_end
                yield "namespace", ("", match.group(1))
                continue

            keyword = self._peek_word()
            if keyword in self._BLOCK_KEYWORDS:
                self.pos += len(keyword)
                body = self._read_braced()
                yield keyword, body
                continue
            raise ParseError(
                f"unexpected content at top level: {line.strip()[:50]!r}"
            )

    def _skip_whitespace(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek_word(self):
        match = _re.match(r"[\w-]+", self.text[self.pos :])
        return match.group(0) if match else ""

    def _read_braced(self):
        self._skip_whitespace()
        if self.pos >= len(self.text) or self.text[self.pos] != "{":
            raise ParseError("expected '{' to open a block")
        depth = 0
        start = self.pos + 1
        for index in range(self.pos, len(self.text)):
            char = self.text[index]
            if char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    self.pos = index + 1
                    return self.text[start:index]
        raise ParseError("unterminated block (missing '}')")


def _parse_global(body):
    names = [name for name in _re.split(r"[,\s]+", body.strip()) if name]
    if not names:
        raise ParseError("the global block must name at least one element")
    return names


# ---------------------------------------------------------------------------
# Groups block
# ---------------------------------------------------------------------------

def _parse_groups(body, groups, attribute_groups):
    scanner = _RuleScanner(body)
    while not scanner.at_end():
        keyword = scanner.read_word()
        if keyword == "group":
            name = scanner.read_word()
            scanner.expect("=")
            pattern = _parse_child_pattern(scanner.read_braced(), mixed=False)
            if pattern.body is None:
                raise ParseError(f"group {name!r} has an empty body")
            groups[name] = pattern.body
        elif keyword == "attribute-group":
            name = scanner.read_word()
            scanner.expect("=")
            pattern = _parse_child_pattern(scanner.read_braced(), mixed=False)
            uses = _attribute_uses_only(pattern, name)
            attribute_groups[name] = uses
        else:
            raise ParseError(
                f"expected 'group' or 'attribute-group', got {keyword!r}"
            )


def _attribute_uses_only(pattern, group_name):
    body = pattern.body
    factors = [body] if body is None or body[0] != "seq" else body[1]
    uses = []
    for factor in factors:
        if factor is None:
            continue
        required = True
        if factor[0] == "opt":
            factor = factor[1]
            required = False
        if factor[0] != "attribute":
            raise ParseError(
                f"attribute-group {group_name!r} may only contain "
                f"attribute uses"
            )
        uses.append((factor[1], required and factor[2]))
    return uses


# ---------------------------------------------------------------------------
# Grammar block
# ---------------------------------------------------------------------------

def _parse_grammar(body):
    scanner = _RuleScanner(body)
    rules = []
    while not scanner.at_end():
        lhs = scanner.read_until_equals()
        mixed = False
        if scanner.peek_word() == "mixed":
            scanner.read_word()
            mixed = True
        child_source = scanner.read_braced()
        child = _parse_child_pattern(child_source, mixed=mixed)
        rules.append(GrammarRule(AncestorPattern(lhs), child))
    return rules


class _RuleScanner:
    """Low-level scanning helpers shared by the block parsers."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_whitespace(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self):
        self._skip_whitespace()
        return self.pos >= len(self.text)

    def peek_word(self):
        self._skip_whitespace()
        match = _re.match(r"[\w@.:-]+", self.text[self.pos :])
        return match.group(0) if match else ""

    def read_word(self):
        self._skip_whitespace()
        match = _re.match(r"[\w@.:-]+", self.text[self.pos :])
        if match is None:
            raise ParseError(
                f"expected a name near {self.text[self.pos:][:40]!r}"
            )
        self.pos += match.end()
        return match.group(0)

    def expect(self, literal):
        self._skip_whitespace()
        if not self.text.startswith(literal, self.pos):
            raise ParseError(
                f"expected {literal!r} near {self.text[self.pos:][:40]!r}"
            )
        self.pos += len(literal)

    def read_until_equals(self):
        """The raw left-hand side of a rule (up to a top-level '=')."""
        self._skip_whitespace()
        depth = 0
        start = self.pos
        for index in range(self.pos, len(self.text)):
            char = self.text[index]
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
            elif char == "=" and depth == 0:
                lhs = self.text[start:index].strip()
                if not lhs:
                    raise ParseError("rule with empty left-hand side")
                self.pos = index + 1
                return lhs
        raise ParseError(
            f"expected '=' in rule near {self.text[start:][:40]!r}"
        )

    def read_braced(self):
        self._skip_whitespace()
        if self.pos >= len(self.text) or self.text[self.pos] != "{":
            raise ParseError(
                f"expected '{{' near {self.text[self.pos:][:40]!r}"
            )
        depth = 0
        start = self.pos + 1
        for index in range(self.pos, len(self.text)):
            char = self.text[index]
            if char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    self.pos = index + 1
                    return self.text[start:index]
        raise ParseError("unterminated '{' in rule body")


# ---------------------------------------------------------------------------
# Child pattern bodies
# ---------------------------------------------------------------------------

_CHILD_TOKEN_RE = _re.compile(
    r"\s*(?:"
    r"(?P<keyword>element|attribute-group|attribute|group|type)\b"
    r"|(?P<name>[\w.:-]+)"
    r"|(?P<punct>[,|&*+?(){}])"
    r")"
)


def _tokenize_child(source):
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        match = _CHILD_TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {source[pos]!r} in child pattern "
                f"{source.strip()[:40]!r}"
            )
        if match.group("keyword"):
            tokens.append(("keyword", match.group("keyword")))
        elif match.group("name"):
            tokens.append(("name", match.group("name")))
        else:
            punct = match.group("punct")
            tokens.append((punct, punct))
        pos = match.end()
    tokens.append(("eof", ""))
    return tokens


def _parse_child_pattern(source, mixed):
    tokens = _tokenize_child(source)
    if tokens[0][0] == "eof":
        return ChildPattern(body=None, mixed=mixed)
    # A pure type reference: { type xs:string }.
    if (
        tokens[0] == ("keyword", "type")
        and tokens[1][0] == "name"
        and tokens[2][0] == "eof"
    ):
        return ChildPattern(type_name=tokens[1][1], mixed=mixed)
    parser = _ChildParser(tokens, source)
    body = parser.parse()
    return ChildPattern(body=body, mixed=mixed)


class _ChildParser:
    """Precedence parser: ',' < '|' < '&' < postfix operators."""

    def __init__(self, tokens, source):
        self.tokens = tokens
        self.pos = 0
        self.source = source.strip()

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        token = self.tokens[self.pos]
        if token[0] != "eof":
            self.pos += 1
        return token

    def parse(self):
        body = self._parse_seq()
        if self.peek()[0] != "eof":
            raise ParseError(
                f"trailing content in child pattern {self.source[:40]!r}"
            )
        return body

    def _parse_seq(self):
        parts = [self._parse_choice()]
        while self.peek()[0] == ",":
            self.next()
            parts.append(self._parse_choice())
        return parts[0] if len(parts) == 1 else CPSeq(*parts)

    def _parse_choice(self):
        parts = [self._parse_interleave()]
        while self.peek()[0] == "|":
            self.next()
            parts.append(self._parse_interleave())
        return parts[0] if len(parts) == 1 else CPChoice(*parts)

    def _parse_interleave(self):
        parts = [self._parse_postfix()]
        while self.peek()[0] == "&":
            self.next()
            parts.append(self._parse_postfix())
        return parts[0] if len(parts) == 1 else CPInterleave(*parts)

    def _parse_postfix(self):
        node = self._parse_atom()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.next()
                node = CPStar(node)
            elif kind == "+":
                self.next()
                node = CPPlus(node)
            elif kind == "?":
                self.next()
                node = CPOpt(node)
            elif kind == "{":
                node = self._parse_counter(node)
            else:
                return node

    def _parse_counter(self, node):
        self.next()  # '{'
        low_token = self.next()
        if low_token[0] != "name" or not low_token[1].isdigit():
            raise ParseError(
                f"counter bounds must be numbers in {self.source[:40]!r}"
            )
        low = int(low_token[1])
        high = low
        if self.peek()[0] == ",":
            self.next()
            token = self.next()
            if token[0] == "*":
                high = None
            elif token[0] == "name" and token[1].isdigit():
                high = int(token[1])
            else:
                raise ParseError(
                    f"bad counter upper bound in {self.source[:40]!r}"
                )
        closing = self.next()
        if closing[0] != "}":
            raise ParseError(f"unterminated counter in {self.source[:40]!r}")
        return CPCounter(node, low, high)

    def _parse_atom(self):
        token = self.next()
        if token[0] == "keyword":
            keyword = token[1]
            name_token = self.next()
            if name_token[0] != "name":
                raise ParseError(
                    f"'{keyword}' must be followed by a name in "
                    f"{self.source[:40]!r}"
                )
            name = name_token[1]
            if keyword == "element":
                return CPElement(name)
            if keyword == "attribute":
                return CPAttribute(name)
            if keyword == "group":
                return CPGroup(name)
            if keyword == "attribute-group":
                return CPAttributeGroup(name)
            if keyword == "type":
                raise ParseError(
                    "'type' references must be the entire child pattern"
                )
        if token[0] == "(":
            inner = self._parse_seq()
            closing = self.next()
            if closing[0] != ")":
                raise ParseError(
                    f"missing ')' in child pattern {self.source[:40]!r}"
                )
            return inner
        raise ParseError(
            f"unexpected token {token[1]!r} in child pattern "
            f"{self.source[:40]!r} (element names need the 'element' "
            f"keyword)"
        )


# ---------------------------------------------------------------------------
# Constraints block
# ---------------------------------------------------------------------------

_CONSTRAINT_RE = _re.compile(
    r"(?P<kind>unique|keyref|key)\s+"
    r"(?:(?P<name>[\w.-]+)\s+)?"
    r"(?P<selector>[^()\s](?:[^()]*[^()\s])?)\s*"
    r"\((?P<fields>[^)]*)\)"
    r"(?:\s+refers\s+(?P<refers>[\w.-]+))?",
)


def _parse_constraints(body):
    constraints = []
    pos = 0
    while True:
        remaining = body[pos:].strip()
        if not remaining:
            return constraints
        match = _CONSTRAINT_RE.search(body, pos)
        if match is None:
            raise ParseError(
                f"malformed constraint near {remaining[:40]!r}"
            )
        leading = body[pos : match.start()].strip()
        if leading:
            raise ParseError(f"unexpected constraint content {leading[:40]!r}")
        fields = []
        for field in match.group("fields").split(","):
            field = field.strip()
            if not field:
                continue
            if not field.startswith("@"):
                raise ParseError(
                    f"constraint fields must be attributes (@name): "
                    f"{field!r}"
                )
            fields.append(field[1:])
        if match.group("kind") != "unique" and match.group("name") is None:
            raise ParseError(
                f"{match.group('kind')} constraints must be named"
            )
        constraints.append(
            Constraint(
                match.group("kind"),
                match.group("selector").strip(),
                fields,
                name=match.group("name"),
                refers=match.group("refers"),
            )
        )
        pos = match.end()
