"""Document Type Definitions: model, parser, and validator.

DTDs are the baseline schema language of the paper (Figure 2).  A DTD is a
set of context-insensitive rules: one content model per element name.  We
support the full element-declaration syntax::

    <!ELEMENT name EMPTY>
    <!ELEMENT name ANY>
    <!ELEMENT name (#PCDATA | a | b)*>          (mixed content)
    <!ELEMENT name (a, (b | c)*, d?)>           (children content)
    <!ATTLIST name attr CDATA #REQUIRED>        (plus #IMPLIED, #FIXED, enums)
    <!ENTITY % param "replacement text">        (parameter entities)

Parameter entities are textually substituted, exactly as the paper's
Figure 2 uses ``%markup;``.
"""

from __future__ import annotations

import re as _re

from repro.errors import ParseError, SchemaError
from repro.regex.ast import (
    EPSILON,
    concat,
    optional,
    plus,
    star,
    sym,
    union,
)
from repro.regex.derivatives import DerivativeMatcher


class DTDAttribute:
    """One attribute declaration from an ATTLIST.

    Attributes:
        name: the attribute name.
        kind: the declared type (``CDATA``, ``ID``, ``IDREF``, ``NMTOKEN``,
            or a tuple of enumeration values).
        default: one of ``"#REQUIRED"``, ``"#IMPLIED"``, ``"#FIXED"``, or a
            literal default value.
        fixed_value: the value when ``default == "#FIXED"``.
    """

    __slots__ = ("name", "kind", "default", "fixed_value")

    def __init__(self, name, kind="CDATA", default="#IMPLIED", fixed_value=None):
        self.name = name
        self.kind = kind
        self.default = default
        self.fixed_value = fixed_value

    @property
    def required(self):
        return self.default == "#REQUIRED"


class DTDElement:
    """One element declaration.

    Attributes:
        name: the element name.
        category: ``"EMPTY"``, ``"ANY"``, ``"MIXED"``, or ``"CHILDREN"``.
        content: the content-model regex (over element names); for MIXED
            content this is the star over the permitted child names, for
            EMPTY it is epsilon, for ANY it is ``None`` (anything goes).
        attributes: ``dict`` attribute name -> :class:`DTDAttribute`.
    """

    __slots__ = ("name", "category", "content", "attributes")

    def __init__(self, name, category, content):
        self.name = name
        self.category = category
        self.content = content
        self.attributes = {}

    @property
    def allows_text(self):
        return self.category in ("MIXED", "ANY")


class DTD:
    """A parsed DTD: a mapping from element names to declarations.

    Attributes:
        elements: ``dict`` element name -> :class:`DTDElement`.
        root: the expected root element name (the DOCTYPE name), if known.
    """

    def __init__(self, elements=None, root=None):
        self.elements = dict(elements or {})
        self.root = root

    def element_names(self):
        """All declared element names."""
        return set(self.elements)

    def validate(self, document):
        """Validate ``document`` and return a list of violation strings.

        An empty list means the document conforms.  Matches the classical
        DTD semantics: every element must be declared; its children must
        match its content model; text is only allowed in MIXED/ANY content;
        required attributes must be present; enumerated attributes must use
        a listed value; undeclared attributes are rejected.
        """
        violations = []
        if self.root is not None and document.root.name != self.root:
            violations.append(
                f"root element is <{document.root.name}>, expected <{self.root}>"
            )
        matchers = {}
        for node in document.iter():
            declaration = self.elements.get(node.name)
            if declaration is None:
                violations.append(f"element <{node.name}> is not declared")
                continue
            violations.extend(self._check_content(node, declaration, matchers))
            violations.extend(self._check_attributes(node, declaration))
        return violations

    def is_valid(self, document):
        """True iff the document conforms to this DTD."""
        return not self.validate(document)

    def _check_content(self, node, declaration, matchers):
        if declaration.category == "ANY":
            return []
        if declaration.category == "EMPTY":
            if node.children or node.has_text():
                return [f"element <{node.name}> must be empty"]
            return []
        if declaration.category == "CHILDREN" and node.has_text():
            return [f"element <{node.name}> may not contain text"]
        matcher = matchers.get(node.name)
        if matcher is None:
            matcher = DerivativeMatcher(declaration.content)
            matchers[node.name] = matcher
        if not matcher.matches(node.ch_str()):
            return [
                f"children of <{node.name}> "
                f"({' '.join(node.ch_str()) or 'none'}) do not match its "
                f"content model"
            ]
        return []

    def _check_attributes(self, node, declaration):
        violations = []
        for attr_name, attr in declaration.attributes.items():
            value = node.attributes.get(attr_name)
            if value is None:
                if attr.required:
                    violations.append(
                        f"element <{node.name}> is missing required "
                        f"attribute {attr_name!r}"
                    )
                continue
            if isinstance(attr.kind, tuple) and value not in attr.kind:
                violations.append(
                    f"attribute {attr_name!r} of <{node.name}> has value "
                    f"{value!r}, expected one of {sorted(attr.kind)}"
                )
            if attr.default == "#FIXED" and value != attr.fixed_value:
                violations.append(
                    f"attribute {attr_name!r} of <{node.name}> must be "
                    f"fixed to {attr.fixed_value!r}"
                )
        for attr_name in node.attributes:
            if attr_name not in declaration.attributes:
                violations.append(
                    f"attribute {attr_name!r} of <{node.name}> is not declared"
                )
        return violations


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_DECL_RE = _re.compile(r"<!(ELEMENT|ATTLIST|ENTITY)\s+", _re.DOTALL)
_COMMENT_RE = _re.compile(r"<!--.*?-->", _re.DOTALL)
_PARAM_REF_RE = _re.compile(r"%([A-Za-z_][\w.-]*);")


def parse_dtd(text, root=None):
    """Parse DTD declarations from ``text`` into a :class:`DTD`.

    Args:
        text: the DTD source (an external subset, i.e. bare declarations),
            which may open with a byte-order mark (U+FEFF at offset 0
            only, as in an XML document).
        root: optional expected root element name.
    """
    text = _COMMENT_RE.sub(" ", text.removeprefix("\ufeff"))
    entities = {}
    dtd = DTD(root=root)
    for kind, body in _iter_declarations(text):
        body = _substitute_entities(body, entities)
        if kind == "ENTITY":
            name, value = _parse_entity(body)
            entities[name] = value
        elif kind == "ELEMENT":
            declaration = _parse_element_declaration(body)
            if declaration.name in dtd.elements:
                raise SchemaError(
                    f"element <{declaration.name}> is declared twice"
                )
            dtd.elements[declaration.name] = declaration
        elif kind == "ATTLIST":
            _parse_attlist(body, dtd)
    return dtd


def _iter_declarations(text):
    pos = 0
    while True:
        match = _DECL_RE.search(text, pos)
        if match is None:
            remaining = text[pos:].strip()
            if remaining:
                raise ParseError(f"unexpected DTD content: {remaining[:40]!r}")
            return
        leading = text[pos : match.start()].strip()
        if leading:
            raise ParseError(f"unexpected DTD content: {leading[:40]!r}")
        end = text.find(">", match.end())
        if end < 0:
            raise ParseError(f"unterminated <!{match.group(1)} declaration")
        yield match.group(1), text[match.end() : end].strip()
        pos = end + 1


def _substitute_entities(body, entities, depth=0):
    if depth > 16:
        raise ParseError("parameter entities nest too deeply (cycle?)")

    def replace(match):
        name = match.group(1)
        if name not in entities:
            raise ParseError(f"undefined parameter entity %{name};")
        return entities[name]

    substituted = _PARAM_REF_RE.sub(replace, body)
    if substituted != body:
        return _substitute_entities(substituted, entities, depth + 1)
    return substituted


def _parse_entity(body):
    match = _re.match(r"%\s+([\w.-]+)\s+(['\"])(.*)\2\s*$", body, _re.DOTALL)
    if match is None:
        raise ParseError(f"unsupported ENTITY declaration: {body[:60]!r}")
    return match.group(1), match.group(3)


def _parse_element_declaration(body):
    match = _re.match(r"([\w.-]+)\s+(.*)$", body, _re.DOTALL)
    if match is None:
        raise ParseError(f"malformed ELEMENT declaration: {body[:60]!r}")
    name, model = match.group(1), match.group(2).strip()
    if model == "EMPTY":
        return DTDElement(name, "EMPTY", EPSILON)
    if model == "ANY":
        return DTDElement(name, "ANY", None)
    if model.startswith("(") and "#PCDATA" in model:
        return DTDElement(name, "MIXED", _parse_mixed(model, name))
    return DTDElement(name, "CHILDREN", _parse_children_model(model, name))


def _parse_mixed(model, element_name):
    inner = model.strip()
    star_suffix = inner.endswith("*")
    if star_suffix:
        inner = inner[:-1].strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ParseError(
            f"malformed mixed content model for <{element_name}>: {model!r}"
        )
    parts = [part.strip() for part in inner[1:-1].split("|")]
    if parts[0] != "#PCDATA":
        raise ParseError(
            f"mixed content of <{element_name}> must start with #PCDATA"
        )
    names = [part for part in parts[1:] if part]
    if names and not star_suffix:
        raise ParseError(
            f"mixed content of <{element_name}> with child elements "
            f"requires a trailing '*'"
        )
    if not names:
        return EPSILON if not star_suffix else EPSILON
    return star(union(*(sym(name) for name in names)))


class _ModelScanner:
    """Recursive-descent parser for DTD children content models."""

    def __init__(self, text, element_name):
        self.text = text
        self.pos = 0
        self.element_name = element_name

    def error(self, message):
        return ParseError(
            f"content model of <{self.element_name}>: {message} "
            f"(at offset {self.pos} in {self.text!r})"
        )

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def parse(self):
        result = self.parse_particle()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing content")
        return result

    def parse_particle(self):
        self.skip_ws()
        if self.peek() == "(":
            self.pos += 1
            inner = self.parse_group()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            node = inner
        else:
            node = sym(self.parse_name())
        return self.parse_occurrence(node)

    def parse_group(self):
        parts = [self.parse_particle()]
        separator = None
        while True:
            char = self.peek()
            if char in (",", "|"):
                if separator is None:
                    separator = char
                elif separator != char:
                    raise self.error("cannot mix ',' and '|' in one group")
                self.pos += 1
                parts.append(self.parse_particle())
            else:
                break
        if separator == "|":
            return union(*parts)
        return concat(*parts)

    def parse_occurrence(self, node):
        char = self.peek()
        if char == "*":
            self.pos += 1
            return star(node)
        if char == "+":
            self.pos += 1
            return plus(node)
        if char == "?":
            self.pos += 1
            return optional(node)
        return node

    def parse_name(self):
        self.skip_ws()
        match = _re.match(r"[\w.:-]+", self.text[self.pos :])
        if match is None:
            raise self.error("expected an element name")
        self.pos += match.end()
        return match.group(0)


def _parse_children_model(model, element_name):
    return _ModelScanner(model, element_name).parse()


_ATT_DEFAULT_RE = _re.compile(
    r"(#REQUIRED|#IMPLIED|#FIXED\s+(['\"]).*?\2|(['\"]).*?\3)"
)


def _parse_attlist(body, dtd):
    match = _re.match(r"([\w.:-]+)\s*(.*)$", body, _re.DOTALL)
    if match is None:
        raise ParseError(f"malformed ATTLIST declaration: {body[:60]!r}")
    element_name, rest = match.group(1), match.group(2)
    declaration = dtd.elements.get(element_name)
    if declaration is None:
        # XML allows ATTLIST before ELEMENT; create a placeholder that a
        # later ELEMENT declaration would conflict with -- keep it simple
        # and declare ANY content.
        declaration = DTDElement(element_name, "ANY", None)
        dtd.elements[element_name] = declaration
    scanner = _AttScanner(rest)
    while not scanner.at_end():
        attribute = scanner.parse_attribute()
        declaration.attributes[attribute.name] = attribute


class _AttScanner:
    _TYPES = ("CDATA", "ID", "IDREF", "IDREFS", "NMTOKEN", "NMTOKENS",
              "ENTITY", "ENTITIES", "NOTATION")

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def word(self):
        self.skip_ws()
        match = _re.match(r"[#\w.:'\"(-][^\s]*", self.text[self.pos :])
        if match is None:
            raise ParseError(
                f"malformed ATTLIST body near {self.text[self.pos:][:40]!r}"
            )
        self.pos += match.end()
        return match.group(0)

    def parse_attribute(self):
        name = self.word()
        self.skip_ws()
        if self.text[self.pos] == "(":
            end = self.text.find(")", self.pos)
            if end < 0:
                raise ParseError("unterminated enumeration in ATTLIST")
            values = tuple(
                value.strip()
                for value in self.text[self.pos + 1 : end].split("|")
            )
            kind = values
            self.pos = end + 1
        else:
            kind = self.word()
            if kind not in self._TYPES:
                raise ParseError(f"unknown attribute type {kind!r}")
        self.skip_ws()
        default_match = _ATT_DEFAULT_RE.match(self.text[self.pos :])
        if default_match is None:
            raise ParseError(
                f"malformed attribute default near "
                f"{self.text[self.pos:][:40]!r}"
            )
        raw_default = default_match.group(0)
        self.pos += default_match.end()
        fixed_value = None
        if raw_default.startswith("#FIXED"):
            default = "#FIXED"
            fixed_value = raw_default[len("#FIXED") :].strip()[1:-1]
        elif raw_default in ("#REQUIRED", "#IMPLIED"):
            default = raw_default
        else:
            default = raw_default[1:-1]  # a literal default value
        return DTDAttribute(name, kind=kind, default=default,
                            fixed_value=fixed_value)
