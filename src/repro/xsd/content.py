"""Content models: the right-hand sides of rules and type definitions.

The paper's formal model uses bare deterministic regular expressions as
content models.  The practical language additionally carries a ``mixed``
flag and attribute uses.  Because none of the translation algorithms ever
*rebuilds* a content model (they only move them around, erase types from
their symbols, or re-attach types — see Section 4.1: deterministic
expressions are not closed under Boolean operations), the whole pipeline is
implemented over this single :class:`ContentModel` wrapper; the formal core
is the special case ``mixed=False`` with no attributes.
"""

from __future__ import annotations

from repro.errors import SchemaError
from repro.regex.ast import Regex, Symbol, concat, counter, interleave, optional
from repro.regex.ast import plus as regex_plus
from repro.regex.ast import star as regex_star
from repro.regex.ast import union as regex_union
from repro.regex.ast import (
    Concat,
    Counter,
    EmptySet,
    Epsilon,
    Interleave,
    Optional,
    Plus,
    Star,
    Union,
)
from repro.regex.derivatives import DerivativeMatcher


class AttributeUse:
    """One attribute use in a content model.

    Attributes:
        name: the attribute name (without the ``@``).
        required: whether the attribute must be present.
        type_name: optional simple-type name (e.g. ``"xs:string"``).
    """

    __slots__ = ("name", "required", "type_name")

    def __init__(self, name, required=True, type_name=None):
        self.name = name
        self.required = required
        self.type_name = type_name

    def __eq__(self, other):
        return (
            isinstance(other, AttributeUse)
            and self.name == other.name
            and self.required == other.required
            and self.type_name == other.type_name
        )

    def __hash__(self):
        return hash((self.name, self.required, self.type_name))

    def __repr__(self):
        marker = "" if self.required else "?"
        return f"AttributeUse({self.name}{marker})"


class ContentModel:
    """A content model: element regex + mixedness + attribute uses.

    Attributes:
        regex: :class:`~repro.regex.ast.Regex` over element names (or typed
            element names inside XSDs).
        mixed: whether character data may be interleaved with children.
        attributes: tuple of :class:`AttributeUse`.
    """

    __slots__ = ("regex", "mixed", "attributes", "_matcher")

    def __init__(self, regex, mixed=False, attributes=()):
        if not isinstance(regex, Regex):
            raise SchemaError(f"content model needs a Regex, got {regex!r}")
        self.regex = regex
        self.mixed = bool(mixed)
        self.attributes = tuple(attributes)
        names = [use.name for use in self.attributes]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate attribute use in {names}")
        self._matcher = None

    # -- structural ------------------------------------------------------
    def map_symbols(self, function):
        """A copy whose regex symbols are rewritten by ``function``.

        ``function`` receives each symbol name and returns the new name.
        This is the only transformation the translation algorithms apply to
        content models (type erasure µ in Algorithm 1, type attachment in
        Algorithm 4); it preserves determinism because it never changes the
        expression's shape.
        """
        return ContentModel(
            _map_regex_symbols(self.regex, function),
            mixed=self.mixed,
            attributes=self.attributes,
        )

    def element_names(self):
        """The set of element names occurring in the regex."""
        return self.regex.symbols()

    @property
    def size(self):
        """Paper size measure: symbol occurrences (+ attribute uses)."""
        return self.regex.size + len(self.attributes)

    def attribute(self, name):
        """The :class:`AttributeUse` with this name, or ``None``."""
        for use in self.attributes:
            if use.name == name:
                return use
        return None

    # -- validation -------------------------------------------------------
    def matcher(self):
        """A cached :class:`DerivativeMatcher` for the element regex."""
        if self._matcher is None:
            self._matcher = DerivativeMatcher(self.regex)
        return self._matcher

    def matches_children(self, names):
        """True iff the child-string ``names`` matches the regex."""
        return self.matcher().matches(list(names))

    def check_node(self, node, path="?"):
        """Validate one XML element's content and attributes.

        Returns a list of human-readable violations (empty = conforming),
        each prefixed with ``path``.
        """
        return [f"{path}: {problem}" for problem in self.problems(node)]

    def problems(self, node):
        """:meth:`check_node`'s violations without their path prefix, so
        a caller can work out a path only for an element that has one."""
        problems = []
        if not self.mixed and node.has_text():
            problems.append(f"element <{node.name}> may not contain text")
        children = node.ch_str()
        if not self.matches_children(children):
            shown = " ".join(children) if children else "(no children)"
            problems.append(
                f"children of <{node.name}> [{shown}] do not match "
                f"content model {self.regex}"
            )
        declared = {use.name for use in self.attributes}
        for use in self.attributes:
            if use.required and use.name not in node.attributes:
                problems.append(
                    f"element <{node.name}> is missing required "
                    f"attribute {use.name!r}"
                )
        for attr_name in node.attributes:
            if attr_name not in declared:
                problems.append(
                    f"element <{node.name}> has undeclared "
                    f"attribute {attr_name!r}"
                )
        return problems

    # -- value semantics ---------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, ContentModel)
            and self.regex == other.regex
            and self.mixed == other.mixed
            and self.attributes == other.attributes
        )

    def __hash__(self):
        return hash((self.regex, self.mixed, self.attributes))

    def __repr__(self):
        mixed = " mixed" if self.mixed else ""
        return f"ContentModel({self.regex}{mixed}, attrs={list(self.attributes)})"


def as_content_model(value):
    """Coerce a Regex into a ContentModel (formal-core convenience)."""
    if isinstance(value, ContentModel):
        return value
    return ContentModel(value)


def _map_regex_symbols(node, function):
    if isinstance(node, Symbol):
        return Symbol(function(node.name))
    if isinstance(node, (EmptySet, Epsilon)):
        return node
    if isinstance(node, Concat):
        return concat(*(_map_regex_symbols(c, function) for c in node.children))
    if isinstance(node, Union):
        return regex_union(
            *(_map_regex_symbols(c, function) for c in node.children)
        )
    if isinstance(node, Interleave):
        return interleave(
            *(_map_regex_symbols(c, function) for c in node.children)
        )
    if isinstance(node, Star):
        return regex_star(_map_regex_symbols(node.child, function))
    if isinstance(node, Plus):
        return regex_plus(_map_regex_symbols(node.child, function))
    if isinstance(node, Optional):
        return optional(_map_regex_symbols(node.child, function))
    if isinstance(node, Counter):
        return counter(
            _map_regex_symbols(node.child, function), node.low, node.high
        )
    raise SchemaError(f"unknown regex node {node!r}")
