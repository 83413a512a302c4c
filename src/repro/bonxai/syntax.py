"""Object model for concrete BonXai schemas (the five blocks of Section 3.1).

A :class:`BonXaiSchema` mirrors the surface language: the namespace block,
the global block (allowed roots), the optional groups block, the grammar
block (the ordered rules), and the optional constraints block.  Parsing
lives in :mod:`repro.bonxai.parser`, lowering to the formal core in
:mod:`repro.bonxai.compile`, and rendering in :mod:`repro.bonxai.printer`.
"""

from __future__ import annotations

from repro.bonxai.ancestor import AncestorPattern
from repro.errors import SchemaError


class GrammarRule:
    """One rule of the grammar block: ``<ancestor pattern> = <child pattern>``.

    Attributes:
        ancestor: an :class:`~repro.bonxai.ancestor.AncestorPattern`.
        child: a :class:`~repro.bonxai.child.ChildPattern`.
    """

    __slots__ = ("ancestor", "child")

    def __init__(self, ancestor, child):
        if isinstance(ancestor, str):
            ancestor = AncestorPattern(ancestor)
        self.ancestor = ancestor
        self.child = child

    @property
    def is_attribute_rule(self):
        """True for simple-type assignments like ``@size = {type xs:integer}``."""
        return self.ancestor.is_attribute_pattern

    def __repr__(self):
        return f"GrammarRule({self.ancestor.text!r} = ...)"


class Constraint:
    """One integrity constraint (unique / key / keyref), as in XML Schema.

    Attributes:
        kind: ``"unique"``, ``"key"``, or ``"keyref"``.
        name: the constraint's name (optional for ``unique``).
        selector: an :class:`AncestorPattern` selecting the constrained
            nodes.
        fields: tuple of attribute names whose value tuples are constrained.
        refers: for ``keyref``: the name of the referenced key.
    """

    __slots__ = ("kind", "name", "selector", "fields", "refers")

    def __init__(self, kind, selector, fields, name=None, refers=None):
        if kind not in ("unique", "key", "keyref"):
            raise SchemaError(f"unknown constraint kind {kind!r}")
        if kind == "keyref" and refers is None:
            raise SchemaError("keyref constraints must name the key they refer to")
        if kind != "keyref" and refers is not None:
            raise SchemaError(f"{kind} constraints take no 'refers' clause")
        if kind in ("key", "keyref") and name is None:
            raise SchemaError(f"{kind} constraints must be named")
        if isinstance(selector, str):
            selector = AncestorPattern(selector)
        self.kind = kind
        self.name = name
        self.selector = selector
        self.fields = tuple(fields)
        self.refers = refers

    def __repr__(self):
        return f"Constraint({self.kind} {self.name or ''} {self.selector.text})"


class BonXaiSchema:
    """A concrete BonXai schema (all five blocks).

    Attributes:
        target_namespace: the ``target namespace`` URI, or ``None``.
        namespaces: dict prefix -> URI from ``namespace`` declarations.
        global_names: list of allowed root element names (global block).
        groups: dict name -> child-pattern body AST (element groups).
        attribute_groups: dict name -> list of ``(attr_name, required)``.
        rules: ordered list of :class:`GrammarRule` (priority: last wins).
        constraints: list of :class:`Constraint`.
        simple_types: dict name -> :class:`~repro.bonxai.usertypes.SimpleTypeDef`
            (native simple types -- the Section 5 extension).
    """

    def __init__(self, global_names, rules, groups=None,
                 attribute_groups=None, constraints=None,
                 target_namespace=None, namespaces=None,
                 simple_types=None):
        self.target_namespace = target_namespace
        self.namespaces = dict(namespaces or {})
        self.global_names = list(global_names)
        self.groups = dict(groups or {})
        self.attribute_groups = dict(attribute_groups or {})
        self.rules = list(rules)
        self.constraints = list(constraints or [])
        self.simple_types = dict(simple_types or {})
        if not self.global_names:
            raise SchemaError("the global block must name at least one root")

    # -- derived ---------------------------------------------------------
    def attribute_rules(self):
        """The simple-type assignment rules (``@name = {type ...}``)."""
        return [rule for rule in self.rules if rule.is_attribute_rule]

    def element_names(self):
        """Every element name mentioned anywhere in the schema."""
        names = set(self.global_names)
        for rule in self.rules:
            names |= rule.ancestor.element_names
            names |= rule.child.element_names(self.groups)
        for constraint in self.constraints:
            names |= constraint.selector.element_names
        return frozenset(names)

    def compile(self):
        """Lower to the formal core; see :func:`repro.bonxai.compile.compile_schema`."""
        from repro.bonxai.compile import compile_schema

        return compile_schema(self)

    def __repr__(self):
        return (
            f"<BonXaiSchema roots={self.global_names} "
            f"rules={len(self.rules)} groups={len(self.groups)}>"
        )
