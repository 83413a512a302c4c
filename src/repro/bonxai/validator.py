"""Validation of XML documents against concrete BonXai schemas.

Combines the core priority-semantics validation (via the compiled BXSD)
with the practical-language extras: simple-type checks on attribute values
(from ``@name = {type ...}`` rules) and the integrity constraints of the
constraints block (unique / key / keyref).

The returned :class:`BonXaiReport` also carries the per-node matched rule —
the "highlight matching rules" feature of the paper's tool [19].
"""

from __future__ import annotations

from repro.bonxai.usertypes import check_typed_value
from repro.regex.derivatives import DerivativeMatcher


class BonXaiReport:
    """Validation outcome for a concrete BonXai schema.

    Attributes:
        violations: list of violation strings (empty = document conforms).
        rule_of: dict ``id(node) -> grammar-rule index or None`` (indices
            refer to ``schema.rules`` of the *concrete* schema).
        paths: mapping ``id(node) -> slash path``, each worked out when
            read (the core match's :class:`~repro.bonxai.bxsd.NodePaths`).
    """

    __slots__ = ("violations", "rule_of", "paths")

    def __init__(self):
        self.violations = []
        self.rule_of = {}
        self.paths = {}

    @property
    def valid(self):
        return not self.violations

    def highlighted(self, document, schema):
        """Human-readable per-node rule assignment (tool feature).

        Returns a list of ``path -> rule-text`` lines in document order.
        """
        lines = []
        for node in document.iter():
            index = self.rule_of.get(id(node))
            path = self.paths.get(id(node), "?")
            if index is None:
                lines.append(f"{path}  ->  (no matching rule)")
            else:
                rule = schema.rules[index]
                lines.append(f"{path}  ->  {rule.ancestor.text} = ...")
        return lines


def validate_bonxai(compiled, document):
    """Validate ``document`` against a :class:`CompiledSchema`.

    Returns:
        A :class:`BonXaiReport`.
    """
    report = BonXaiReport()
    core = compiled.bxsd.match(document)
    report.violations.extend(core.violations)
    # Map core rule indices back to concrete grammar-rule indices.
    for key, value in core.rule_of.items():
        report.rule_of[key] = (
            None if value is None else compiled.rule_indices[value]
        )
    report.paths = core.paths

    _check_attribute_values(compiled, document, core, report)
    _check_constraints(compiled, document, report)
    return report


def _check_attribute_values(compiled, document, core, report):
    for node in document.iter():
        rule_index = core.rule_of.get(id(node))
        if rule_index is None:
            continue
        model = compiled.bxsd.rules[rule_index].content
        for use in model.attributes:
            if use.type_name is None:
                continue
            value = node.attributes.get(use.name)
            if value is None:
                continue
            if not check_typed_value(use.type_name, value,
                                     compiled.source.simple_types):
                path = core.paths.get(id(node), "?")
                report.violations.append(
                    f"{path}: attribute {use.name!r} value {value!r} is not "
                    f"a valid {use.type_name}"
                )


def _select(constraints, root):
    """The nodes each constraint's selector selects, in document order.

    A node is selected when its ancestor string (the names from the root
    down to it) is in the selector's language.  One pre-order walk, on
    an explicit stack (any depth, no recursion), steps each selector's
    matcher once per node from its parent's state; a dead state prunes
    that selector below the node, and a subtree no selector can reach is
    not entered.
    """
    matchers = [DerivativeMatcher(selector) for __, selector in constraints]
    selected = [[] for __ in constraints]
    stack = [(root, tuple(matcher.start() for matcher in matchers))]
    while stack:
        node, states = stack.pop()
        name = node.name
        after = []
        live = False
        for matcher, state, chosen in zip(matchers, states, selected):
            if state is not None:
                state = matcher.step(state, name)
                if matcher.is_dead(state):
                    state = None
                else:
                    live = True
                    if matcher.is_accepting(state):
                        chosen.append(node)
            after.append(state)
        if live:
            after = tuple(after)
            stack.extend((child, after) for child in reversed(node.children))
    return selected


def _check_constraints(compiled, document, report):
    constraints = compiled.constraints
    if not constraints:
        return
    key_tables = {}
    keyref_checks = []
    for (constraint, __), selected in zip(
        constraints, _select(constraints, document.root)
    ):
        tuples = []
        for node in selected:
            values = tuple(
                node.attributes.get(field) for field in constraint.fields
            )
            if constraint.kind in ("key", "keyref") and None in values:
                missing = [
                    field
                    for field, value in zip(constraint.fields, values)
                    if value is None
                ]
                report.violations.append(
                    f"{constraint.kind} {constraint.name!r}: node "
                    f"<{node.name}> is missing field(s) {missing}"
                )
                continue
            if None not in values:
                tuples.append(values)
        if constraint.kind in ("unique", "key"):
            seen = set()
            for values in tuples:
                if values in seen:
                    report.violations.append(
                        f"{constraint.kind} "
                        f"{constraint.name or constraint.selector.text!r}: "
                        f"duplicate value {values!r}"
                    )
                seen.add(values)
            if constraint.kind == "key":
                key_tables[constraint.name] = set(tuples)
        else:
            keyref_checks.append((constraint, tuples))

    for constraint, tuples in keyref_checks:
        table = key_tables.get(constraint.refers)
        if table is None:
            report.violations.append(
                f"keyref {constraint.name!r} refers to unknown key "
                f"{constraint.refers!r}"
            )
            continue
        for values in tuples:
            if values not in table:
                report.violations.append(
                    f"keyref {constraint.name!r}: value {values!r} has no "
                    f"matching key {constraint.refers!r}"
                )
