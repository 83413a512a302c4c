"""Validation provenance: explain every verdict, account every rule.

BonXai's priority semantics (Definition 1: the *last* matching rule wins)
means a verdict hinges on exactly which rule index fired for each node,
and Definition 2's unique typing means each element's fate is decided by
one content-model DFA run.  This module describes both:

* :class:`ElementProvenance` — per element: the slash path, the assigned
  XSD type, the content-model DFA state path its children drove, the
  winning BXSD rule index (when a BonXai/DTD schema is in play), the
  verdict, and — for rejected nodes — a *first-divergence* explanation
  computed by :func:`first_divergence` (the earliest child at which the
  content DFA or bag entered a dead state, with the continuations that
  were expected instead).
* :class:`RuleCoverage` — how often each rule decided a node across a
  corpus, flagging rules that never fired (*dynamically dead*: present in
  the schema but never relevant for any sampled node — the runtime
  counterpart of the linter's static shadowing check).

The records come from the one per-element memo the engine keeps:
:meth:`~repro.engine.ValidatedDocument.provenance` reads each element's
type, state path and local violations off
:class:`~repro.engine.ValidatedDocument`, so validation loops record
nothing for explanations.
"""

from __future__ import annotations


class ElementProvenance:
    """Why one element validated the way it did.

    Attributes:
        path: slash path (``/document/template/section``).
        typed_path: ordinal-indexed path (``/document[1]/template[1]``),
            matching :class:`~repro.xsd.validator.XSDValidationReport`
            typing keys.
        name: the element name.
        type_name: the assigned XSD type (Definition 2's unique typing).
        dfa_states: tuple of content-DFA state ids (seen-masks for a
            bag type) the element's child sequence drove, starting at the
            initial state 0.
        rule_index: the winning BXSD rule index under priority semantics,
            or ``None`` (no rule matched / schema has no rules).
        verdict: ``"ok"`` or ``"invalid"``.
        reason: first recorded explanation for an invalid verdict.
    """

    __slots__ = ("path", "typed_path", "name", "type_name", "dfa_states",
                 "rule_index", "verdict", "reason")

    def __init__(self, path, typed_path, name, type_name):
        self.path = path
        self.typed_path = typed_path
        self.name = name
        self.type_name = type_name
        self.dfa_states = (0,)
        self.rule_index = None
        self.verdict = "ok"
        self.reason = None

    def mark_invalid(self, reason):
        """Flip the verdict; the *first* reason recorded is kept."""
        self.verdict = "invalid"
        if self.reason is None:
            self.reason = reason

    def to_dict(self):
        return {
            "path": self.path,
            "typed_path": self.typed_path,
            "name": self.name,
            "type": self.type_name,
            "dfa_states": list(self.dfa_states),
            "rule_index": self.rule_index,
            "verdict": self.verdict,
            "reason": self.reason,
        }

    def __repr__(self):
        return (
            f"<ElementProvenance {self.typed_path} type={self.type_name} "
            f"{self.verdict}>"
        )


class RuleCoverage:
    """Per-rule fire counts over a sample corpus (priority semantics).

    Attributes:
        rule_count: number of rules in the BXSD being covered.
        fired: list of per-rule decision counts (index = rule index).
        unmatched_nodes: nodes no rule was relevant for (unconstrained).
        documents: documents accumulated so far.
    """

    __slots__ = ("rule_count", "fired", "unmatched_nodes", "documents")

    def __init__(self, rule_count):
        if rule_count < 0:
            raise ValueError("rule_count must be non-negative")
        self.rule_count = rule_count
        self.fired = [0] * rule_count
        self.unmatched_nodes = 0
        self.documents = 0

    def record(self, rule_index):
        """Account one node's winning rule (``None`` = unconstrained)."""
        if rule_index is None:
            self.unmatched_nodes += 1
        else:
            self.fired[rule_index] += 1

    def add_report(self, report):
        """Fold one :class:`~repro.bonxai.bxsd.MatchReport` in."""
        self.documents += 1
        for rule_index in report.rule_of.values():
            self.record(rule_index)

    def nodes(self):
        """Total nodes accounted (matched + unconstrained)."""
        return sum(self.fired) + self.unmatched_nodes

    def never_fired(self):
        """Rule indices that decided no sampled node (dynamically dead)."""
        return [index for index, count in enumerate(self.fired)
                if count == 0]

    def to_dict(self):
        return {
            "documents": self.documents,
            "nodes": self.nodes(),
            "fired": list(self.fired),
            "unmatched_nodes": self.unmatched_nodes,
            "never_fired": self.never_fired(),
        }

    def __repr__(self):
        return (
            f"<RuleCoverage rules={self.rule_count} nodes={self.nodes()} "
            f"never_fired={self.never_fired()}>"
        )


def first_divergence(content, word):
    """Why a compiled content model rejects ``word``.

    ``content`` is a :class:`~repro.engine.compiler.ContentDFA` or a
    :class:`~repro.engine.compiler.ContentBag`; both step, test
    acceptance and test liveness on their own states (DFA states, or
    seen-masks for a bag, so a bag's explanation never builds a DFA).
    Replays the child-name word and reports the *first* position at which
    acceptance became impossible — either a child that leads to a dead
    state (no completion exists from there) or the end of the word in a
    non-accepting state — together with the continuations that were
    expected instead.  Returns ``None`` when the word is accepted.
    """
    state = 0
    ids = content.symbol_ids
    for position, name in enumerate(word):
        symbol = ids.get(name)
        successor = None if symbol is None else content.step(state, symbol)
        if successor is None or not content.is_live(successor):
            prefix = " ".join(word[:position]) or "(start)"
            return (
                f"child #{position + 1} <{name}> diverges after "
                f"[{prefix}]: expected {_expected(content, state)}, "
                f"got <{name}>"
            )
        state = successor
    if not content.is_accepting(state):
        shown = " ".join(word) or "(no children)"
        return (
            f"content ends too early after [{shown}]: expected "
            f"{_expected(content, state, at_end=True)}"
        )
    return None


def _expected(content, state, at_end=False):
    """The continuations from ``state`` that can still reach acceptance."""
    names = [
        f"<{name}>"
        for index, name in enumerate(content.symbols)
        if content.is_live(content.step(state, index))
    ]
    if content.is_accepting(state) and not at_end:
        names.append("end of content")
    return " or ".join(names) if names else "nothing (no continuation)"


class DocumentExplanation:
    """One document's full verdict provenance (the ``explain`` command).

    Attributes:
        report: the :class:`~repro.xsd.validator.XSDValidationReport` of
            :meth:`~repro.engine.ValidatedDocument.report` (violations in
            the tree validator's order).
        elements: list of :class:`ElementProvenance` in document order
            (with rule indices for BonXai/DTD schemas).
        coverage: :class:`RuleCoverage` over this document's nodes, or
            ``None`` when the schema has no rules (plain XSD).
        rules: per-rule display strings (index-aligned), or ``None``.
    """

    __slots__ = ("report", "elements", "coverage", "rules")

    def __init__(self, report, elements, coverage=None, rules=None):
        self.report = report
        self.elements = elements
        self.coverage = coverage
        self.rules = rules

    @property
    def valid(self):
        return self.report.valid

    @property
    def violations(self):
        return self.report.violations


def explain_document(kind, schema, document):
    """Explain one document's verdict against one schema.

    Args:
        kind: ``"bonxai"`` / ``"dtd"`` / ``"xsd"`` (the CLI's schema-kind
            detection).
        schema: the loaded schema object of that kind — a BonXai
            :class:`~repro.bonxai.compile.CompiledSchema`, a parsed DTD,
            or a formal :class:`~repro.xsd.model.XSD`.
        document: a parsed :class:`~repro.xmlmodel.tree.XMLDocument`.

    Returns:
        A :class:`DocumentExplanation`: the records of a
        :class:`~repro.engine.ValidatedDocument` built over ``document``.
        BonXai and DTD schemas ride the translation square to a formal
        XSD (as the streaming engine does), and additionally replay the
        BXSD priority semantics on the tree to attribute each element to
        its winning rule index.
    """
    from repro.engine.cache import compile_cached
    from repro.engine.incremental import ValidatedDocument
    from repro.regex.printer import to_string
    from repro.translation.pipeline import bxsd_core, formal_xsd

    compiled = compile_cached(formal_xsd(kind, schema))
    handle = ValidatedDocument(document, compiled)
    bxsd = bxsd_core(kind, schema)
    if bxsd is None:
        return DocumentExplanation(handle.report(), handle.provenance())
    match = bxsd.match(document)
    coverage = RuleCoverage(len(bxsd.rules))
    coverage.add_report(match)
    return DocumentExplanation(
        handle.report(),
        handle.provenance(match.rule_of),
        coverage=coverage,
        rules=[to_string(rule.pattern) for rule in bxsd.rules],
    )
