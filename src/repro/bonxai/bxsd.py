"""BonXai Schema Definitions — the paper's formal core (Definition 1).

A BXSD is ``B = (EName, S, R)``: a finite alphabet of element names, a set
``S`` of allowed start (root) elements, and an *ordered* list ``R`` of
rules ``r_i -> s_i`` where the ``r_i`` are arbitrary regular expressions
over EName (ancestor languages) and the ``s_i`` are deterministic content
models.  The rule *relevant* for a node ``u`` is the one with the largest
index whose left-hand side matches ``anc-str(u)`` — BonXai's priority
semantics ("the last rule wins").  A document conforms iff its root label
is in ``S`` and every node with a relevant rule has children matching that
rule's content model; nodes without a relevant rule are unconstrained.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import SchemaError
from repro.regex.ast import Regex
from repro.regex.derivatives import DerivativeMatcher
from repro.regex.determinism import check_deterministic
from repro.xsd.content import ContentModel, as_content_model


class Rule:
    """One BXSD rule ``pattern -> content``.

    Attributes:
        pattern: :class:`~repro.regex.ast.Regex` over EName matched against
            ancestor-strings (anchored: the whole string must match).
        content: the :class:`~repro.xsd.content.ContentModel` imposed on
            the children of matched nodes.
    """

    __slots__ = ("pattern", "content")

    def __init__(self, pattern, content):
        if not isinstance(pattern, Regex):
            raise SchemaError(f"rule pattern must be a Regex, got {pattern!r}")
        self.pattern = pattern
        self.content = as_content_model(content)

    @property
    def size(self):
        """Symbol occurrences on both sides (the paper's size measure)."""
        return self.pattern.size + self.content.size

    def __eq__(self, other):
        return (
            isinstance(other, Rule)
            and self.pattern == other.pattern
            and self.content == other.content
        )

    def __hash__(self):
        return hash((self.pattern, self.content))

    def __repr__(self):
        return f"Rule({self.pattern} -> {self.content.regex})"


class BXSD:
    """A BonXai Schema Definition (Definition 1).

    Attributes:
        ename: frozenset of element names (the alphabet).
        start: frozenset ``S`` of allowed root element names.
        rules: list of :class:`Rule`, in priority order (later = stronger).
    """

    __slots__ = ("ename", "start", "rules")

    def __init__(self, ename, start, rules, check=True):
        self.ename = frozenset(ename)
        self.start = frozenset(start)
        self.rules = list(rules)
        if check:
            self.check_well_formed()

    def check_well_formed(self):
        """Enforce Definition 1: S ⊆ EName, symbols known, content DREs."""
        if not self.start <= self.ename:
            unknown = sorted(self.start - self.ename)
            raise SchemaError(f"start elements {unknown} are not in EName")
        for index, rule in enumerate(self.rules):
            for name in rule.pattern.symbols():
                if name not in self.ename:
                    raise SchemaError(
                        f"rule {index}: pattern uses unknown name {name!r}"
                    )
            for name in rule.content.element_names():
                if name not in self.ename:
                    raise SchemaError(
                        f"rule {index}: content model uses unknown name "
                        f"{name!r}"
                    )
            # Definition 1 requires deterministic content models (UPA).
            check_deterministic(rule.content.regex)

    # -- priority semantics -------------------------------------------------
    def relevant_rule(self, ancestor_string):
        """The index of the relevant rule for this ancestor string.

        Returns the *largest* index whose pattern matches (the paper's
        priority semantics), or ``None`` if no rule matches.
        """
        word = list(ancestor_string)
        for index in range(len(self.rules) - 1, -1, -1):
            if DerivativeMatcher(self.rules[index].pattern).matches(word):
                return index
        return None

    # -- validation ----------------------------------------------------------
    def validate(self, document):
        """Validate a document; returns a list of violations (empty = ok)."""
        report = self.match(document)
        return report.violations

    def is_valid(self, document):
        """True iff the document conforms to this BXSD."""
        return not self.validate(document)

    def match(self, document):
        """Validate and report the relevant rule of every node.

        This powers the implementation feature the paper describes for the
        tool [19]: validating XML "and highlighting matching rules".

        Returns:
            A :class:`MatchReport`.
        """
        report = MatchReport()
        root = document.root
        if root.name not in self.start:
            report.violations.append(
                f"root element <{root.name}> is not an allowed start "
                f"element {sorted(self.start)}"
            )
            return report
        report.paths = NodePaths(root)
        matchers = [DerivativeMatcher(rule.pattern) for rule in self.rules]
        initial = tuple(matcher.start() for matcher in matchers)
        # Pre-order from an explicit stack, children pushed in reverse,
        # so any depth is matched without recursion.
        stack = [(root, initial)]
        while stack:
            node, states = stack.pop()
            next_states = self._match_node(node, states, matchers, root,
                                           report)
            for child in reversed(node.children):
                stack.append((child, next_states))
        return report

    def _match_node(self, node, states, matchers, root, report):
        """Record and check one node; returns its matchers' states,
        which its children start from.  A node's path is worked out
        only for its violations."""
        # Advance every pattern matcher by this node's label (incremental:
        # each ancestor string extends its parent's by one symbol).
        next_states = tuple(
            matcher.step(state, node.name)
            for matcher, state in zip(matchers, states)
        )
        relevant = None
        for index in range(len(self.rules) - 1, -1, -1):
            if matchers[index].is_accepting(next_states[index]):
                relevant = index
                break
        report.rule_of[id(node)] = relevant
        if relevant is not None:
            problems = self.rules[relevant].content.problems(node)
            if problems:
                path = node.path_from(root)
                report.violations.extend(
                    f"{path}: {problem}" for problem in problems
                )
        return next_states

    # -- metadata ----------------------------------------------------------
    @property
    def size(self):
        """The paper's size measure: total symbol occurrences in all rules."""
        return sum(rule.size for rule in self.rules)

    def __repr__(self):
        return (
            f"<BXSD rules={len(self.rules)} elements={len(self.ename)} "
            f"size={self.size}>"
        )


class MatchReport:
    """Validation outcome plus the per-node relevant-rule assignment.

    Attributes:
        violations: list of violation strings (empty = document conforms).
        rule_of: dict ``id(node) -> rule index or None`` (the relevant rule
            under priority semantics; ``None`` = unconstrained node).
        paths: mapping ``id(node) -> slash path`` for display purposes
            (a :class:`NodePaths`, or empty when the root is not allowed).
    """

    __slots__ = ("violations", "rule_of", "paths")

    def __init__(self):
        self.violations = []
        self.rule_of = {}
        self.paths = {}

    @property
    def valid(self):
        return not self.violations


class NodePaths(Mapping):
    """``id(node) -> slash path`` for every element of the tree at
    ``root``, each path worked out from ``parent`` links when it is read.

    A match then keeps no path per element, whose total length grows
    with the square of the depth; the id index is built on the first
    read.
    """

    __slots__ = ("_root", "_nodes")

    def __init__(self, root):
        self._root = root
        self._nodes = None

    def _index(self):
        if self._nodes is None:
            self._nodes = {id(node): node for node in self._root.iter()}
        return self._nodes

    def __getitem__(self, key):
        return self._index()[key].path_from(self._root)

    def __iter__(self):
        return iter(self._index())

    def __len__(self):
        return len(self._index())
