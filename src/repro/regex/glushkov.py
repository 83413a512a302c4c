"""Glushkov (position) automaton construction.

The Glushkov automaton of an expression has one state per *position*
(occurrence of an alphabet symbol) plus a fresh initial state.  Its
transition structure is given by the classical ``first``/``last``/``follow``
sets.  The construction is the basis of the one-unambiguity (UPA) test: an
expression is deterministic iff its Glushkov automaton is a DFA
[Brüggemann-Klein & Wood 1998].

Counters are unrolled before position computation (they change the set of
positions); interleaving is supported directly — ``first``/``last``/
``follow`` of a shuffle are the natural componentwise combinations, and the
resulting automaton over-approximates determinism exactly the way the XSD
``xs:all`` restrictions require.
"""

from __future__ import annotations

from repro.errors import RegexError
from repro.regex.ast import (
    Concat,
    Counter,
    EmptySet,
    Epsilon,
    Interleave,
    Optional,
    Plus,
    Star,
    Symbol,
    Union,
    expand_counters,
    nullable,
)


class Positions:
    """The classical position sets of an expression.

    Attributes:
        labels: mapping position -> symbol name.
        first: positions that can start a word.
        last: positions that can end a word.
        follow: mapping position -> set of positions that may follow it.
        accepts_empty: whether the expression is nullable.
    """

    __slots__ = ("labels", "first", "last", "follow", "accepts_empty")

    def __init__(self, labels, first, last, follow, accepts_empty):
        self.labels = labels
        self.first = first
        self.last = last
        self.follow = follow
        self.accepts_empty = accepts_empty


def positions(regex, unroll_counters=True):
    """Compute the position sets of ``regex``.

    Args:
        regex: the expression to analyze.
        unroll_counters: expand ``{n,m}`` counters first (required, since
            positions of a counter body repeat).

    Returns:
        A :class:`Positions` record.
    """
    if unroll_counters:
        regex = expand_counters(regex)
    labels = {}
    counterpart = _number(regex, labels, counter=[0])
    first, last, follow, accepts_empty = _analyze(counterpart, labels)
    return Positions(labels, first, last, follow, accepts_empty)


# Internal marked representation: every Symbol is replaced by its position
# (an int); other nodes are (tag, children...) tuples so the analysis is a
# plain recursion with no AST mutation.

def _number(node, labels, counter):
    if isinstance(node, EmptySet):
        return ("empty",)
    if isinstance(node, Epsilon):
        return ("eps",)
    if isinstance(node, Symbol):
        position = counter[0]
        counter[0] += 1
        labels[position] = node.name
        return ("sym", position)
    if isinstance(node, Concat):
        return ("cat", [_number(c, labels, counter) for c in node.children])
    if isinstance(node, Union):
        return ("alt", [_number(c, labels, counter) for c in node.children])
    if isinstance(node, Interleave):
        raise RegexError(
            "interleaving has no position automaton; lower '&' first "
            "(repro.bonxai.compile) or use the derivative engine"
        )
    if isinstance(node, Star):
        return ("star", _number(node.child, labels, counter))
    if isinstance(node, Plus):
        return ("plus", _number(node.child, labels, counter))
    if isinstance(node, Optional):
        return ("opt", _number(node.child, labels, counter))
    if isinstance(node, Counter):
        raise RegexError("counters must be unrolled before position analysis")
    raise RegexError(f"unknown regex node {node!r}")


def _analyze(marked, labels):
    follow = {position: set() for position in labels}

    def recurse(node):
        """Return (first, last, nullable) and populate ``follow``."""
        tag = node[0]
        if tag == "empty":
            return frozenset(), frozenset(), False
        if tag == "eps":
            return frozenset(), frozenset(), True
        if tag == "sym":
            singleton = frozenset((node[1],))
            return singleton, singleton, False
        if tag == "cat":
            parts = [recurse(child) for child in node[1]]
            first = set()
            for part_first, __, part_nullable in parts:
                first |= part_first
                if not part_nullable:
                    break
            last = set()
            for part_first, part_last, part_nullable in reversed(parts):
                last |= part_last
                if not part_nullable:
                    break
            for index in range(len(parts) - 1):
                # follow(last of part i) includes first of the next
                # non-empty stretch (skipping nullable parts).
                __, left_last, __nullable = parts[index]
                for jump in range(index + 1, len(parts)):
                    right_first, __, right_nullable = parts[jump]
                    for position in left_last:
                        follow[position] |= right_first
                    if not right_nullable:
                        break
            is_nullable = all(part[2] for part in parts)
            return frozenset(first), frozenset(last), is_nullable
        if tag == "alt":
            parts = [recurse(child) for child in node[1]]
            first = frozenset().union(*(p[0] for p in parts))
            last = frozenset().union(*(p[1] for p in parts))
            return first, last, any(p[2] for p in parts)
        if tag == "star":
            first, last, __ = recurse(node[1])
            for position in last:
                follow[position] |= first
            return first, last, True
        if tag == "plus":
            first, last, is_nullable = recurse(node[1])
            for position in last:
                follow[position] |= first
            return first, last, is_nullable
        if tag == "opt":
            first, last, __ = recurse(node[1])
            return first, last, True
        raise RegexError(f"unknown marked node {tag!r}")

    first, last, accepts_empty = recurse(marked)
    return first, last, follow, accepts_empty


def glushkov_nfa(regex, alphabet=None):
    """Build the Glushkov NFA of ``regex``.

    States are ``-1`` (initial) and the positions ``0..k-1``.

    Returns:
        A :class:`repro.automata.nfa.NFA` accepting ``L(regex)``.
    """
    from repro.automata.nfa import NFA

    info = positions(regex)
    if alphabet is None:
        alphabet = frozenset(info.labels.values()) | regex.symbols()

    transitions = {}

    def add(source, target):
        symbol = info.labels[target]
        transitions.setdefault((source, symbol), set()).add(target)

    for target in info.first:
        add(-1, target)
    for source, followers in info.follow.items():
        for target in followers:
            add(source, target)

    accepting = set(info.last)
    if info.accepts_empty:
        accepting.add(-1)

    states = frozenset(info.labels) | {-1}
    return NFA(
        states=states,
        alphabet=frozenset(alphabet),
        transitions={key: frozenset(value) for key, value in transitions.items()},
        initial=frozenset((-1,)),
        accepting=frozenset(accepting),
    )
