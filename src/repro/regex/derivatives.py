"""Brzozowski derivatives for matching and DFA construction.

Derivatives [Brzozowski 1964] handle every operator of the practical
language natively — including interleaving and counters — so validation
never needs the (potentially exponential) unrolled automaton form:

* ``d_a(r & s) = (d_a r & s) + (r & d_a s)``
* ``d_a(r{n,m}) = d_a(r) r{max(n-1,0), m-1}``  (when r is not nullable; the
  nullable case folds into the union with the derivative of the remainder).

The construction helpers of :mod:`repro.regex.ast` act as the similarity
normalization that keeps the set of reachable derivatives finite.
"""

from __future__ import annotations

from repro.errors import RegexError
from repro.observability.budget import current_budget
from repro.regex.ast import (
    Concat,
    Counter,
    EMPTY,
    EPSILON,
    EmptySet,
    Epsilon,
    Interleave,
    Optional,
    Plus,
    Star,
    Symbol,
    UNBOUNDED,
    Union,
    concat,
    counter,
    interleave,
    nullable,
    star,
    union,
)


def derivative(node, symbol):
    """The Brzozowski derivative of ``node`` with respect to ``symbol``."""
    if isinstance(node, (EmptySet, Epsilon)):
        return EMPTY
    if isinstance(node, Symbol):
        return EPSILON if node.name == symbol else EMPTY
    if isinstance(node, Union):
        return union(*(derivative(child, symbol) for child in node.children))
    if isinstance(node, Concat):
        children = node.children
        head, tail = children[0], children[1:]
        rest = concat(*tail)
        first = concat(derivative(head, symbol), rest)
        if nullable(head):
            return union(first, derivative(rest, symbol))
        return first
    if isinstance(node, Interleave):
        alternatives = []
        for index, child in enumerate(node.children):
            derived = derivative(child, symbol)
            if isinstance(derived, EmptySet):
                continue
            others = list(node.children)
            others[index] = derived
            alternatives.append(interleave(*others))
        return union(*alternatives)
    if isinstance(node, Star):
        return concat(derivative(node.child, symbol), node)
    if isinstance(node, Plus):
        return concat(derivative(node.child, symbol), star(node.child))
    if isinstance(node, Optional):
        return derivative(node.child, symbol)
    if isinstance(node, Counter):
        if node.high is not UNBOUNDED and node.high == 0:
            return EMPTY
        low = max(node.low - 1, 0)
        high = UNBOUNDED if node.high is UNBOUNDED else node.high - 1
        remainder = counter(node.child, low, high)
        # Consuming the symbol always enters an iteration; if the child is
        # nullable the mandatory remaining iterations can be empty anyway,
        # so a single product term is correct in all cases.
        return concat(derivative(node.child, symbol), remainder)
    raise RegexError(f"unknown regex node {node!r}")


def matches(node, word):
    """Return True iff ``word`` (a sequence of symbols) is in ``L(node)``."""
    current = node
    for symbol in word:
        current = derivative(current, symbol)
        if isinstance(current, EmptySet):
            return False
    return nullable(current)


class DerivativeMatcher:
    """A reusable matcher that memoizes derivatives of one expression.

    The matcher exposes the interface of an implicitly-constructed DFA whose
    states are derivative expressions.  It is the workhorse of all
    validators.
    """

    def __init__(self, regex):
        self.regex = regex
        self._transitions = {}
        self._nullable_cache = {}

    def start(self):
        """The initial state (the expression itself)."""
        return self.regex

    def step(self, state, symbol):
        """Advance ``state`` by one symbol; ``EMPTY`` is the sink."""
        key = (state, symbol)
        result = self._transitions.get(key)
        if result is None:
            result = derivative(state, symbol)
            self._transitions[key] = result
        return result

    def is_accepting(self, state):
        """True iff the state's language contains the empty word."""
        cached = self._nullable_cache.get(state)
        if cached is None:
            cached = nullable(state)
            self._nullable_cache[state] = cached
        return cached

    def is_dead(self, state):
        """True iff no continuation can ever be accepted from ``state``."""
        return isinstance(state, EmptySet)

    def matches(self, word):
        """Return True iff ``word`` is in the expression's language."""
        state = self.start()
        for symbol in word:
            state = self.step(state, symbol)
            if self.is_dead(state):
                return False
        return self.is_accepting(state)

    def first_mismatch(self, word):
        """Return the index of the first position proving non-membership.

        Returns ``None`` if the word matches.  If the word is a proper
        prefix-violation (some prefix already has an empty residual
        language), the index of the offending symbol is returned; if all
        symbols can be consumed but the final state is not accepting,
        ``len(word)`` is returned.
        """
        state = self.start()
        for index, symbol in enumerate(word):
            state = self.step(state, symbol)
            if self.is_dead(state):
                return index
        if self.is_accepting(state):
            return None
        return len(word)


class LazyDFA:
    """The derivative automaton of a regex, its states built as reached.

    States are derivative expressions interned to integers in the order
    they are first reached (the initial state is 0); a state is accepting
    when its expression is nullable.  :func:`to_dfa` exhausts one, while a
    walk that needs only some states (an interleave of n members has
    2^n) calls :meth:`step` directly.  Every interned state is charged to
    the ambient :class:`~repro.observability.ResourceBudget`, if any.
    """

    initial = 0

    __slots__ = ("alphabet", "accepting", "_expressions", "_ids",
                 "_transitions", "_budget")

    def __init__(self, regex, alphabet):
        self.alphabet = frozenset(alphabet)
        self.accepting = set()
        self._expressions = []
        self._ids = {}
        self._transitions = {}
        self._budget = current_budget()
        self._intern(regex)

    def __len__(self):
        """The number of states built so far."""
        return len(self._expressions)

    def _intern(self, expression):
        state = self._ids.get(expression)
        if state is None:
            if self._budget is not None:
                self._budget.charge_states(1, where="regex.to_dfa")
            state = self._ids[expression] = len(self._expressions)
            self._expressions.append(expression)
            if nullable(expression):
                self.accepting.add(state)
        return state

    def step(self, state, symbol):
        """The state ``symbol`` leads to from ``state`` (``None`` when
        ``symbol`` is off the alphabet)."""
        key = (state, symbol)
        target = self._transitions.get(key)
        if target is None and symbol in self.alphabet:
            target = self._transitions[key] = self._intern(
                derivative(self._expressions[state], symbol)
            )
        return target


def to_dfa(regex, alphabet=None):
    """Build an explicit DFA from a regex via the derivative construction.

    Every derivative state is charged to the ambient
    :class:`~repro.observability.ResourceBudget` and its deadline checked
    once per expanded state, so an interleave's ``2^n`` states raise
    :class:`~repro.errors.BudgetExceeded` instead of running on.

    Args:
        regex: the expression to compile.
        alphabet: iterable of symbols; defaults to the symbols occurring in
            the expression.

    Returns:
        A :class:`repro.automata.dfa.DFA` accepting ``L(regex)``, complete
        over the given alphabet (a sink state is materialized if needed).
    """
    from repro.automata.dfa import DFA

    if alphabet is None:
        alphabet = regex.symbols()
    automaton = LazyDFA(regex, alphabet)
    # Every (state, symbol) is derived exactly once here, so the walk
    # interns directly instead of going through step()'s memo.
    expressions = automaton._expressions
    intern = automaton._intern
    budget = current_budget()
    transitions = {}
    worklist = [automaton.initial]
    while worklist:
        source = worklist.pop()
        if budget is not None:
            budget.check_time(where="regex.to_dfa")
        expression = expressions[source]
        for symbol in automaton.alphabet:
            discovered = len(expressions)
            target = intern(derivative(expression, symbol))
            if target == discovered:
                worklist.append(target)
            transitions[(source, symbol)] = target
    return DFA(
        states=frozenset(range(len(automaton))),
        alphabet=automaton.alphabet,
        transitions=transitions,
        initial=automaton.initial,
        accepting=frozenset(automaton.accepting),
    )
