"""State elimination: converting automata to regular expressions.

This is the expensive half of Algorithm 2 ("r_q := a regular expression for
(Q, EName, delta, q0, {q})"); the worst case is exponential (Ehrenfeucht &
Zeiger, reproduced as Theorem 8), but elimination order and algebraic
simplification make realistic inputs small.

The implementation works on a GNFA (generalized NFA whose edges are labeled
with regular expressions) and removes interior states one at a time, in
order of increasing ``in-degree * out-degree`` weight, resplicing paths as
``in . loop* . out``.
"""

from __future__ import annotations

from repro.observability import current_budget, default_registry
from repro.regex.ast import EMPTY, EPSILON, Regex, Symbol, concat, star, union
from repro.regex.simplify import simplify as simplify_regex


def dfa_to_regex(dfa, accepting=None, simplify=True):
    """A regular expression for the language of ``dfa``.

    Intermediate label sizes and the wall clock are checked against the
    ambient :class:`~repro.observability.ResourceBudget` each
    elimination round, so the Theorem-8 exponential blow-up is refused
    rather than endured.

    Args:
        dfa: the automaton (a partial or complete :class:`DFA`).
        accepting: optional override of the accepting-state set; Algorithm 2
            calls this once per state ``q`` with ``accepting={q}``.
        simplify: run the algebraic simplifier on intermediate labels.

    Returns:
        A :class:`~repro.regex.ast.Regex`; ``EMPTY`` for the empty language.
    """
    if accepting is None:
        accepting = dfa.accepting
    return nfa_to_regex(dfa.to_nfa(), accepting=accepting, simplify=simplify)


def nfa_to_regex(nfa, accepting=None, simplify=True):
    """A regular expression for the language of ``nfa`` (state elimination)."""
    budget = current_budget()
    if accepting is None:
        accepting = nfa.accepting
    accepting = frozenset(accepting)

    reducer = simplify_regex if simplify else (lambda regex: regex)

    # Build the GNFA edge map with fresh source/sink endpoints.
    source = ("__gnfa__", "source")
    sink = ("__gnfa__", "sink")
    edges = {}

    def add_edge(origin, target, label):
        key = (origin, target)
        existing = edges.get(key)
        edges[key] = label if existing is None else union(existing, label)

    for (state, symbol), targets in nfa.transitions.items():
        for target in targets:
            add_edge(state, target, Symbol(symbol))
    for state in nfa.initial:
        add_edge(source, state, EPSILON)
    for state in accepting:
        add_edge(state, sink, EPSILON)

    interior = [state for state in nfa.states]

    def weight(state):
        incoming = sum(1 for (origin, target) in edges if target == state)
        outgoing = sum(1 for (origin, target) in edges if origin == state)
        return incoming * outgoing

    eliminated = 0
    while interior:
        if budget is not None:
            budget.check_time(where="automata.state_elimination")
        interior.sort(key=lambda state: (weight(state), repr(state)))
        victim = interior.pop(0)
        eliminated += 1
        loop = edges.pop((victim, victim), None)
        loop_star = EPSILON if loop is None else star(loop)
        incoming = [
            (origin, label)
            for (origin, target), label in edges.items()
            if target == victim and origin != victim
        ]
        outgoing = [
            (target, label)
            for (origin, target), label in edges.items()
            if origin == victim and target != victim
        ]
        for origin, __ in incoming:
            edges.pop((origin, victim), None)
        for target, __ in outgoing:
            edges.pop((victim, target), None)
        for origin, in_label in incoming:
            for target, out_label in outgoing:
                label = reducer(concat(in_label, loop_star, out_label))
                if budget is not None:
                    budget.charge_regex(
                        label.size, where="automata.state_elimination"
                    )
                add_edge(origin, target, label)

    result = reducer(edges.get((source, sink), EMPTY))
    registry = default_registry()
    registry.counter("automata.state_elimination.eliminated").inc(eliminated)
    registry.histogram("automata.state_elimination.regex_size").observe(
        result.size
    )
    return result
