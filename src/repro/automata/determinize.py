"""Subset construction: NFA -> DFA.

Only reachable subsets are materialized.  The resulting DFA is partial (the
empty subset is never created); call :meth:`DFA.completed` when a complete
automaton is required.
"""

from __future__ import annotations

from repro.automata.dfa import DFA
from repro.observability import current_budget, default_registry


def determinize(nfa):
    """Determinize ``nfa`` by the subset construction.

    Each materialized subset is charged to the ambient
    :class:`~repro.observability.ResourceBudget`, bounding the
    worst-case ``2^n`` explosion.

    Returns:
        A partial :class:`DFA` over frozenset-of-states subsets, renumbered
        to integers for compactness.
    """
    budget = current_budget()
    initial = nfa.initial
    subsets = {initial: 0}
    order = [initial]
    transitions = {}
    worklist = [initial]
    if budget is not None:
        budget.charge_states(1, where="automata.determinize")
    while worklist:
        subset = worklist.pop()
        source = subsets[subset]
        for symbol in nfa.alphabet:
            target_subset = nfa.step(subset, symbol)
            if not target_subset:
                continue
            target = subsets.get(target_subset)
            if target is None:
                target = len(order)
                subsets[target_subset] = target
                order.append(target_subset)
                worklist.append(target_subset)
                if budget is not None:
                    budget.charge_states(1, where="automata.determinize")
            transitions[(source, symbol)] = target
    default_registry().counter("automata.determinize.states").inc(len(order))
    accepting = frozenset(
        subsets[subset] for subset in order if subset & nfa.accepting
    )
    return DFA(
        states=frozenset(range(len(order))),
        alphabet=nfa.alphabet,
        transitions=transitions,
        initial=0,
        accepting=accepting,
    )
