"""DFA minimization (Hopcroft's partition-refinement algorithm).

:func:`minimize` returns the canonical minimal *complete* DFA; the minimal
DFA of a regular language is unique up to isomorphism, which the property
tests exploit (two equivalent regexes minimize to isomorphic DFAs).

:func:`minimal_complete_dfa_for_regex` is the exact building block that
Algorithm 3 (line 2) asks for: "minimal complete DFA for L(r_i)".
"""

from __future__ import annotations

from repro.automata.dfa import DFA
from repro.observability.budget import current_budget


def minimize(dfa):
    """Return the minimal complete DFA equivalent to ``dfa``.

    The input is first restricted to reachable states and completed; then
    Hopcroft refinement merges equivalent states.  The ambient
    :class:`~repro.observability.ResourceBudget`'s deadline is checked
    once per splitter; no states are charged, because the quotient is
    never larger than its input, whose construction charged them.
    """
    budget = current_budget()
    dfa = dfa.trimmed().completed()
    states = sorted(dfa.states, key=repr)
    alphabet = sorted(dfa.alphabet)

    accepting = dfa.accepting & dfa.states
    non_accepting = dfa.states - accepting

    # Hopcroft's algorithm over blocks represented as frozensets.
    partition = set()
    if accepting:
        partition.add(frozenset(accepting))
    if non_accepting:
        partition.add(frozenset(non_accepting))
    worklist = set(partition)

    # Precompute inverse transitions: symbol -> target -> {sources}.
    inverse = {symbol: {} for symbol in alphabet}
    for (source, symbol), target in dfa.transitions.items():
        inverse[symbol].setdefault(target, set()).add(source)

    while worklist:
        splitter = worklist.pop()
        if budget is not None:
            budget.check_time(where="automata.minimize")
        for symbol in alphabet:
            # X = states with a transition on `symbol` into the splitter.
            into = set()
            table = inverse[symbol]
            for target in splitter:
                into |= table.get(target, set())
            if not into:
                continue
            for block in list(partition):
                intersection = block & into
                difference = block - into
                if not intersection or not difference:
                    continue
                partition.remove(block)
                part_a = frozenset(intersection)
                part_b = frozenset(difference)
                partition.add(part_a)
                partition.add(part_b)
                if block in worklist:
                    worklist.remove(block)
                    worklist.add(part_a)
                    worklist.add(part_b)
                else:
                    worklist.add(min(part_a, part_b, key=len))
    del states

    block_of = {}
    for block in partition:
        for state in block:
            block_of[state] = block

    # Build the quotient automaton with stable integer names.
    block_ids = {}
    order = []

    def block_id(block):
        identifier = block_ids.get(block)
        if identifier is None:
            identifier = len(order)
            block_ids[block] = identifier
            order.append(block)
        return identifier

    initial = block_id(block_of[dfa.initial])
    transitions = {}
    index = 0
    while index < len(order):
        block = order[index]
        index += 1
        representative = next(iter(block))
        for symbol in alphabet:
            target = dfa.transitions.get((representative, symbol))
            if target is None:
                continue
            transitions[(block_ids[block], symbol)] = block_id(block_of[target])
    accepting_ids = frozenset(
        block_ids[block] for block in order if block & dfa.accepting
    )
    return DFA(
        states=frozenset(range(len(order))),
        alphabet=dfa.alphabet,
        transitions=transitions,
        initial=initial,
        accepting=accepting_ids,
    ).renumbered()


def minimal_complete_dfa_for_regex(regex, alphabet):
    """The minimal complete DFA for ``L(regex)`` over ``alphabet``.

    This is the exact primitive of Algorithm 3, line 2.  The regex is
    compiled by the derivative construction (already deterministic and
    complete over the alphabet) and then minimized.
    """
    from repro.regex.derivatives import to_dfa

    return minimize(to_dfa(regex, alphabet))
