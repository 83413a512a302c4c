"""Product constructions on DFAs.

:func:`product_dfa` is the (reachable-only) synchronous product used by
Algorithm 3: given complete DFAs ``A_1 .. A_n``, the product runs them in
lockstep; each product state is the tuple of component states.

:func:`pair_product` implements binary products with an arbitrary acceptance
combiner (intersection, union, difference) for the language operations.
"""

from __future__ import annotations

from repro.automata.dfa import DFA
from repro.errors import SchemaError
from repro.observability import current_budget, default_registry


def product_dfa(components):
    """The reachable synchronous product of complete DFAs.

    Every product state created is charged to the ambient
    :class:`~repro.observability.ResourceBudget`, so the exponential
    blow-up of Lemma 6 trips :class:`~repro.errors.BudgetExceeded`
    instead of running away.

    Args:
        components: sequence of complete :class:`DFA` objects, each
            complete over the union of their alphabets.

    Returns:
        A pair ``(dfa, tuples)`` where ``dfa`` has integer states and
        ``tuples[state]`` is the component-state tuple it represents.  The
        product carries no accepting states of its own (callers derive what
        they need from the tuples, e.g. Algorithm 3's lambda assignment).
    """
    if not components:
        raise SchemaError("product of zero automata is undefined")
    alphabet = frozenset().union(*(dfa.alphabet for dfa in components))
    for index, dfa in enumerate(components):
        for state in dfa.states:
            for symbol in alphabet:
                if (state, symbol) not in dfa.transitions:
                    raise SchemaError(
                        f"component {index} is not complete over the "
                        f"product alphabet (missing {symbol!r})"
                    )

    budget = current_budget()
    initial = tuple(dfa.initial for dfa in components)
    ids = {initial: 0}
    tuples = [initial]
    transitions = {}
    worklist = [initial]
    if budget is not None:
        budget.charge_states(1, where="automata.product")
    while worklist:
        current = worklist.pop()
        source = ids[current]
        for symbol in alphabet:
            target_tuple = tuple(
                dfa.transitions[(state, symbol)]
                for dfa, state in zip(components, current)
            )
            target = ids.get(target_tuple)
            if target is None:
                target = len(tuples)
                ids[target_tuple] = target
                tuples.append(target_tuple)
                worklist.append(target_tuple)
                if budget is not None:
                    budget.charge_states(1, where="automata.product")
            transitions[(source, symbol)] = target
    default_registry().counter("automata.product.states").inc(len(tuples))
    dfa = DFA(
        states=frozenset(range(len(tuples))),
        alphabet=alphabet,
        transitions=transitions,
        initial=0,
        accepting=frozenset(),
    )
    return dfa, tuples


def pair_product(left, right, combine):
    """Binary product with acceptance decided by ``combine(in_l, in_r)``.

    Both inputs are completed over the union alphabet first, so set
    difference and symmetric difference work as expected.  State creation
    is charged to the ambient resource budget.
    """
    budget = current_budget()
    alphabet = left.alphabet | right.alphabet
    left = DFA(
        left.states, alphabet, left.transitions, left.initial, left.accepting
    ).completed()
    right = DFA(
        right.states, alphabet, right.transitions, right.initial, right.accepting
    ).completed()

    initial = (left.initial, right.initial)
    ids = {initial: 0}
    order = [initial]
    transitions = {}
    worklist = [initial]
    if budget is not None:
        budget.charge_states(1, where="automata.pair_product")
    while worklist:
        current = worklist.pop()
        source = ids[current]
        for symbol in alphabet:
            target_tuple = (
                left.transitions[(current[0], symbol)],
                right.transitions[(current[1], symbol)],
            )
            target = ids.get(target_tuple)
            if target is None:
                target = len(order)
                ids[target_tuple] = target
                order.append(target_tuple)
                worklist.append(target_tuple)
                if budget is not None:
                    budget.charge_states(1, where="automata.pair_product")
            transitions[(source, symbol)] = target
    default_registry().counter("automata.pair_product.states").inc(len(order))
    accepting = frozenset(
        ids[(l_state, r_state)]
        for (l_state, r_state) in order
        if combine(l_state in left.accepting, r_state in right.accepting)
    )
    return DFA(
        states=frozenset(range(len(order))),
        alphabet=alphabet,
        transitions=transitions,
        initial=0,
        accepting=accepting,
    )
