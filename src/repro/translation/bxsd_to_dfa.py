"""Algorithm 3: translating a BXSD into an equivalent DFA-based XSD.

Each rule's left-hand side is compiled into a minimal complete DFA; the
ancestor automaton is their synchronous product.  A product state whose
components include final states receives the content model of the
*largest-index* final rule (the priority semantics); a product state with
no final component is unconstrained and receives ``(EName)*``.

The textbook construction (the paper's Algorithm 3) materializes the full
product ``Q_1 x ... x Q_n``; as the paper notes, it is straightforward to
compute only reachable states, and reachability should follow only labels
that can actually occur below a state (i.e. labels occurring in its content
model).  Both optimizations are implemented here; ``full_product=True``
reproduces the textbook behaviour for the benchmarks.

Lemma 6: |A| is at most exponential in |B| — Theorem 9 shows the blow-up
is unavoidable in the worst case.
"""

from __future__ import annotations

from repro.automata.minimize import minimal_complete_dfa_for_regex
from repro.observability import current_budget, default_registry
from repro.observability.tracing import span
from repro.xsd.content import ContentModel
from repro.xsd.dfa_based import DFABasedXSD
from repro.regex.ast import universal

INITIAL_STATE = "__q0__"


def bxsd_to_dfa_based(schema, full_product=False):
    """Translate a :class:`~repro.bonxai.bxsd.BXSD` (Algorithm 3).

    Every interned product state is charged to the ambient
    :class:`~repro.observability.ResourceBudget`, so the Theorem-9
    ``B_n`` blow-up (``2^n`` product states) raises
    :class:`~repro.errors.BudgetExceeded` promptly instead of exhausting
    memory.

    Args:
        schema: the BXSD to translate.
        full_product: explore the entire product state space as in the
            textbook formulation (benchmark ablation); by default only
            usefully-reachable states are built.

    Returns:
        An equivalent :class:`~repro.xsd.dfa_based.DFABasedXSD`.
    """
    with span("translation.algorithm3") as trace:
        return _bxsd_to_dfa_based(schema, full_product, trace)


def _bxsd_to_dfa_based(schema, full_product, trace):
    budget = current_budget()
    alphabet = frozenset(schema.ename)
    # Line 2: A_i := minimal complete DFA for L(r_i).
    components = [
        minimal_complete_dfa_for_regex(rule.pattern, alphabet)
        for rule in schema.rules
    ]
    unconstrained = ContentModel(universal(alphabet))

    def assign_for(state_tuple):
        # Lines 4-9: the largest rule index whose component is final wins.
        chosen = None
        for index, (dfa, component_state) in enumerate(
            zip(components, state_tuple)
        ):
            if component_state in dfa.accepting:
                chosen = index
        if chosen is None:
            return unconstrained
        return schema.rules[chosen].content

    def step(state_tuple, name):
        return tuple(
            dfa.transitions[(component_state, name)]
            for dfa, component_state in zip(components, state_tuple)
        )

    start_tuple = tuple(dfa.initial for dfa in components)
    ids = {}
    order = []
    assign = {}
    transitions = {}

    def intern(state_tuple):
        identifier = ids.get(state_tuple)
        if identifier is None:
            if budget is not None:
                budget.charge_states(1, where="translation.algorithm3")
            identifier = f"P{len(order)}"
            ids[state_tuple] = identifier
            order.append(state_tuple)
        return identifier

    initial = INITIAL_STATE
    start = frozenset(schema.start)
    for name in sorted(start):
        target_tuple = step(start_tuple, name)
        target = intern(target_tuple)
        transitions[(initial, name)] = target

    index = 0
    while index < len(order):
        state_tuple = order[index]
        identifier = ids[state_tuple]
        index += 1
        model = assign_for(state_tuple)
        assign[identifier] = model
        if full_product:
            # The textbook product: the whole alphabet, so the search
            # covers the reachable part of Q_1 x ... x Q_n (Lemma 6).
            explore = alphabet
        else:
            explore = model.element_names()
        for name in sorted(explore):
            target_tuple = step(state_tuple, name)
            transitions[(identifier, name)] = intern(target_tuple)

    default_registry().counter("translation.algorithm3.states").inc(
        len(order) + 1
    )
    trace.set_attribute("states", len(order) + 1)
    return DFABasedXSD(
        states=frozenset(assign) | {initial},
        alphabet=alphabet,
        transitions=transitions,
        initial=initial,
        start=start,
        assign=assign,
    )
