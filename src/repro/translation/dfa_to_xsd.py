"""Algorithm 4: translating a DFA-based XSD into an equivalent XSD.

Linear time (Lemma 7).  The non-initial states become the types;
``T0 := {a[delta(q0, a)] | a in S}``; the content model of type ``q`` is
``lambda(q)`` with each symbol ``a`` replaced by ``a[delta(q, a)]``.  The
expressions are never rebuilt, so UPA is preserved; EDC holds because
``delta`` is a function.
"""

from __future__ import annotations

from repro.observability import current_budget, default_registry
from repro.observability.tracing import span
from repro.xsd.model import XSD
from repro.xsd.typednames import TypedName


def dfa_based_to_xsd(schema):
    """Translate a :class:`~repro.xsd.dfa_based.DFABasedXSD` (Algorithm 4).

    The usefully-reachable non-initial states become the types ``T0, T1,
    ...``, numbered in a stable order.  A linear arrow, so the ambient
    :class:`~repro.observability.ResourceBudget` is charged once for the
    whole type set.

    Returns:
        An equivalent formal :class:`~repro.xsd.model.XSD`.
    """
    with span("translation.algorithm4") as trace:
        budget = current_budget()
        schema = schema.trimmed()
        states = sorted(
            (state for state in schema.states if state != schema.initial),
            key=repr,
        )
        if budget is not None and states:
            budget.charge_states(len(states), where="translation.algorithm4")
        default_registry().counter("translation.algorithm4.types").inc(
            len(states)
        )
        trace.set_attribute("types", len(states))
        type_of = {state: f"T{index}" for index, state in enumerate(states)}

        # Line 2: T0 := {a[delta(q0, a)] | a in S, delta(q0, a) defined}.
        start = set()
        for name in schema.start:
            target = schema.transitions.get((schema.initial, name))
            if target is not None:
                start.add(TypedName(name, type_of[target]))

        # Lines 3-5: rho(q) is lambda(q) with a replaced by a[delta(q, a)].
        rho = {}
        for state in states:
            model = schema.assign[state]

            def attach(symbol, state=state):
                return TypedName(
                    symbol, type_of[schema.transitions[(state, symbol)]]
                )

            rho[type_of[state]] = model.map_symbols(attach)

        return XSD(
            ename=schema.alphabet,
            types=set(type_of.values()),
            rho=rho,
            start=start,
        )
