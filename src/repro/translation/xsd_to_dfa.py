"""Algorithm 1: translating an XSD into an equivalent DFA-based XSD.

Linear time (Lemma 4).  The types become the states; the initial state is
fresh; a transition ``delta(t1, a) = t2`` is added for every typed element
``a[t2]`` occurring in ``rho(t1)``; the content model of a state is the
type-erased (µ) content model of the type.  Content-model expressions are
carried over verbatim modulo erasure, so determinism (UPA) is preserved.
"""

from __future__ import annotations

from repro.observability import current_budget, default_registry
from repro.observability.tracing import span
from repro.xsd.dfa_based import DFABasedXSD
from repro.xsd.typednames import split_typed_name

INITIAL_STATE = "__q0__"


def xsd_to_dfa_based(xsd):
    """Translate a formal :class:`~repro.xsd.model.XSD` (Algorithm 1).

    Linear, so the ambient budget is charged once for the whole state
    set — the check exists so a deadline set for the full translation
    square also covers this arrow.

    Returns:
        An equivalent :class:`~repro.xsd.dfa_based.DFABasedXSD` whose
        states are the XSD's type names plus a fresh initial state.
    """
    with span("translation.algorithm1") as trace:
        budget = current_budget()
        if budget is not None:
            budget.charge_states(len(xsd.types) + 1,
                                 where="translation.algorithm1")
        default_registry().counter("translation.algorithm1.states").inc(
            len(xsd.types) + 1
        )
        trace.set_attribute("states", len(xsd.types) + 1)
        initial = INITIAL_STATE
        while initial in xsd.types:
            initial = initial + "_"

        # Line 1: S := {a | exists t with a[t] in T0}.
        start = set()
        transitions = {}
        for typed in xsd.start:
            element_name, type_name = split_typed_name(typed)
            start.add(element_name)
            # Line 3: delta(q0, a) := t.  (EDC on T0 makes this
            # unambiguous.)
            transitions[(initial, element_name)] = type_name

        # Line 4: delta(t1, a) := t2 for each a[t2] occurring in rho(t1).
        # Line 5: lambda(t) := mu(rho(t)) (type erasure).
        assign = {}
        for type_name, model in xsd.rho.items():
            for symbol in model.element_names():
                element_name, target_type = split_typed_name(symbol)
                transitions[(type_name, element_name)] = target_type
            assign[type_name] = model.map_symbols(
                lambda s: split_typed_name(s)[0]
            )

        return DFABasedXSD(
            states=frozenset(xsd.types) | {initial},
            alphabet=frozenset(xsd.ename),
            transitions=transitions,
            initial=initial,
            start=frozenset(start),
            assign=assign,
        )
