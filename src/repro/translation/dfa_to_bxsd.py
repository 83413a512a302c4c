"""Algorithm 2: translating a DFA-based XSD into an equivalent BXSD.

For every (usefully reachable, non-initial) state ``q``, one rule
``r_q -> s_q`` is produced, where ``r_q`` is a regular expression for the
words on which the DFA reaches ``q`` (state elimination) and ``s_q`` is the
state's content model, carried over *verbatim*.

Lemma 5: the number of rules is linear in |A|.  The expressions ``r_q``
can be exponential in |A| — Theorem 8 shows this is unavoidable — but for
k-suffix schemas (Section 4.4) they stay short.

Because the DFA reaches at most one state per word, the rules' left-hand
languages are pairwise disjoint and the rule order is irrelevant (the
priorities of Definition 1 never fire); we keep a stable order anyway.
"""

from __future__ import annotations

from repro.automata.state_elimination import dfa_to_regex
from repro.bonxai.bxsd import BXSD, Rule
from repro.observability import current_budget, default_registry
from repro.observability.tracing import span


def dfa_based_to_bxsd(schema, simplify=True):
    """Translate a :class:`~repro.xsd.dfa_based.DFABasedXSD` (Algorithm 2).

    Only usefully-reachable states get rules (rules for unreachable
    states would be dead weight).  The ambient
    :class:`~repro.observability.ResourceBudget` bounds the per-rule
    state eliminations, whose output is exponential on the Theorem-8
    families.

    Args:
        schema: the DFA-based XSD to translate.
        simplify: run the algebraic simplifier on generated expressions
            (ablation knob for the benchmarks).

    Returns:
        An equivalent :class:`~repro.bonxai.bxsd.BXSD`.
    """
    with span("translation.algorithm2") as trace:
        budget = current_budget()
        # Pruning also removes transitions that no conforming document
        # can take (names outside the source state's content model),
        # keeping the ancestor automaton -- and hence the generated
        # expressions -- as sparse as the schema itself.
        schema = schema.pruned()
        ancestor_dfa = schema.ancestor_dfa()
        rules = []
        for state in sorted(schema.states, key=repr):
            if state == schema.initial:
                continue
            if budget is not None:
                budget.check_time(where="translation.algorithm2")
            # Line 2: r_q := a regular expression for
            # (Q, EName, delta, q0, {q}).
            pattern = dfa_to_regex(
                ancestor_dfa, accepting={state}, simplify=simplify
            )
            # Line 3: s_q := lambda(q), untouched.
            rules.append(Rule(pattern, schema.assign[state]))
        default_registry().counter("translation.algorithm2.rules").inc(
            len(rules)
        )
        trace.set_attribute("rules", len(rules))
        trace.set_attribute(
            "regex_size", sum(rule.pattern.size for rule in rules)
        )
        return BXSD(
            ename=schema.alphabet,
            start=schema.start,
            rules=rules,
        )
