"""Hybrid Algorithm 2: priority-aware suffix rules + state elimination.

The generic Algorithm 2 computes, per state, an exact regular expression
for the ancestor language — exponential in the worst case (Theorem 8) and
unpleasant to read even in benign cases.  This variant exploits the two
assets the paper gives BonXai:

1. **Suffix determination.**  For many states there is a short word ``w``
   such that every (totalized) run on ``w`` lands in the state; then
   ``EName* w -> lambda(q)`` is exact.  Soundness: in a conforming
   document every node has a defined state (Definition 3 forbids allowed
   children without transitions); paths whose run dies are unconstrained
   in the source schema, but any document containing one is already
   invalid at an ancestor, so constraining them cannot change the
   document language.

2. **Priorities** ("general rules first, exceptions later", Section 3.2).
   A word ``w`` that reaches *several* states can still head a general
   rule for one of them, provided every other target's rules are emitted
   *later* (higher priority) and fully cover that target's ancestor
   language — then the general rule decides exactly the remaining paths.
   States are emitted ugliest-first (largest exact expression), so e.g.
   the running example's content-context ``style`` state gets the general
   rule ``//style`` while the two template/userstyles style states
   override it with their short exact patterns afterwards — reproducing
   the shape of the paper's Figure 5.

States not covered by suffix (plus short exact-word) rules keep their
state-elimination expressions.  Invariant making any emission order
correct: each state's emitted patterns cover its entire ancestor
language, and only match paths reaching that state, dead paths, or states
emitted later.
"""

from __future__ import annotations

import itertools

from repro.automata.operations import difference, is_empty, union_dfa
from repro.automata.state_elimination import dfa_to_regex
from repro.bonxai.bxsd import BXSD, Rule
from repro.observability.tracing import span
from repro.regex.ast import concat, sym, universal
from repro.regex.derivatives import to_dfa
from repro.translation.ksuffix import _totalized  # shared totalization

# The longest suffix words tried for (majority) determination.
_MAX_K = 3


def hybrid_dfa_based_to_bxsd(schema):
    """Translate a DFA-based XSD to a BXSD with short rules where possible.

    Suffix words of up to three names are tried, and the fallback
    state-elimination expressions are simplified.

    Args:
        schema: the :class:`~repro.xsd.dfa_based.DFABasedXSD` to translate.

    Returns:
        An equivalent :class:`~repro.bonxai.bxsd.BXSD` (rules ordered
        general-first, exceptions later).
    """
    with span("translation.algorithm2.hybrid") as trace:
        result = _hybrid_dfa_based_to_bxsd(schema)
        trace.set_attribute("rules", len(result.rules))
        trace.set_attribute(
            "regex_size", sum(rule.pattern.size for rule in result.rules)
        )
        return result


def _hybrid_dfa_based_to_bxsd(schema):
    schema = schema.pruned()
    states, step = _totalized(schema)
    alphabet = sorted(schema.alphabet)
    dead = ("__dead__",)
    sources = [state for state in states if state != dead]
    universe = universal(schema.alphabet)
    ancestor_dfa = schema.ancestor_dfa()

    real_states = sorted(
        (state for state in schema.states if state != schema.initial),
        key=repr,
    )

    # Exact ancestor expressions (the Algorithm 2 fallback) and their
    # compiled languages; also determines the emission order.
    exact_regex = {}
    reach_dfa = {}
    for state in real_states:
        exact_regex[state] = dfa_to_regex(ancestor_dfa, accepting={state})
        reach_dfa[state] = to_dfa(
            exact_regex[state], alphabet=schema.alphabet
        )

    # Ugliest-first: states with large exact expressions become general
    # rules (low priority); compact states become overrides (emitted
    # later, higher priority).
    emission_order = sorted(
        real_states, key=lambda state: (-exact_regex[state].size, repr(state))
    )
    position = {state: index for index, state in enumerate(emission_order)}

    # Word table: word -> set of non-dead target states (totalized runs
    # from every real state).
    word_targets = {}
    for k in range(1, _MAX_K + 1):
        for word in itertools.product(alphabet, repeat=k):
            targets = {_run(step, source, word) for source in sources}
            targets.discard(dead)
            targets.discard(schema.initial)
            if targets:
                word_targets[word] = frozenset(targets)

    # Short exact root words (length < _MAX_K) for shallow-path coverage.
    root_words = {}
    def probe(state, word):
        if len(word) >= _MAX_K:
            return
        for name in alphabet:
            target = schema.transitions.get((state, name))
            if target is None:
                continue
            extended = word + (name,)
            root_words.setdefault(target, []).append(extended)
            probe(target, extended)

    probe(schema.initial, ())

    rules = []
    for state in emission_order:
        rules.extend(
            _rules_for_state(
                state, schema, word_targets, root_words, position,
                reach_dfa[state], exact_regex[state], universe,
            )
        )

    return BXSD(
        ename=schema.alphabet,
        start=schema.start,
        rules=rules,
    )


def _rules_for_state(state, schema, word_targets, root_words, position,
                     reach, fallback_regex, universe):
    """The rule list for one state (suffix/exact rules, or the fallback)."""
    my_position = position[state]

    # Candidate suffix words: the state is a target, and every *other*
    # target is emitted later (so its rules override the general one).
    candidates = sorted(
        (
            word
            for word, targets in word_targets.items()
            if state in targets
            and all(
                position[other] > my_position
                for other in targets
                if other != state
            )
        ),
        key=len,
    )
    chosen = []
    for word in candidates:
        if any(
            len(word) > len(kept)
            and word[len(word) - len(kept):] == kept
            for kept in chosen
        ):
            continue  # an extension of a kept word is subsumed
        chosen.append(word)

    suffix_patterns = [
        concat(universe, *(sym(name) for name in word)) for word in chosen
    ]
    exact_patterns = [
        concat(*(sym(name) for name in word))
        for word in root_words.get(state, [])
        if not any(
            len(word) >= len(kept)
            and word[len(word) - len(kept):] == kept
            for kept in chosen
        )
    ]

    model = schema.assign[state]
    if _covers(reach, suffix_patterns, schema.alphabet):
        return [Rule(pattern, model) for pattern in suffix_patterns]
    if _covers(reach, suffix_patterns + exact_patterns, schema.alphabet):
        return [
            Rule(pattern, model)
            for pattern in exact_patterns + suffix_patterns
        ]
    return [Rule(fallback_regex, model)]


def _covers(reach_dfa, patterns, alphabet):
    if not patterns:
        return False
    combined = None
    for pattern in patterns:
        pattern_dfa = to_dfa(pattern, alphabet=alphabet)
        combined = (
            pattern_dfa if combined is None
            else union_dfa(combined, pattern_dfa)
        )
    return is_empty(difference(reach_dfa, combined))


def _run(step, state, word):
    for name in word:
        state = step(state, name)
    return state
