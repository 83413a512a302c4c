"""Schema-driven random document generation.

Given a DFA-based XSD, :func:`generate_document` samples a random valid
document: child-words are sampled by random walks over the content-model
DFAs (restricted to productive letters; built lazily, so an ``xs:all``
of n members never materializes its 2^n states), and a per-state
*cheap word* —
computed during the productivity fixpoint — guarantees termination once the
depth budget is spent, because cheap words only use letters whose states
became productive in strictly earlier rounds.

Used by the round-trip property tests ("every document sampled from the
source schema validates against the translated schema") and by the
validation benchmarks.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SchemaError
from repro.regex.derivatives import LazyDFA
from repro.xmlmodel.tree import XMLDocument, XMLElement


class _GeneratorTables:
    """Precomputed per-state tables: ranks, content DFAs, cheap words."""

    def __init__(self, schema):
        self.schema = schema
        self.content_dfas = {}
        for state in schema.states:
            if state == schema.initial:
                continue
            model = schema.assign[state]
            self.content_dfas[state] = LazyDFA(
                model.regex, model.element_names()
            )
        self.ranks = {}
        self.cheap_words = {}
        self._fixpoint()

    def _fixpoint(self):
        round_number = 0
        changed = True
        while changed:
            changed = False
            round_number += 1
            for state, content in self.content_dfas.items():
                if state in self.ranks:
                    continue
                allowed = {
                    name
                    for name in content.alphabet
                    if self.schema.transitions.get((state, name)) in self.ranks
                }
                word = _shortest_completion(content, content.initial, allowed)
                if word is not None:
                    self.ranks[state] = round_number
                    self.cheap_words[state] = word
                    changed = True

    def productive_letters(self, state):
        content = self.content_dfas[state]
        return {
            name
            for name in content.alphabet
            if self.schema.transitions.get((state, name)) in self.ranks
        }


class DocumentGenerator:
    """Reusable sampler of valid documents for one DFA-based XSD."""

    def __init__(self, schema):
        self.schema = schema
        self.tables = _GeneratorTables(schema)
        self.roots = sorted(
            name
            for name in schema.start
            if schema.transitions.get((schema.initial, name))
            in self.tables.ranks
        )
        if not self.roots:
            raise SchemaError(
                "the schema accepts no documents (no productive root)"
            )

    def generate(self, rng, max_depth=5, max_children=6):
        """Sample one valid :class:`XMLDocument`.

        Args:
            rng: a ``random.Random``-like source.
            max_depth: depth budget; below it, cheap words force
                termination.
            max_children: soft cap on sampled child-word length.
        """
        root_name = self.roots[rng.randrange(len(self.roots))]
        state = self.schema.transitions[(self.schema.initial, root_name)]
        root = self._build(root_name, state, rng, max_depth, max_children)
        return XMLDocument(root)

    def _build(self, name, state, rng, budget, max_children):
        node = XMLElement(name)
        model = self.schema.assign[state]
        for use in model.attributes:
            if use.required or rng.random() < 0.5:
                node.attributes[use.name] = f"v{rng.randrange(100)}"
        if budget <= 0:
            word = self.tables.cheap_words[state]
        else:
            word = self._sample_word(state, rng, max_children)
        for child_name in word:
            child_state = self.schema.transitions[(state, child_name)]
            node.append(
                self._build(
                    child_name, child_state, rng, budget - 1, max_children
                )
            )
        if model.mixed and rng.random() < 0.5:
            node.append_text(f"text{rng.randrange(100)}")
        return node

    def _sample_word(self, state, rng, max_children):
        """Random walk over the content DFA, biased to stop when allowed."""
        content = self.tables.content_dfas[state]
        allowed = self.tables.productive_letters(state)
        current = content.initial
        word = []
        while True:
            moves = [
                name
                for name in sorted(allowed)
                if content.step(current, name) is not None
            ]
            can_stop = current in content.accepting
            if can_stop and (not moves or len(word) >= max_children
                             or rng.random() < 0.4):
                return word
            if not moves:
                # Dead end that is not accepting cannot happen on the
                # restricted DFA of a productive state unless we walked
                # into a non-co-reachable region; restart conservatively.
                return self.tables.cheap_words[state]
            name = moves[rng.randrange(len(moves))]
            current = content.step(current, name)
            word.append(name)
            if len(word) > max_children * 4:
                # Escape very long loops: finish with a shortest completion.
                completion = _shortest_completion(
                    content, current, allowed
                )
                if completion is None:
                    return self.tables.cheap_words[state]
                return word + completion


def _shortest_completion(content_dfa, from_state, allowed):
    """Shortest word over ``allowed`` letters leading from ``from_state``
    to acceptance, or ``None``."""
    parents = {from_state: None}
    queue = deque([from_state])
    while queue:
        state = queue.popleft()
        if state in content_dfa.accepting:
            word = []
            current = state
            while parents[current] is not None:
                previous, name = parents[current]
                word.append(name)
                current = previous
            word.reverse()
            return word
        for name in sorted(allowed):
            target = content_dfa.step(state, name)
            if target is not None and target not in parents:
                parents[target] = (state, name)
                queue.append(target)
    return None


def generate_document(schema, rng, max_depth=5, max_children=6):
    """One-shot convenience wrapper around :class:`DocumentGenerator`."""
    return DocumentGenerator(schema).generate(
        rng, max_depth=max_depth, max_children=max_children
    )
