"""DFA-based XSDs (Definition 3) — the pivot representation.

A DFA-based XSD is ``(A, S, lambda)``: a DFA ``A`` over element names whose
initial state has no incoming transitions, a set ``S`` of allowed root
element names, and a map ``lambda`` assigning a content model to every
non-initial state.  A document satisfies it iff the root's label is in
``S`` and, for every node ``u``, the state ``A(anc-str(u))`` (when defined)
has a content model matching ``ch-str(u)``.

Both translation directions (Algorithms 1–4) pass through this class.
"""

from __future__ import annotations

from repro.errors import SchemaError
from repro.xsd.content import ContentModel, as_content_model


class DFABasedXSD:
    """A DFA-based XSD with deterministic content models (Definition 3).

    Attributes:
        states: frozenset of states (including ``initial``).
        alphabet: frozenset of element names (EName).
        transitions: dict ``(state, name) -> state``.
        initial: the initial state ``q0`` (no content model, no incoming
            transitions).
        start: frozenset ``S`` of allowed root element names.
        assign: dict state -> :class:`ContentModel` (the paper's lambda),
            defined for every state except ``initial``.
    """

    __slots__ = ("states", "alphabet", "transitions", "initial", "start",
                 "assign")

    def __init__(self, states, alphabet, transitions, initial, start, assign,
                 check=True):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.transitions = dict(transitions)
        self.initial = initial
        self.start = frozenset(start)
        self.assign = {
            state: as_content_model(model) for state, model in assign.items()
        }
        if check:
            self.check_well_formed()

    def check_well_formed(self):
        """Raise :class:`SchemaError` unless all Definition-3 conditions hold."""
        if self.initial not in self.states:
            raise SchemaError("initial state must be a state")
        for (source, symbol), target in self.transitions.items():
            if source not in self.states or target not in self.states:
                raise SchemaError("transition endpoints must be states")
            if symbol not in self.alphabet:
                raise SchemaError(f"transition on unknown name {symbol!r}")
            if target == self.initial:
                raise SchemaError(
                    "the initial state may not have incoming transitions"
                )
        for state in self.states:
            if state == self.initial:
                continue
            if state not in self.assign:
                raise SchemaError(f"state {state!r} has no content model")
        if self.initial in self.assign:
            raise SchemaError("the initial state takes no content model")
        if not self.start <= self.alphabet:
            raise SchemaError("start names must be element names")
        for state in self.states:
            if state == self.initial:
                continue
            for name in self.assign[state].element_names():
                if (state, name) not in self.transitions:
                    raise SchemaError(
                        f"state {state!r} allows child {name!r} but has no "
                        f"transition for it (Definition 3)"
                    )

    # -- runs ---------------------------------------------------------------
    def successor(self, state, name):
        """The unique successor state, or ``None`` when undefined."""
        return self.transitions.get((state, name))

    def state_of(self, ancestor_string):
        """``A(anc-str)``: the state after reading the ancestor string."""
        state = self.initial
        for name in ancestor_string:
            state = self.transitions.get((state, name))
            if state is None:
                return None
        return state

    # -- validation -----------------------------------------------------------
    def validate(self, document):
        """Validate ``document``; returns a list of violations (empty = ok)."""
        violations = []
        root = document.root
        if root.name not in self.start:
            violations.append(
                f"root element <{root.name}> is not an allowed start "
                f"element {sorted(self.start)}"
            )
            return violations
        state = self.transitions.get((self.initial, root.name))
        if state is None:
            violations.append(
                f"no state for root element <{root.name}>"
            )
            return violations
        # Pre-order from explicit stacks, children pushed in reverse, so
        # any depth is validated without recursion.  Three parallel stacks,
        # not one of tuples: a tuple per element would be a container the
        # cyclic collector tracks, and a large live tree makes its
        # collections costly.
        nodes, states, paths = [root], [state], ["/" + root.name]
        while nodes:
            node, state, path = nodes.pop(), states.pop(), paths.pop()
            violations.extend(self.assign[state].check_node(node, path=path))
            for child in reversed(node.children):
                child_state = self.transitions.get((state, child.name))
                if child_state is None:
                    # The content-model check above already flagged this
                    # child (Definition 3 guarantees transitions for
                    # allowed names).
                    continue
                nodes.append(child)
                states.append(child_state)
                paths.append(f"{path}/{child.name}")
        return violations

    def is_valid(self, document):
        """True iff the document satisfies this schema."""
        return not self.validate(document)

    # -- structure --------------------------------------------------------------
    @property
    def size(self):
        """The paper's |A| measure: the number of states."""
        return len(self.states)

    @property
    def total_size(self):
        """States plus content-model sizes (for blow-up measurements)."""
        return len(self.states) + sum(
            model.size for model in self.assign.values()
        )

    def reachable_states(self):
        """States reachable from ``initial`` through allowed children.

        A transition ``(q, a)`` is *useful* only when ``q`` is the initial
        state and ``a`` is in ``S``, or ``a`` occurs in the content model of
        ``q`` — the pruning the paper describes after Lemma 6.
        """
        seen = {self.initial}
        worklist = [self.initial]
        while worklist:
            state = worklist.pop()
            if state == self.initial:
                allowed = self.start
            else:
                allowed = self.assign[state].element_names()
            for name in allowed:
                target = self.transitions.get((state, name))
                if target is not None and target not in seen:
                    seen.add(target)
                    worklist.append(target)
        return frozenset(seen)

    def trimmed(self):
        """Restrict to usefully-reachable states."""
        keep = self.reachable_states()
        transitions = {
            (source, name): target
            for (source, name), target in self.transitions.items()
            if source in keep and target in keep
        }
        # Keep Definition 3 satisfied: drop transitions whose target was
        # pruned only if the name cannot occur; names occurring in content
        # models always have kept targets because reachability followed them.
        return DFABasedXSD(
            states=keep,
            alphabet=self.alphabet,
            transitions=transitions,
            initial=self.initial,
            start=self.start,
            assign={s: m for s, m in self.assign.items() if s in keep},
        )

    def pruned(self):
        """Drop useless transitions and restrict to reachable states.

        A transition ``(q, a)`` with ``a`` not occurring in ``lambda(q)``
        (or, from the initial state, ``a`` not in ``S``) can never be taken
        by a node of a conforming document: the parent's content-model
        check fails first.  Removing such transitions therefore preserves
        the document language while making the ancestor automaton as
        sparse as the content models — which keeps Algorithm 2's state
        elimination tractable and its output readable.
        """
        keep = self.reachable_states()
        transitions = {}
        for state in keep:
            if state == self.initial:
                allowed = self.start
            else:
                allowed = self.assign[state].element_names()
            for name in allowed:
                target = self.transitions.get((state, name))
                if target is not None and target in keep:
                    transitions[(state, name)] = target
        return DFABasedXSD(
            states=keep,
            alphabet=self.alphabet,
            transitions=transitions,
            initial=self.initial,
            start=self.start,
            assign={s: m for s, m in self.assign.items() if s in keep},
        )

    def ancestor_dfa(self, accepting=()):
        """The underlying automaton as a :class:`repro.automata.dfa.DFA`.

        Args:
            accepting: states to mark accepting (Algorithm 2 marks one
                state at a time).
        """
        from repro.automata.dfa import DFA

        return DFA(
            states=self.states,
            alphabet=self.alphabet,
            transitions=self.transitions,
            initial=self.initial,
            accepting=frozenset(accepting),
        )

    def __repr__(self):
        return (
            f"<DFABasedXSD states={len(self.states)} "
            f"alphabet={len(self.alphabet)} start={sorted(self.start)}>"
        )
