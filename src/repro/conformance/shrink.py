"""Delta-debugging minimizer for conformance failures.

Given a failing ``(schema, document)`` pair and a predicate ("the
disagreement persists"), the shrinker greedily applies the first
size-decreasing reduction that keeps the predicate true, restarting the
scan after every success, until no reduction applies — a local minimum,
and therefore a fixpoint: re-shrinking a shrunk case performs zero
steps.  Every candidate strictly decreases the case's size measure, so
termination is structural, not budget-dependent (the evaluation budget
only caps pathological predicates).

Schema reductions (on the DFA-based corner, the pivot all oracles start
from): drop a state (rules referencing it lose the corresponding
letters), drop a start element, replace a content regex by a one-step
smaller one (operator unwrapping, alternative/factor dropping, collapse
to epsilon), drop an attribute use, clear a mixed flag.  Candidates
that leave Definition 3 (or UPA) are discarded before the predicate
ever sees them, so a shrunk schema is always a legal schema.

Document reductions: delete a subtree, drop every child of a node,
drop an attribute, strip character data.
"""

from __future__ import annotations

from repro.errors import BudgetExceeded, ReproError
from repro.regex.ast import (
    EMPTY,
    EPSILON,
    Concat,
    Counter,
    EmptySet,
    Epsilon,
    Interleave,
    Optional,
    Plus,
    Star,
    Symbol,
    Union,
    concat,
    counter,
    interleave,
    optional,
    plus,
    star,
    union,
)
from repro.regex.determinism import check_deterministic
from repro.xmlmodel.patch import clone_element
from repro.xmlmodel.tree import XMLDocument
from repro.xsd.content import ContentModel
from repro.xsd.dfa_based import DFABasedXSD


class ShrinkResult:
    """Outcome of one shrink run.

    Attributes:
        dfa: the minimized schema.
        document: the minimized document (``None`` for schema-only
            failures such as round-trip disagreements).
        steps: reductions applied.
        evaluations: predicate invocations spent.
    """

    __slots__ = ("dfa", "document", "steps", "evaluations")

    def __init__(self, dfa, document, steps, evaluations):
        self.dfa = dfa
        self.document = document
        self.steps = steps
        self.evaluations = evaluations

    def __repr__(self):
        return (
            f"<ShrinkResult rules={schema_rules(self.dfa)} "
            f"nodes={document_nodes(self.document)} steps={self.steps}>"
        )


def schema_rules(dfa):
    """The schema's rule count (non-initial states = types = rules)."""
    return len(dfa.states) - 1


def document_nodes(document):
    """Element-node count of a document (0 for ``None``)."""
    if document is None:
        return 0
    return sum(1 for __ in document.iter())


def regex_weight(node):
    """AST node count (not the paper's symbol-count ``size``).

    The paper's size measure ignores operators, so unwrapping ``c+`` to
    ``c`` would not register as progress; node count makes every
    operator-unwrapping reduction strictly decreasing too.
    """
    if isinstance(node, (Symbol, Epsilon, EmptySet)):
        return 1
    if isinstance(node, (Star, Plus, Optional, Counter)):
        return 1 + regex_weight(node.child)
    return 1 + sum(regex_weight(child) for child in node.children)


def schema_measure(dfa):
    """Strictly-decreasing size measure driving termination."""
    return (
        len(dfa.states)
        + len(dfa.start)
        + sum(regex_weight(model.regex) + len(model.attributes)
              + (1 if model.mixed else 0)
              for model in dfa.assign.values())
    )


def document_measure(document):
    if document is None:
        return 0
    nodes = list(document.iter())
    return (
        len(nodes)
        + sum(len(node.attributes) for node in nodes)
        + sum(1 for node in nodes for run in node.texts if run.strip())
    )


def shrink_case(dfa, document, predicate, max_evaluations=20000):
    """Minimize a failing case while ``predicate(dfa, document)`` holds.

    Args:
        dfa: the failing :class:`~repro.xsd.dfa_based.DFABasedXSD`.
        document: the failing :class:`~repro.xmlmodel.tree.XMLDocument`,
            or ``None`` for schema-only (round-trip) failures.
        predicate: callable ``(dfa, document) -> bool``; exceptions
            other than :class:`~repro.errors.BudgetExceeded` count as
            ``False`` (a candidate that breaks the harness is not a
            smaller repro).
        max_evaluations: cap on predicate invocations.

    Returns:
        A :class:`ShrinkResult`.

    Raises:
        ValueError: when the initial case does not satisfy the
            predicate (nothing to shrink).
    """
    evaluations = [0]

    def holds(candidate_dfa, candidate_doc):
        evaluations[0] += 1
        try:
            return bool(predicate(candidate_dfa, candidate_doc))
        except BudgetExceeded:
            raise
        except Exception:  # noqa: BLE001 — broken candidate, reject
            return False

    if not holds(dfa, document):
        raise ValueError("the initial case does not fail the predicate")

    steps = 0
    progress = True
    while progress and evaluations[0] < max_evaluations:
        progress = False
        for candidate in schema_reductions(dfa):
            if evaluations[0] >= max_evaluations:
                break
            if holds(candidate, document):
                dfa = candidate
                steps += 1
                progress = True
                break
        if document is not None:
            for candidate in document_reductions(document):
                if evaluations[0] >= max_evaluations:
                    break
                if holds(dfa, candidate):
                    document = candidate
                    steps += 1
                    progress = True
                    break
    return ShrinkResult(dfa, document, steps, evaluations[0])


# -- schema reductions -----------------------------------------------------
def schema_reductions(dfa):
    """Yield well-formed schemas strictly smaller than ``dfa``.

    Order matters for greed: structural drops (states, roots) come
    first — they remove the most weight per step — then per-rule regex
    shrinks, then attribute/mixedness cleanup.
    """
    base = schema_measure(dfa)
    for candidate in _raw_reductions(dfa):
        if candidate is None:
            continue
        if schema_measure(candidate) >= base:
            continue
        yield candidate


def _raw_reductions(dfa):
    for state in sorted(dfa.states - {dfa.initial}):
        yield _drop_state(dfa, state)
    if len(dfa.start) > 1:
        for name in sorted(dfa.start):
            yield _drop_start(dfa, name)
    for state in sorted(dfa.assign):
        model = dfa.assign[state]
        for regex in regex_reductions(model.regex):
            yield _replace_model(
                dfa, state,
                ContentModel(regex, mixed=model.mixed,
                             attributes=model.attributes),
            )
        for index in range(len(model.attributes)):
            uses = (model.attributes[:index]
                    + model.attributes[index + 1:])
            yield _replace_model(
                dfa, state,
                ContentModel(model.regex, mixed=model.mixed,
                             attributes=uses),
            )
        if model.mixed:
            yield _replace_model(
                dfa, state,
                ContentModel(model.regex, attributes=model.attributes),
            )


def _drop_state(dfa, victim):
    assign = {}
    for state, model in dfa.assign.items():
        if state == victim:
            continue
        regex = model.regex
        for (source, name), target in dfa.transitions.items():
            if source == state and target == victim:
                regex = without_symbol(regex, name)
        assign[state] = ContentModel(
            regex, mixed=model.mixed, attributes=model.attributes
        )
    start = {
        name for name in dfa.start
        if dfa.transitions.get((dfa.initial, name)) not in (victim, None)
    }
    transitions = {
        (source, name): target
        for (source, name), target in dfa.transitions.items()
        if victim not in (source, target)
    }
    return _rebuild(dfa, transitions, start, assign)


def _drop_start(dfa, victim):
    transitions = {
        key: target for key, target in dfa.transitions.items()
        if key != (dfa.initial, victim)
    }
    return _rebuild(dfa, transitions, dfa.start - {victim}, dfa.assign)


def _replace_model(dfa, state, model):
    assign = dict(dfa.assign)
    assign[state] = model
    return _rebuild(dfa, dfa.transitions, dfa.start, assign)


def _rebuild(dfa, transitions, start, assign):
    """Garbage-collect and reconstruct; ``None`` when not well-formed.

    Keeps only states reachable through letters their source's content
    model still uses, drops dangling transitions and start names
    without a transition, and rejects candidates whose content models
    left the deterministic (UPA) fragment — the shrunk schema must stay
    a legal Definition-3 schema.
    """
    start = {
        name for name in start
        if (dfa.initial, name) in transitions
    }
    reachable = {dfa.initial}
    worklist = []
    for name in start:
        target = transitions[(dfa.initial, name)]
        if target not in reachable:
            reachable.add(target)
            worklist.append(target)
    while worklist:
        state = worklist.pop()
        model = assign.get(state)
        if model is None:
            return None
        for name in model.element_names():
            target = transitions.get((state, name))
            if target is None:
                return None
            if target not in reachable:
                reachable.add(target)
                worklist.append(target)
    kept_assign = {
        state: model for state, model in assign.items()
        if state in reachable
    }
    kept_transitions = {}
    for (source, name), target in transitions.items():
        if source not in reachable or target not in reachable:
            continue
        used = (name in start if source == dfa.initial
                else name in kept_assign[source].element_names())
        if used:
            kept_transitions[(source, name)] = target
    try:
        for model in kept_assign.values():
            check_deterministic(model.regex)
        return DFABasedXSD(
            states=reachable,
            alphabet=dfa.alphabet,
            transitions=kept_transitions,
            initial=dfa.initial,
            start=start,
            assign=kept_assign,
        )
    except ReproError:
        return None


# -- regex reductions ------------------------------------------------------
def regex_reductions(node):
    """Yield regexes one reduction step smaller than ``node``."""
    if node.size > 0 and not isinstance(node, (Epsilon, EmptySet)):
        yield EPSILON
    yield from _node_reductions(node)


def _node_reductions(node):
    if isinstance(node, (Symbol, Epsilon, EmptySet)):
        return
    if isinstance(node, (Star, Plus, Optional)):
        yield node.child
        rebuild = {Star: star, Plus: plus, Optional: optional}[type(node)]
        for reduced in _node_reductions(node.child):
            yield rebuild(reduced)
        return
    if isinstance(node, Counter):
        yield node.child
        for reduced in _node_reductions(node.child):
            yield counter(reduced, node.low, node.high)
        return
    rebuild = {Concat: concat, Union: union, Interleave: interleave}[
        type(node)
    ]
    children = node.children
    for index, child in enumerate(children):
        yield child  # collapse to a single factor/alternative
        rest = children[:index] + children[index + 1:]
        if len(rest) >= 1:
            yield rebuild(*rest)  # drop one factor/alternative
        for reduced in _node_reductions(child):
            yield rebuild(
                *children[:index], reduced, *children[index + 1:]
            )


def without_symbol(node, name):
    """``node`` with every occurrence of ``name`` made unmatchable.

    Substitutes the empty *language* (not the empty word) for the
    symbol and propagates: a concatenation or interleave containing it
    collapses, a union drops the branch, iteration operators keep their
    zero-repetition words.  Used when a state is dropped and the
    letters leading to it must leave every content model.
    """
    result = _substitute_empty(node, name)
    return result


def _substitute_empty(node, name):
    if isinstance(node, Symbol):
        return EMPTY if node.name == name else node
    if isinstance(node, (Epsilon, EmptySet)):
        return node
    if isinstance(node, (Concat, Interleave)):
        parts = [_substitute_empty(child, name) for child in node.children]
        if any(isinstance(part, EmptySet) for part in parts):
            return EMPTY
        build = concat if isinstance(node, Concat) else interleave
        return build(*parts)
    if isinstance(node, Union):
        parts = [
            part
            for part in (
                _substitute_empty(child, name) for child in node.children
            )
            if not isinstance(part, EmptySet)
        ]
        if not parts:
            return EMPTY
        return union(*parts)
    if isinstance(node, (Star, Optional)):
        child = _substitute_empty(node.child, name)
        if isinstance(child, EmptySet):
            return EPSILON
        return star(child) if isinstance(node, Star) else optional(child)
    if isinstance(node, Plus):
        child = _substitute_empty(node.child, name)
        if isinstance(child, EmptySet):
            return EMPTY
        return plus(child)
    if isinstance(node, Counter):
        child = _substitute_empty(node.child, name)
        if isinstance(child, EmptySet):
            return EPSILON if node.low == 0 else EMPTY
        return counter(child, node.low, node.high)
    raise TypeError(f"unknown regex node {node!r}")


# -- document reductions ---------------------------------------------------
def document_reductions(document):
    """Yield documents strictly smaller than ``document``."""
    base = document_measure(document)
    count = sum(1 for __ in document.iter())
    for index in range(1, count):  # never delete the root
        yield _delete_subtree(document, index)
    for index in range(count):
        node = _node_at(document, index)
        if node.children:
            yield _clear_children(document, index)
        for attr_name in sorted(node.attributes):
            yield _drop_attribute(document, index, attr_name)
        if any(run.strip() for run in node.texts):
            yield _clear_text(document, index)
    # All operators remove at least one node, attribute, or text run,
    # so every yielded document is strictly smaller; assert the
    # invariant cheaply in debug runs.
    assert base >= 0


def _node_at(document, index):
    for position, node in enumerate(document.iter()):
        if position == index:
            return node
    raise IndexError(index)


def _edit(document, index, editor):
    clone = XMLDocument(clone_element(document.root))
    editor(_node_at(clone, index))
    return clone


def _delete_subtree(document, index):
    def remove(node):
        parent = node.parent
        position = parent.children.index(node)
        del parent.children[position]
        del parent.texts[position + 1]

    return _edit(document, index, remove)


def _clear_children(document, index):
    def clear(node):
        node.children = []
        node.texts = [node.texts[0]]

    return _edit(document, index, clear)


def _drop_attribute(document, index, attr_name):
    def drop(node):
        node.set_attribute(attr_name, None)

    return _edit(document, index, drop)


def _clear_text(document, index):
    def clear(node):
        node.texts = ["" for __ in node.texts]

    return _edit(document, index, clear)
