"""Seeded generation of conformance cases: schemas, documents, mutants.

A conformance case is one randomly generated schema (anchored at the
DFA-based corner, the pivot every translation passes through) plus a
small set of documents: valid ones sampled from the schema by
:class:`~repro.xsd.generator.DocumentGenerator`, and mutants pushed off
the language by the perturbation playbook of the schema-inference
literature (relabel a node, drop/duplicate a subtree, perturb
attributes, inject character data) — each mutation targets one concrete
violation class of Definition 2/3.

Generation is a pure function of ``(sweep seed, case index)``: the same
pair always yields byte-identical schemas and documents, so a failing
case can be regenerated from its coordinates alone, and a 10k-case
sweep is reproducible across machines.
"""

from __future__ import annotations

import random

from repro.corpus.generator import (
    make_context_aware,
    make_dtd_like,
    random_deterministic_regex,
)
from repro.errors import ReproError
from repro.regex.ast import EPSILON, interleave, optional, plus, star, sym
from repro.translation.ksuffix import ksuffix_bxsd_to_dfa_based
from repro.xmlmodel.patch import clone_element
from repro.xmlmodel.tree import XMLDocument
from repro.xsd.content import AttributeUse, ContentModel
from repro.xsd.dfa_based import DFABasedXSD
from repro.xsd.generator import DocumentGenerator

NAMES = ("a", "b", "c", "d")
ATTR_NAMES = ("id", "lang", "title")

#: Families mirror the corpus-study mix: mostly unconstrained random
#: DFA-based schemas, plus the suffix-shaped families real web XSDs
#: exhibit (1-suffix DTD-likes and k-suffix context rules), plus
#: ``xs:all`` records (the engine's bag-shaped content).
FAMILIES = ("random", "random", "random", "dtd_like", "context",
            "unordered")

BAG_NAMES = ("a", "b", "c", "d", "e", "f")
#: Bag member multiplicities: 1, ``?``, ``*`` and ``+``.
MULTIPLICITIES = (sym, lambda name: optional(sym(name)),
                  lambda name: star(sym(name)), lambda name: plus(sym(name)))


class ConformanceCase:
    """One generated case: a schema and its (valid + mutant) documents.

    Attributes:
        index: the case's position in the sweep.
        seed: the sweep seed the case was derived from.
        formalism: the generating family (``random``/``dtd_like``/
            ``context``/``unordered``).
        dfa: the :class:`~repro.xsd.dfa_based.DFABasedXSD` anchor.
        documents: list of ``(label, XMLDocument)`` pairs; labels are
            ``valid`` or ``mutant``.
    """

    __slots__ = ("index", "seed", "formalism", "dfa", "documents")

    def __init__(self, index, seed, formalism, dfa, documents):
        self.index = index
        self.seed = seed
        self.formalism = formalism
        self.dfa = dfa
        self.documents = documents

    def __repr__(self):
        return (
            f"<ConformanceCase #{self.index} {self.formalism} "
            f"states={len(self.dfa.states)} docs={len(self.documents)}>"
        )


class CaseGenerator:
    """Deterministic case factory for one sweep seed.

    Args:
        seed: the sweep seed.
        max_states: state bound for the ``random`` family.
        docs_per_case: valid documents sampled per case.
        mutants_per_doc: mutants derived from each valid document.
    """

    def __init__(self, seed=0, max_states=4, docs_per_case=2,
                 mutants_per_doc=2):
        self.seed = seed
        self.max_states = max_states
        self.docs_per_case = docs_per_case
        self.mutants_per_doc = mutants_per_doc

    def case(self, index):
        """The case at ``index`` (pure in ``(seed, index)``)."""
        rng = random.Random(f"conformance:{self.seed}:{index}")
        formalism = FAMILIES[rng.randrange(len(FAMILIES))]
        dfa = _build_schema(rng, formalism, self.max_states)
        documents = _sample_documents(
            rng, dfa, self.docs_per_case, self.mutants_per_doc
        )
        return ConformanceCase(index, self.seed, formalism, dfa, documents)

    def cases(self, count, start=0):
        """Yield ``count`` cases starting at ``start``."""
        for index in range(start, start + count):
            yield self.case(index)


def _build_schema(rng, formalism, max_states):
    if formalism == "dtd_like":
        bxsd = make_dtd_like(rng, width=4)
        return ksuffix_bxsd_to_dfa_based(bxsd)
    if formalism == "context":
        bxsd = make_context_aware(
            rng, k=2 + rng.randrange(2), width=4, context_rules=2
        )
        return ksuffix_bxsd_to_dfa_based(bxsd)
    if formalism == "unordered":
        return random_unordered(rng)
    return random_dfa_based(rng, max_states=max_states)


def random_unordered(rng):
    """A random ``xs:all`` record: an interleave of 2-6 distinct names.

    Each member of the record type gets a random multiplicity (1, ``?``,
    ``*`` or ``+``) and one of three child types: an empty element, a
    text element, or an all-optional inner bag over two of the record's
    names.  Kept to six names, reused by the inner bag: the round-trip
    legs still build each content model's DFA (2^n states), and the
    separator search behind a round-trip failure grows with the
    alphabet.
    """
    names = rng.sample(BAG_NAMES, 2 + rng.randrange(5))
    inner_names = rng.sample(names, 2)
    members = [MULTIPLICITIES[rng.randrange(len(MULTIPLICITIES))](name)
               for name in names]
    uses = ()
    if rng.random() < 0.5:
        uses = (AttributeUse(ATTR_NAMES[rng.randrange(len(ATTR_NAMES))],
                             required=rng.random() < 0.5),)
    assign = {
        "rec": ContentModel(interleave(*members), mixed=rng.random() < 0.2,
                            attributes=uses),
        "leaf": ContentModel(EPSILON),
        "text": ContentModel(EPSILON, mixed=True),
        "inner": ContentModel(
            interleave(*(optional(sym(name)) for name in inner_names))
        ),
    }
    transitions = {("q0", "r"): "rec"}
    for name in names:
        transitions[("rec", name)] = ("leaf", "text", "inner")[
            rng.randrange(3)
        ]
    for name in inner_names:
        transitions[("inner", name)] = "leaf"
    return DFABasedXSD(
        states=frozenset(assign) | {"q0"},
        alphabet=frozenset(names) | {"r"},
        transitions=transitions,
        initial="q0",
        start=frozenset({"r"}),
        assign=assign,
    )


def random_dfa_based(rng, max_states=4, names=NAMES):
    """A random well-formed DFA-based XSD over a small alphabet.

    Content models are random deterministic expressions (each name at
    most once, so the Glushkov automaton is deterministic by
    construction); some carry attribute uses and mixed flags so the
    attribute/text violation classes are exercised too.
    """
    state_count = 1 + rng.randrange(max_states)
    states = [f"s{i}" for i in range(state_count)]
    assign = {}
    transitions = {}
    for state in states:
        children = rng.sample(names, rng.randrange(0, len(names) + 1))
        regex = random_deterministic_regex(rng, children)
        uses = ()
        if rng.random() < 0.3:
            uses = tuple(
                AttributeUse(name, required=rng.random() < 0.5)
                for name in rng.sample(
                    ATTR_NAMES, 1 + rng.randrange(len(ATTR_NAMES) - 1)
                )
            )
        assign[state] = ContentModel(
            regex, mixed=rng.random() < 0.2, attributes=uses
        )
        for name in sorted(regex.symbols()):
            transitions[(state, name)] = states[rng.randrange(state_count)]
    start_names = rng.sample(names, 1 + rng.randrange(2))
    for name in start_names:
        transitions[("q0", name)] = states[rng.randrange(state_count)]
    return DFABasedXSD(
        states=frozenset(states) | {"q0"},
        alphabet=frozenset(names),
        transitions=transitions,
        initial="q0",
        start=frozenset(start_names),
        assign=assign,
    )


def _sample_documents(rng, dfa, docs_per_case, mutants_per_doc):
    try:
        generator = DocumentGenerator(dfa)
    except ReproError:
        return []  # the schema accepts no documents; round-trips only
    names = sorted(dfa.alphabet) + ["zzz"]
    attr_names = sorted(
        {use.name for model in dfa.assign.values()
         for use in model.attributes}
    ) + ["bogus"]
    documents = []
    for __ in range(docs_per_case):
        document = generator.generate(rng, max_depth=4, max_children=5)
        documents.append(("valid", document))
        for __ in range(mutants_per_doc):
            documents.append(
                ("mutant", mutate_document(document, rng, names, attr_names))
            )
    return documents


def mutate_document(document, rng, names, attr_names):
    """One random mutation covering every violation class.

    The six mutation operators target, in order: typing (relabel a node,
    possibly the root), content models (drop a subtree / duplicate a
    child), attributes (add an undeclared or drop a declared one), and
    mixedness (inject character data).
    """
    root = clone_element(document.root)
    nodes = list(root.iter())
    victim = nodes[rng.randrange(len(nodes))]
    choice = rng.randrange(6)
    if choice == 0:  # relabel (may hit the root -> undeclared root)
        others = [name for name in names if name != victim.name]
        victim.name = others[rng.randrange(len(others))]
    elif choice == 1 and victim.parent is not None:  # delete subtree
        index = victim.parent.children.index(victim)
        del victim.parent.children[index]
        del victim.parent.texts[index + 1]
        victim.parent = None
    elif choice == 2 and victim.children:  # duplicate a child
        victim.append(clone_element(
            victim.children[rng.randrange(len(victim.children))]
        ))
    elif choice == 3:  # add an attribute (possibly undeclared)
        name = attr_names[rng.randrange(len(attr_names))]
        victim.set_attribute(name, "x")
    elif choice == 4 and victim.attributes:  # drop an attribute
        keys = sorted(victim.attributes)
        victim.set_attribute(keys[rng.randrange(len(keys))], None)
    else:  # inject text (violates non-mixed models)
        victim.append_text("stray text")
    return XMLDocument(root)
