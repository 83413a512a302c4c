"""Separator search: simple languages that witness a difference.

Given two *disjoint* regular languages ``inside`` and ``outside`` (for a
schema diff: the left-only child-words ``L \\ R`` and the whole right
content language ``R``), a *separator* is a language ``S`` with

    ``inside ⊆ S``  and  ``S ∩ outside = ∅``.

Any ``S`` proves the two languages differ, but a *simple* ``S`` is a
human-readable certificate of *how* they differ.  Following
Czerwiński–Martens–Masopust (separability by piecewise-testable
languages, PAPERS.md), the search is bounded by ``k`` and runs in three
tiers of increasing generality:

1. **Subsequence atoms** — ``Contains(u) = Σ* u₁ Σ* … Σ* u_k Σ*`` for a
   word ``u`` of length ≤ k, or its complement ``Avoids(u)``.  These
   render as one-line facts ("left allows 'a' eventually-followed-by
   'b'; right never does").
2. **Suffix atoms** — ``Σ* u`` and its complement (the suffix half of
   the CMM separability results, matching this repo's k-suffix theme).
3. **Full k-piecewise-testable separators** — two languages are
   k-PT-separable iff no word of one shares its set of length-≤k
   subsequences (its *k-spectrum*) with a word of the other; when the
   reachable spectrum sets are disjoint, the union of the ``inside``
   spectrum classes is itself a separator, materialized as a DFA over
   spectrum states.

Every candidate check runs on the existing automata product/complement
machinery, so state creation is charged to the ambient
:class:`~repro.observability.ResourceBudget` for free; the spectrum
construction charges its own states to the same budget.  Languages that
are not PT-separable at any ``k`` (e.g. even-vs-odd counts) make the
search return ``None`` — callers fall back to a plain counterexample
word.
"""

from __future__ import annotations

from repro.automata.dfa import DFA
from repro.automata.operations import difference, intersection, is_empty
from repro.observability import current_budget, span

#: Most atom candidates tried per k before falling through to the
#: spectrum tier (|Σ|^k grows fast on wide alphabets; the spectrum
#: check does not enumerate and stays the completeness backstop).
MAX_ATOM_CANDIDATES = 4096


class Separator:
    """One found separator: a simple language plus its pedigree.

    Attributes:
        kind: ``subsequence`` / ``no-subsequence`` / ``suffix`` /
            ``no-suffix`` / ``piecewise``.
        k: the bound the separator was found at (atom length, or the
            spectrum depth for ``piecewise``).
        atom: the witnessing word for atom kinds (tuple of names),
            ``None`` for ``piecewise``.
        dfa: a :class:`~repro.automata.dfa.DFA` for the separator
            language — the machine-checkable artifact (tests verify
            ``inside ⊆ L(dfa)`` and ``L(dfa) ∩ outside = ∅``).
    """

    __slots__ = ("kind", "k", "atom", "dfa")

    def __init__(self, kind, k, atom, dfa):
        self.kind = kind
        self.k = k
        self.atom = tuple(atom) if atom is not None else None
        self.dfa = dfa

    def describe(self, inside="left", outside="right"):
        """One line: what the separator says about the two sides.

        ``inside`` names the side whose (difference) language the
        separator contains; ``outside`` the side it excludes.
        """
        if self.kind == "subsequence":
            return (
                f"{inside} allows {_eventually(self.atom)}; "
                f"{outside} never does"
            )
        if self.kind == "no-subsequence":
            return (
                f"{outside} always requires {_eventually(self.atom)}; "
                f"{inside} does not"
            )
        if self.kind == "suffix":
            return (
                f"{inside} allows child lists ending with "
                f"{_quoted(self.atom)}; {outside} never does"
            )
        if self.kind == "no-suffix":
            return (
                f"{outside} always ends with {_quoted(self.atom)}; "
                f"{inside} does not"
            )
        return (
            f"{self.k}-piecewise-testable separator: the sides are "
            f"distinguished by which subsequences of length <= {self.k} "
            f"their child lists contain"
        )

    def to_json(self):
        data = {"kind": self.kind, "k": self.k}
        if self.atom is not None:
            data["atom"] = list(self.atom)
        return data

    def __repr__(self):
        return f"<Separator {self.kind} k={self.k} atom={self.atom}>"


def _eventually(atom):
    """Render a subsequence atom: 'a' eventually-followed-by 'b'."""
    return " eventually-followed-by ".join(f"'{name}'" for name in atom)


def _quoted(atom):
    return " ".join(f"'{name}'" for name in atom)


# -- atom languages ---------------------------------------------------------
def subsequence_dfa(atom, alphabet):
    """Complete DFA for ``Σ* u₁ Σ* … Σ* u_n Σ*`` (contains ``atom``
    as a subsequence)."""
    atom = tuple(atom)
    alphabet = frozenset(alphabet) | frozenset(atom)
    states = frozenset(range(len(atom) + 1))
    transitions = {}
    for state in range(len(atom) + 1):
        for name in alphabet:
            if state < len(atom) and name == atom[state]:
                transitions[(state, name)] = state + 1
            else:
                transitions[(state, name)] = state
    return DFA(
        states=states,
        alphabet=alphabet,
        transitions=transitions,
        initial=0,
        accepting=frozenset({len(atom)}),
    )


def suffix_dfa(atom, alphabet):
    """Complete DFA for ``Σ* u`` (ends with ``atom``), KMP-style.

    State ``i`` = the longest suffix of the input that is a prefix of
    ``atom`` has length ``i``.
    """
    atom = tuple(atom)
    alphabet = frozenset(alphabet) | frozenset(atom)
    transitions = {}
    for state in range(len(atom) + 1):
        for name in alphabet:
            candidate = atom[:state] + (name,)
            # Longest suffix of `candidate` that is a prefix of `atom`.
            length = min(len(candidate), len(atom))
            while length > 0 and candidate[-length:] != atom[:length]:
                length -= 1
            transitions[(state, name)] = length
    return DFA(
        states=frozenset(range(len(atom) + 1)),
        alphabet=alphabet,
        transitions=transitions,
        initial=0,
        accepting=frozenset({len(atom)}),
    )


def complement_dfa(dfa):
    """The complement of a *complete* DFA (atom DFAs are complete)."""
    return DFA(
        states=dfa.states,
        alphabet=dfa.alphabet,
        transitions=dfa.transitions,
        initial=dfa.initial,
        accepting=dfa.states - dfa.accepting,
    )


# -- k-spectra --------------------------------------------------------------
def spectrum_step(profile, name, k):
    """Extend a k-spectrum by one letter.

    A spectrum is the frozenset of non-empty subsequences of length ≤ k
    occurring in the word read so far; appending ``name`` adds ``u·name``
    for every subsequence ``u`` of length < k (including the empty one).
    """
    grown = set(profile)
    grown.add((name,))
    for subsequence in profile:
        if len(subsequence) < k:
            grown.add(subsequence + (name,))
    return frozenset(grown)


class SpectrumCapExceeded(Exception):
    """Internal: the spectrum tier grew past its state cap at this k."""


#: Most (state, spectrum) pairs / spectrum states one tier may create
#: before giving up on that ``k`` — a local backstop so a hostile pair
#: stays bounded even when no ambient budget is installed.
MAX_SPECTRUM_STATES = 20_000


def spectra(dfa, k, alphabet=None, cap=None):
    """The set of k-spectra of the words ``dfa`` accepts.

    Runs the product of ``dfa`` with the (implicit) spectrum automaton;
    every (state, spectrum) pair created is charged to the ambient
    budget, and ``cap`` (when given) raises :class:`SpectrumCapExceeded`
    as a budget-independent backstop.
    """
    budget = current_budget()
    if alphabet is None:
        alphabet = dfa.alphabet
    initial = (dfa.initial, frozenset())
    seen = {initial}
    worklist = [initial]
    accepted = set()
    while worklist:
        state, profile = worklist.pop()
        if state in dfa.accepting:
            accepted.add(profile)
        for name in alphabet:
            target = dfa.transitions.get((state, name))
            if target is None:
                continue
            pair = (target, spectrum_step(profile, name, k))
            if pair not in seen:
                if cap is not None and len(seen) >= cap:
                    raise SpectrumCapExceeded
                if budget is not None:
                    budget.charge_states(1, where="diff.spectra")
                seen.add(pair)
                worklist.append(pair)
    return accepted


def spectrum_dfa(k, alphabet, accepting_spectra, cap=None):
    """DFA over spectrum states accepting words whose k-spectrum is in
    ``accepting_spectra`` — the canonical k-PT separator machine.  Each
    spectrum state is charged to the ambient budget."""
    budget = current_budget()
    alphabet = frozenset(alphabet)
    initial = frozenset()
    ids = {initial: 0}
    order = [initial]
    transitions = {}
    worklist = [initial]
    while worklist:
        profile = worklist.pop()
        source = ids[profile]
        for name in alphabet:
            grown = spectrum_step(profile, name, k)
            target = ids.get(grown)
            if target is None:
                if cap is not None and len(order) >= cap:
                    raise SpectrumCapExceeded
                if budget is not None:
                    budget.charge_states(1, where="diff.spectrum_dfa")
                target = len(order)
                ids[grown] = target
                order.append(grown)
                worklist.append(grown)
            transitions[(source, name)] = target
    accepting = frozenset(
        ids[profile] for profile in order if profile in accepting_spectra
    )
    return DFA(
        states=frozenset(range(len(order))),
        alphabet=alphabet,
        transitions=transitions,
        initial=0,
        accepting=accepting,
    )


# -- the search -------------------------------------------------------------
def find_separator(inside, outside, max_k=3):
    """A simple separator containing ``inside`` and missing ``outside``.

    Candidate atoms draw from the letters that actually occur in either
    language, and the search reads the ambient :class:`ResourceBudget`'s
    clock before each ``k`` and each atom.

    Args:
        inside: DFA of the language the separator must contain (for a
            schema diff: the left-only words ``L \\ R``).
        outside: DFA of the language the separator must avoid (``R``).
            The two languages must be disjoint.
        max_k: largest atom length / spectrum depth probed.

    Returns:
        A :class:`Separator`, or ``None`` when no separator exists
        within ``max_k`` (the languages are not k-PT-separable for any
        probed ``k`` — callers fall back to a counterexample word).
    """
    budget = current_budget()
    letters = sorted(
        _occurring_letters(inside) | _occurring_letters(outside)
    )
    with span("diff.find_separator", max_k=max_k,
              alphabet=len(letters)) as found:
        for k in range(1, max_k + 1):
            if budget is not None:
                budget.check_time(where="diff.find_separator")
            separator = _atom_tier(inside, outside, letters, k, budget)
            if separator is None:
                separator = _spectrum_tier(inside, outside, letters, k)
            if separator is not None:
                found.set_attribute("kind", separator.kind)
                found.set_attribute("k", separator.k)
                return separator
        found.set_attribute("kind", "none")
    return None


def _occurring_letters(dfa):
    """Letters occurring in at least one accepted word of ``dfa``."""
    trimmed = dfa.to_nfa().trim()
    return {name for (__, name) in trimmed.transitions}


def _atom_words(letters, k, limit):
    """All words of exactly length ``k`` over ``letters``, capped."""
    if not letters or len(letters) ** k > limit:
        return
    words = [()]
    for __ in range(k):
        words = [word + (name,) for word in words for name in letters]
    yield from words


def _atom_tier(inside, outside, letters, k, budget):
    """Tier 1+2: subsequence and suffix atoms of length exactly ``k``."""
    for atom in _atom_words(letters, k, MAX_ATOM_CANDIDATES):
        if budget is not None:
            budget.check_time(where="diff.atoms")
        for build, kind, negated_kind in (
            (subsequence_dfa, "subsequence", "no-subsequence"),
            (suffix_dfa, "suffix", "no-suffix"),
        ):
            atom_language = build(atom, letters)
            if (is_empty(difference(inside, atom_language))
                    and is_empty(intersection(outside, atom_language))):
                return Separator(kind, k, atom, atom_language)
            if (is_empty(intersection(inside, atom_language))
                    and is_empty(difference(outside, atom_language))):
                return Separator(
                    negated_kind, k, atom, complement_dfa(atom_language)
                )
    return None


def _spectrum_tier(inside, outside, letters, k):
    """Tier 3: full k-PT separability via disjoint spectrum sets."""
    alphabet = frozenset(letters)
    try:
        inside_spectra = spectra(
            inside, k, alphabet=alphabet, cap=MAX_SPECTRUM_STATES
        )
        outside_spectra = spectra(
            outside, k, alphabet=alphabet, cap=MAX_SPECTRUM_STATES
        )
        if inside_spectra & outside_spectra:
            return None
        machine = spectrum_dfa(
            k, alphabet, inside_spectra, cap=MAX_SPECTRUM_STATES
        )
    except SpectrumCapExceeded:
        return None
    return Separator("piecewise", k, None, machine)
