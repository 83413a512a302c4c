"""Every budgeted construction reads the ambient ResourceBudget.

The translation square's arrows, the automata constructions under them
and the diff search take no ``budget`` argument: a budget installed with
``with ResourceBudget(...):`` is the only one they see.  Each case below
builds its inputs outside the budget, then calls one construction inside
it and checks the refusal's limit and site.
"""

import importlib
import inspect
import pkgutil
import time

import pytest

import repro.automata
import repro.diff
import repro.observability
import repro.translation
from repro.automata.determinize import determinize
from repro.automata.product import pair_product, product_dfa
from repro.automata.state_elimination import dfa_to_regex, nfa_to_regex
from repro.diff import find_separator, schema_diff, spectra, spectrum_dfa
from repro.errors import BudgetExceeded
from repro.families.ehrenfeucht_zeiger import theorem8_xsd
from repro.families.theorem9 import theorem9_bxsd
from repro.observability import ResourceBudget
from repro.paperdata import figure3_xsd
from repro.regex.ast import concat, star, sym
from repro.regex.derivatives import to_dfa
from repro.regex.glushkov import glushkov_nfa
from repro.translation import (
    bxsd_to_dfa_based,
    bxsd_to_xsd,
    dfa_based_to_bxsd,
    dfa_based_to_xsd,
    hybrid_dfa_based_to_bxsd,
    xsd_to_bxsd,
    xsd_to_dfa_based,
)

from tests.test_diff_certificates import leaf_schema


def _ab_and_b_star():
    alphabet = {"a", "b"}
    return (to_dfa(concat(sym("a"), sym("b")), alphabet=alphabet),
            to_dfa(star(sym("b")), alphabet=alphabet))


def _one_state_language(automaton_of):
    """State elimination's inputs for one state of Theorem 8's X_4."""
    schema = theorem8_xsd(4)
    state = next(s for s in sorted(schema.states, key=repr)
                 if s != schema.initial)
    return (automaton_of(schema.ancestor_dfa()),), {"accepting": {state}}


def _theorem8_formal_xsd():
    return dfa_based_to_xsd(theorem8_xsd(4))


# (construction, limits, inputs() -> (args, kwargs), refusal's site)
CASES = [
    (xsd_to_dfa_based, {"max_states": 1},
     lambda: ((figure3_xsd(),), {}), "translation.algorithm1"),
    (dfa_based_to_bxsd, {"max_seconds": 1e-9},
     lambda: ((theorem8_xsd(3),), {}), "translation.algorithm2"),
    (bxsd_to_dfa_based, {"max_states": 64},
     lambda: ((theorem9_bxsd(8),), {}), "translation.algorithm3"),
    (dfa_based_to_xsd, {"max_states": 1},
     lambda: ((theorem8_xsd(3),), {}), "translation.algorithm4"),
    (xsd_to_bxsd, {"max_regex_size": 2},
     lambda: ((_theorem8_formal_xsd(),), {}),
     "automata.state_elimination"),
    (bxsd_to_xsd, {"max_states": 64},
     lambda: ((theorem9_bxsd(8),), {}), "translation.algorithm3"),
    (product_dfa, {"max_states": 1},
     lambda: ((list(_ab_and_b_star()),), {}), "automata.product"),
    (pair_product, {"max_states": 1},
     lambda: ((*_ab_and_b_star(), lambda left, right: left and right), {}),
     "automata.pair_product"),
    (determinize, {"max_states": 1},
     lambda: ((glushkov_nfa(concat(sym("a"), sym("b"))),), {}),
     "automata.determinize"),
    (dfa_to_regex, {"max_regex_size": 2},
     lambda: _one_state_language(lambda dfa: dfa),
     "automata.state_elimination"),
    (nfa_to_regex, {"max_regex_size": 2},
     lambda: _one_state_language(lambda dfa: dfa.to_nfa()),
     "automata.state_elimination"),
    (spectra, {"max_states": 1},
     lambda: ((_ab_and_b_star()[0], 2), {}), "diff.spectra"),
    (spectrum_dfa, {"max_states": 1},
     lambda: ((2, {"a", "b"}, set()), {}), "diff.spectrum_dfa"),
    (find_separator, {"max_seconds": 1e-9},
     lambda: (_ab_and_b_star(), {}), "diff.find_separator"),
    # The divergence walk compiles each state's content model first.
    (schema_diff, {"max_seconds": 1e-9},
     lambda: ((leaf_schema(concat(sym("a"), sym("b"))),
               leaf_schema(star(sym("b")))), {}),
     "regex.to_dfa"),
]


@pytest.mark.parametrize(
    "construction, limits, inputs, where", CASES,
    ids=[case[0].__name__ for case in CASES],
)
def test_construction_trips_the_ambient_budget(construction, limits, inputs,
                                               where):
    args, kwargs = inputs()
    with ResourceBudget(**limits) as budget:
        if budget.max_seconds is not None:
            time.sleep(0.002)  # the deadline has passed before the call
        with pytest.raises(BudgetExceeded) as info:
            construction(*args, **kwargs)
    (limit,) = limits
    assert info.value.stats["limit"] == limit
    assert info.value.stats["where"] == where


# Options the constructions dropped: each default is the only behaviour.
REMOVED = {
    xsd_to_bxsd: ("simplify", "prefer_ksuffix", "max_k"),
    bxsd_to_xsd: ("prefer_ksuffix", "max_k"),
    dfa_based_to_bxsd: ("trim",),
    dfa_based_to_xsd: ("trim", "type_namer"),
    hybrid_dfa_based_to_bxsd: ("max_k", "simplify"),
    product_dfa: ("alphabet",),
    find_separator: ("alphabet",),
}


def _public_functions():
    """Every public function the translation, automata and diff
    packages define."""
    for package in (repro.translation, repro.automata, repro.diff):
        for info in pkgutil.iter_modules(package.__path__,
                                         package.__name__ + "."):
            module = importlib.import_module(info.name)
            for name, value in vars(module).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == module.__name__):
                    yield value


def test_no_construction_takes_a_budget():
    functions = list(_public_functions())
    assert {case[0] for case in CASES} <= set(functions)
    taking = [function.__qualname__ for function in functions
              if "budget" in inspect.signature(function).parameters]
    assert taking == []


@pytest.mark.parametrize(
    "construction", list(REMOVED), ids=[f.__name__ for f in REMOVED]
)
def test_dropped_options_stay_dropped(construction):
    parameters = inspect.signature(construction).parameters
    assert not set(REMOVED[construction]) & set(parameters)


def test_one_way_to_find_the_budget():
    assert not hasattr(repro.observability, "resolve_budget")
    assert "resolve_budget" not in repro.observability.__all__
