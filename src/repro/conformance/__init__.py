"""Cross-formalism conformance harness (differential + metamorphic).

Four pieces, composed by :func:`run_sweep` and the ``conformance`` CLI
subcommand:

* :mod:`repro.conformance.generate` — seeded case generation (random /
  DTD-like / context-aware schemas, valid documents, mutants);
* :mod:`repro.conformance.oracle` — the differential oracle (tree vs
  streaming vs DFA-based vs BonXai validators) and the metamorphic
  round-trip oracles over the translation square;
* :mod:`repro.conformance.shrink` — the delta-debugging minimizer
  (schema rules, content regexes, document subtrees);
* :mod:`repro.conformance.corpus` — the versioned on-disk regression
  corpus under ``tests/conformance_corpus/`` and its replay engine.
"""

from repro.conformance.corpus import (
    CORPUS_VERSION,
    CorpusCase,
    dfa_to_json,
    load_corpus,
    replay_case,
    save_case,
    schema_from_json,
    xsd_to_json,
)
from repro.conformance.generate import (
    CaseGenerator,
    ConformanceCase,
    mutate_document,
    random_dfa_based,
)
from repro.conformance.oracle import (
    Disagreement,
    DifferentialOracle,
    default_arrows,
)
from repro.conformance.runner import (
    Failure,
    SweepConfig,
    SweepResult,
    make_predicate,
    run_sweep,
)
from repro.conformance.shrink import (
    ShrinkResult,
    document_measure,
    document_nodes,
    schema_measure,
    schema_rules,
    shrink_case,
)

__all__ = [
    "CORPUS_VERSION",
    "CaseGenerator",
    "ConformanceCase",
    "CorpusCase",
    "DifferentialOracle",
    "Disagreement",
    "Failure",
    "ShrinkResult",
    "SweepConfig",
    "SweepResult",
    "default_arrows",
    "dfa_to_json",
    "document_measure",
    "document_nodes",
    "load_corpus",
    "make_predicate",
    "mutate_document",
    "random_dfa_based",
    "replay_case",
    "run_sweep",
    "save_case",
    "schema_from_json",
    "schema_measure",
    "schema_rules",
    "shrink_case",
    "xsd_to_json",
]
