"""The conformance sweep: generate → oracle → shrink → corpus.

One sweep runs ``cases`` generated conformance cases through the full
differential + metamorphic oracle, delta-debugs every disagreement down
to a minimal repro, and (optionally) pins the shrunk repros into the
regression corpus.  The sweep is wired into the observability stack:

* metrics — ``conformance.cases`` / ``.documents`` / ``.checks`` /
  ``.disagreements`` / ``.shrink.steps`` counters and
  ``conformance.case_ns`` / ``conformance.shrink_ns`` histograms;
* tracing — a ``conformance.sweep`` root span with one
  ``conformance.case`` child per case (seed and index attributes) and
  ``conformance.shrink`` spans around minimization;
* budgets — an ambient :class:`~repro.observability.ResourceBudget`
  (the CLI's ``--budget-seconds``) is consulted between cases and
  honored inside the translation arrows; exhaustion stops the sweep
  cleanly with partial results instead of mislabeling the stop as a
  disagreement.

Failures are de-duplicated per case by ``(kind, check)`` so one broken
validator does not flood the report with every mutant of every
document.
"""

from __future__ import annotations

import time

from repro.conformance.corpus import CorpusCase, dfa_to_json, save_case
from repro.conformance.generate import CaseGenerator
from repro.conformance.oracle import DifferentialOracle
from repro.conformance.shrink import (
    document_nodes,
    schema_rules,
    shrink_case,
)
from repro.errors import BudgetExceeded
from repro.observability import current_budget, default_registry
from repro.observability.tracing import span
from repro.xmlmodel import parse_document
from repro.xmlmodel.writer import write_document


class SweepConfig:
    """Knobs for one conformance sweep (CLI flags map 1:1)."""

    __slots__ = (
        "seed", "cases", "docs_per_case", "mutants_per_doc", "max_states",
        "roundtrips", "shrink", "save_failures", "corpus_dir",
        "progress_every", "max_failures",
    )

    def __init__(self, seed=0, cases=500, docs_per_case=2,
                 mutants_per_doc=2, max_states=4, roundtrips=True,
                 shrink=True, save_failures=False,
                 corpus_dir="tests/conformance_corpus",
                 progress_every=0, max_failures=25):
        self.seed = seed
        self.cases = cases
        self.docs_per_case = docs_per_case
        self.mutants_per_doc = mutants_per_doc
        self.max_states = max_states
        self.roundtrips = roundtrips
        self.shrink = shrink
        self.save_failures = save_failures
        self.corpus_dir = corpus_dir
        self.progress_every = progress_every
        self.max_failures = max_failures


class Failure:
    """One (de-duplicated, possibly shrunk) sweep failure."""

    __slots__ = (
        "case_index", "sweep_seed", "formalism", "kind", "check", "detail",
        "schema_rules", "document_nodes", "shrink_steps", "document",
        "corpus_path",
    )

    def __init__(self, case_index, sweep_seed, formalism, kind, check,
                 detail, schema_rules_, document_nodes_, shrink_steps=0,
                 document=None, corpus_path=None):
        self.case_index = case_index
        self.sweep_seed = sweep_seed
        self.formalism = formalism
        self.kind = kind
        self.check = check
        self.detail = detail
        self.schema_rules = schema_rules_
        self.document_nodes = document_nodes_
        self.shrink_steps = shrink_steps
        self.document = document
        self.corpus_path = corpus_path

    def describe(self):
        size = (
            f"{self.schema_rules} rule(s) / "
            f"{self.document_nodes} document node(s)"
        )
        lines = [
            f"case #{self.case_index} (seed {self.sweep_seed}, "
            f"{self.formalism}): {self.kind}/{self.check}",
            f"  {self.detail}",
            (f"  shrunk to {size} in {self.shrink_steps} step(s)"
             if self.shrink_steps else f"  size: {size}"),
        ]
        if self.corpus_path is not None:
            lines.append(f"  saved: {self.corpus_path}")
        return "\n".join(lines)


class SweepResult:
    """Aggregate outcome of one sweep."""

    __slots__ = ("cases_run", "documents", "checks", "failures",
                 "stopped_early", "elapsed_seconds")

    def __init__(self):
        self.cases_run = 0
        self.documents = 0
        self.checks = 0
        self.failures = []
        self.stopped_early = None
        self.elapsed_seconds = 0.0

    @property
    def clean(self):
        return not self.failures

    def summary(self):
        rate = (self.cases_run / self.elapsed_seconds
                if self.elapsed_seconds > 0 else 0.0)
        text = (
            f"conformance: {self.cases_run} case(s), "
            f"{self.documents} document(s), {self.checks} check(s), "
            f"{len(self.failures)} disagreement(s) "
            f"({self.elapsed_seconds:.1f}s, {rate:.1f} cases/s)"
        )
        if self.stopped_early:
            text += f" — stopped early: {self.stopped_early}"
        return text


def run_sweep(config=None, oracle=None, progress=None):
    """Run one conformance sweep; returns a :class:`SweepResult`.

    Args:
        config: a :class:`SweepConfig` (default: the defaults).
        oracle: a :class:`~repro.conformance.oracle.DifferentialOracle`
            override (tests inject corrupted arrows through this).
        progress: optional callable taking one status string.
    """
    config = config or SweepConfig()
    oracle = oracle or DifferentialOracle(roundtrips=config.roundtrips)
    generator = CaseGenerator(
        seed=config.seed,
        max_states=config.max_states,
        docs_per_case=config.docs_per_case,
        mutants_per_doc=config.mutants_per_doc,
    )
    registry = default_registry()
    budget = current_budget()
    result = SweepResult()
    started = time.perf_counter()

    with span("conformance.sweep") as sweep_span:
        sweep_span.set_attribute("seed", config.seed)
        sweep_span.set_attribute("cases", config.cases)
        for index in range(config.cases):
            if budget is not None:
                try:
                    budget.check_time(where="conformance.sweep")
                except BudgetExceeded as error:
                    result.stopped_early = str(error)
                    break
            try:
                _run_case(config, oracle, generator, index, registry,
                          result)
            except BudgetExceeded as error:
                result.stopped_early = str(error)
                break
            if (progress is not None and config.progress_every
                    and (index + 1) % config.progress_every == 0):
                progress(
                    f"  ... {index + 1}/{config.cases} cases, "
                    f"{len(result.failures)} disagreement(s)"
                )
            if len(result.failures) >= config.max_failures:
                result.stopped_early = (
                    f"reached {config.max_failures} failures"
                )
                break
        sweep_span.set_attribute("failures", len(result.failures))

    result.elapsed_seconds = time.perf_counter() - started
    return result


def _run_case(config, oracle, generator, index, registry, result):
    case_started = time.perf_counter_ns()
    with span("conformance.case") as case_span:
        case_span.set_attribute("index", index)
        case = generator.case(index)
        case_span.set_attribute("formalism", case.formalism)
        disagreements = _check_case_deduplicated(oracle, case)
        result.cases_run += 1
        result.documents += len(case.documents)
        checks_per_doc = 6 + (
            1 if getattr(oracle, "incremental", False) else 0
        )
        result.checks += len(case.documents) * checks_per_doc + 4
        registry.counter("conformance.cases").inc()
        registry.counter("conformance.documents").inc(len(case.documents))
        if disagreements:
            case_span.set_status("error")
    registry.histogram("conformance.case_ns").observe(
        time.perf_counter_ns() - case_started
    )

    for disagreement in disagreements:
        registry.counter("conformance.disagreements").inc()
        registry.counter(
            f"conformance.disagreements.{disagreement.kind}"
        ).inc()
        result.failures.append(
            _to_failure(config, oracle, case, disagreement, registry)
        )


def _check_case_deduplicated(oracle, case):
    from repro.conformance.oracle import incremental_rng

    seen = set()
    out = []
    prepared = oracle.prepare(case.dfa)
    candidates = list(prepared.failures)
    if oracle.roundtrips:
        candidates.extend(oracle.check_roundtrips(case.dfa))
    for doc_index, (__, document) in enumerate(case.documents):
        candidates.extend(oracle.check_document(prepared, document))
        if getattr(oracle, "incremental", False):
            candidates.extend(oracle.check_incremental(
                prepared, document,
                incremental_rng(case.seed, case.index, doc_index),
            ))
    for disagreement in candidates:
        key = (disagreement.kind, disagreement.check)
        if key not in seen:
            seen.add(key)
            out.append(disagreement)
    return out


def _to_failure(config, oracle, case, disagreement, registry):
    dfa = case.dfa
    document = None
    if disagreement.counterexample is not None:
        try:
            document = parse_document(disagreement.counterexample)
        except Exception:  # noqa: BLE001 — raw event repros stay text
            document = None

    steps = 0
    if config.shrink:
        predicate = make_predicate(oracle, disagreement.kind,
                                   disagreement.check)
        shrink_started = time.perf_counter_ns()
        with span("conformance.shrink") as shrink_span:
            try:
                shrunk = shrink_case(dfa, document, predicate)
                dfa, document, steps = (
                    shrunk.dfa, shrunk.document, shrunk.steps
                )
            except ValueError:
                # Not deterministically reproducible on its own (e.g. a
                # probabilistic injected fault): keep the original case.
                shrink_span.set_status("error")
            shrink_span.set_attribute("steps", steps)
        registry.counter("conformance.shrink.steps").inc(steps)
        registry.histogram("conformance.shrink_ns").observe(
            time.perf_counter_ns() - shrink_started
        )

    failure = Failure(
        case_index=case.index,
        sweep_seed=case.seed,
        formalism=case.formalism,
        kind=disagreement.kind,
        check=disagreement.check,
        detail=disagreement.detail,
        schema_rules_=schema_rules(dfa),
        document_nodes_=document_nodes(document),
        shrink_steps=steps,
        document=(write_document(document) if document is not None
                  else disagreement.counterexample),
    )
    if config.save_failures:
        corpus_case = CorpusCase(
            case_id=(
                f"sweep-s{case.seed}-c{case.index}-"
                f"{disagreement.kind}-"
                f"{disagreement.check.replace('.', '-').replace(',', '-')}"
            ),
            case_type="differential",
            status="open",
            kind=disagreement.kind,
            check=disagreement.check,
            description=(
                f"auto-saved by the conformance sweep: "
                f"{disagreement.detail}"
            ),
            seed=case.seed,
            formalism=case.formalism,
            schema=dfa_to_json(dfa),
            document=failure.document,
        )
        failure.corpus_path = str(save_case(corpus_case, config.corpus_dir))
        registry.counter("conformance.corpus.saved").inc()
    return failure


def make_predicate(oracle, kind, check):
    """A shrink predicate: "the same disagreement still reproduces".

    Matches on ``(kind, check)`` so shrinking cannot drift from, say, a
    streaming/tree violation mismatch into an unrelated crash and claim
    the smaller case reproduces the original bug.
    """
    def predicate(dfa, document):
        from repro.conformance.oracle import incremental_rng

        prepared = oracle.prepare(dfa)
        found = list(prepared.failures)
        if oracle.roundtrips:
            found.extend(oracle.check_roundtrips(dfa, explain=False))
        if document is not None:
            found.extend(oracle.check_document(prepared, document))
            if (check == "incremental"
                    and getattr(oracle, "incremental", False)):
                # The op stream depends on the document's shape, so a
                # shrunk case replays a *fresh* storm under a fixed
                # seed; if the mismatch needs the original stream the
                # shrinker simply keeps the original case.
                found.extend(oracle.check_incremental(
                    prepared, document, incremental_rng(0, 0, 0)
                ))
        return any(
            d.kind == kind and d.check == check for d in found
        )

    return predicate
