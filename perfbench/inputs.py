"""Schema loading through the program's front ends, and expected answers.

The expected answer for a document is the paper-faithful oracle:
``validate_xsd`` on the tree ``parse_document`` builds, against the formal
XSD the schema text denotes.  Workloads compare every verdict and every
violation multiset the program returns with it.

The oracle reads the schema text through the same front ends as the
program's compile path, so a front-end regression would move both.  At
set-up each verdict is therefore also checked against the generator's
formal model (``DFABasedXSD.validate``, which reads no schema text); a
disagreement counts as a failed operation (:func:`cross_check`).
"""

from __future__ import annotations

import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from perfbench.ledger import timed


def load_schema(kind, text, ledger=None):
    """Schema text -> formal XSD, the way ``repro serve`` reads uploads.

    Each front-end call is one span when ``ledger`` is on:
    ``schema.parse``, ``bonxai.compile``, ``translation.dtd``,
    ``translation.alg2`` (BXSD -> DFA-based) and ``translation.alg4``
    (DFA-based -> XSD).
    """
    from repro.bonxai import compile_schema, parse_bonxai
    from repro.translation import (
        bxsd_to_dfa_based,
        dfa_based_to_xsd,
        dtd_to_bxsd,
    )
    from repro.xmlmodel import parse_dtd
    from repro.xsd import read_xsd

    if kind == "xsd":
        return timed(ledger, "schema.parse", read_xsd, text)[0]
    if kind == "dtd":
        dtd = timed(ledger, "schema.parse", parse_dtd, text)[0]
        bxsd = timed(ledger, "translation.dtd", dtd_to_bxsd, dtd)[0]
    elif kind == "bonxai":
        parsed = timed(ledger, "schema.parse", parse_bonxai, text)[0]
        bxsd = timed(ledger, "bonxai.compile", compile_schema, parsed)[0].bxsd
    else:
        raise ValueError(f"unknown schema kind {kind!r}")
    dfa = timed(ledger, "translation.alg2", bxsd_to_dfa_based, bxsd)[0]
    return timed(ledger, "translation.alg4", dfa_based_to_xsd, dfa)[0]


def compile_text(kind, text, ledger=None):
    """Schema text -> ``(xsd, CompiledSchema)`` through a fresh cache."""
    from repro.engine import SchemaCache

    xsd = load_schema(kind, text, ledger)
    compiled = timed(ledger, "engine.cache.get", SchemaCache().get, xsd)[0]
    return xsd, compiled


@functools.lru_cache(maxsize=64)
def _oracle_schema(kind, text):
    return load_schema(kind, text)


def answer(kind, schema_text, document_text, model):
    """``((valid, sorted violations), model verdict)``: the tree oracle's
    answer, and whether the formal ``model`` accepts the same tree."""
    from repro.xmlmodel import parse_document
    from repro.xsd import validate_xsd

    tree = parse_document(document_text)
    report = validate_xsd(_oracle_schema(kind, schema_text), tree)
    expected = report.valid, sorted(str(v) for v in report.violations)
    return expected, model.is_valid(tree)


@functools.lru_cache(maxsize=1)
def _catalog_models():
    from perfbench import gen

    return {s.label: s.model for s in gen.catalog()[1]}


def _answer_job(job):
    kind, schema_text, document_text, label = job
    return answer(kind, schema_text, document_text, _catalog_models()[label])


def answers(jobs, workers):
    """Expected answers and model verdicts (two lists) for
    ``(kind, schema_text, document_text, catalog label)`` jobs (formal
    models do not pickle, so workers look them up in the catalog).

    With ``workers > 1`` the oracle runs in that many forked processes
    (set-up only; nothing is timed meanwhile), largest documents first.
    Forked, not spawned: a spawn context starts multiprocessing's resource
    tracker, a process that outlives the pool and the run.
    """
    if workers <= 1:
        results = [_answer_job(job) for job in jobs]
    else:
        order = sorted(range(len(jobs)), key=lambda i: -len(jobs[i][2]))
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            done = list(pool.map(_answer_job, [jobs[i] for i in order]))
        results = [None] * len(jobs)
        for index, result in zip(order, done):
            results[index] = result
    return [r[0] for r in results], [r[1] for r in results]


def cross_check(outcome, expected, verdicts):
    """One operation per expected answer: failed when the formal model's
    verdict disagrees with it."""
    for (valid, __), model_valid in zip(expected, verdicts):
        outcome.check(valid == model_valid)


def agrees(report, expected):
    """Whether a program report matches an expected oracle answer."""
    valid, violations = expected
    return (report.valid == valid
            and sorted(str(v) for v in report.violations) == violations)


def flipped(expected):
    """An expected answer with its verdict flipped (self-test hook)."""
    valid, violations = expected
    return (not valid, violations)
