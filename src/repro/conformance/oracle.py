"""Differential and metamorphic oracles over the translation square.

The paper's equivalence theorems (Lemmas 4–7: Algorithms 1–4 preserve
the tree language) are enforced here as executable oracles on concrete
``(schema, document)`` pairs:

* **Differential**: the reference tree validator
  (:func:`~repro.xsd.validator.validate_xsd`), the compiled streaming
  engine on *three* input paths (the document's own event replay, the
  serialized text through ``iter_events``, and the serialized bytes
  through the dense fast path / ``validate_bytes``), the DFA-based
  validator (Definition 3), and the BonXai validator (the BXSD produced
  by Algorithm 2) must all agree on the verdict; tree and every
  streaming path must additionally agree on the violation *multiset*
  and the typing.
* **Incremental edit storms**: a seeded stream of random patch
  operations (:func:`~repro.xmlmodel.patch.random_op`) is applied in
  lockstep to a raw copy (revalidated from scratch by the tree
  validator after every edit) and to a
  :class:`~repro.engine.incremental.ValidatedDocument` (which
  revalidates only each edit's footprint); verdict, violation
  multiset, and typing must agree after *every* edit.
* **Metamorphic round-trips**: pushing the schema around the square —
  DFA→BXSD→DFA (Algorithms 2+3), DFA→XSD→DFA (Algorithms 4+1), the
  hybrid Algorithm 2, and (when the schema is k-suffix) the
  Theorem-12/13 constructions — must land on a language-equivalent
  schema, decided by
  :func:`~repro.xsd.equivalence.dfa_xsd_counterexample_pair`.  On
  failure the oracle emits a *concrete counterexample document*
  accepted by exactly one side, found by sampling each side's language.

Every validator/translation invocation is guarded: an exception is a
``crash`` disagreement (this is how :class:`~repro.resilience.faults.
FaultInjector` faults are caught), never an escaped traceback — except
:class:`~repro.errors.BudgetExceeded`, which must bubble so a sweep
under ``--budget-seconds`` stops instead of mislabeling the stop as a
bug.

The translation arrows are injectable (``arrows=`` override) so tests
can plant a deliberately wrong translation and watch the oracle catch
it — the harness's own fire drill.
"""

from __future__ import annotations

import random

from repro.errors import BudgetExceeded, ReproError
from repro.translation import (
    bxsd_to_dfa_based,
    detect_k_suffix,
    dfa_based_to_bxsd,
    dfa_based_to_xsd,
    hybrid_dfa_based_to_bxsd,
    ksuffix_bxsd_to_dfa_based,
    ksuffix_dfa_based_to_bxsd,
    xsd_to_dfa_based,
)
from repro.xmlmodel.parser import iter_events
from repro.xmlmodel.writer import write_document
from repro.xsd.equivalence import dfa_xsd_counterexample_pair
from repro.xsd.generator import DocumentGenerator
from repro.xsd.validator import validate_xsd

KINDS = ("crash", "verdict", "violations", "typing", "roundtrip")

ROUND_TRIPS = ("bxsd", "xsd", "hybrid", "ksuffix")


class Disagreement:
    """One oracle failure.

    Attributes:
        kind: one of :data:`KINDS`.
        check: which comparison failed (e.g. ``streaming_text``,
            ``roundtrip.bxsd``, ``prepare.bonxai``).
        detail: human-readable explanation.
        counterexample: XML text of a concrete disagreeing document,
            when one exists (differential checks always have one;
            round-trip checks attach a sampled witness when found).
        certificate: a :class:`~repro.diff.DiffCertificate` for
            equivalence findings (round-trip disagreements) — the
            separator-based explanation of *how* the languages differ;
            ``None`` elsewhere.
    """

    __slots__ = ("kind", "check", "detail", "counterexample",
                 "certificate")

    def __init__(self, kind, check, detail, counterexample=None,
                 certificate=None):
        self.kind = kind
        self.check = check
        self.detail = detail
        self.counterexample = counterexample
        self.certificate = certificate

    def __repr__(self):
        return f"Disagreement({self.kind}/{self.check}: {self.detail})"


class PreparedCase:
    """Per-schema artifacts shared by every document check of one case."""

    __slots__ = ("dfa", "xsd", "compiled", "bxsd", "failures")

    def __init__(self, dfa, xsd=None, compiled=None, bxsd=None,
                 failures=()):
        self.dfa = dfa
        self.xsd = xsd
        self.compiled = compiled
        self.bxsd = bxsd
        self.failures = list(failures)


def default_arrows():
    """The real translation arrows (tests may override any of them)."""
    return {
        "dfa_to_xsd": dfa_based_to_xsd,
        "xsd_to_dfa": xsd_to_dfa_based,
        "dfa_to_bxsd": dfa_based_to_bxsd,
        "bxsd_to_dfa": bxsd_to_dfa_based,
        "hybrid": hybrid_dfa_based_to_bxsd,
        "ksuffix_to_bxsd": ksuffix_dfa_based_to_bxsd,
        "ksuffix_to_dfa": ksuffix_bxsd_to_dfa_based,
    }


class DifferentialOracle:
    """Runs every validator and round-trip over one case.

    Args:
        roundtrips: run the metamorphic schema round-trips.
        max_k: largest ``k`` probed by the k-suffix detector.
        witness_tries: documents sampled per side when hunting a
            concrete round-trip counterexample.
        arrows: optional override dict for the translation arrows
            (see :func:`default_arrows`).
        incremental: run the incremental-revalidation edit-storm leg
            (see :meth:`check_incremental`).
        incremental_edits: random edits applied per document by that leg.
    """

    def __init__(self, roundtrips=True, max_k=3, witness_tries=20,
                 arrows=None, incremental=True, incremental_edits=8):
        self.roundtrips = roundtrips
        self.max_k = max_k
        self.witness_tries = witness_tries
        self.incremental = incremental
        self.incremental_edits = incremental_edits
        self.arrows = dict(default_arrows())
        if arrows:
            self.arrows.update(arrows)

    # -- preparation -------------------------------------------------------
    def prepare(self, dfa):
        """Translate one schema to every validating corner.

        A corner whose translation crashes is recorded as a ``crash``
        disagreement in ``prepared.failures`` and skipped by the
        document checks; the others still run.
        """
        from repro.engine import compile_xsd

        prepared = PreparedCase(dfa)
        xsd, error = _attempt(lambda: self.arrows["dfa_to_xsd"](dfa))
        if error is not None:
            prepared.failures.append(
                Disagreement("crash", "prepare.xsd", error)
            )
            return prepared
        prepared.xsd = xsd
        compiled, error = _attempt(lambda: compile_xsd(xsd))
        if error is not None:
            prepared.failures.append(
                Disagreement("crash", "prepare.compiled", error)
            )
        else:
            prepared.compiled = compiled
        bxsd, error = _attempt(lambda: self.arrows["dfa_to_bxsd"](dfa))
        if error is not None:
            prepared.failures.append(
                Disagreement("crash", "prepare.bonxai", error)
            )
        else:
            prepared.bxsd = bxsd
        return prepared

    # -- differential ------------------------------------------------------
    def check_document(self, prepared, document):
        """All validators on one document; returns disagreements."""
        from repro.engine import StreamingValidator

        text = write_document(document)
        reports = {}
        crashes = {}

        def run(name, thunk):
            value, error = _attempt(thunk)
            if error is not None:
                crashes[name] = error
            else:
                reports[name] = value

        if prepared.xsd is not None:
            run("tree", lambda: validate_xsd(prepared.xsd, document))
        if prepared.compiled is not None:
            validator = StreamingValidator(prepared.compiled)
            run("streaming_tree",
                lambda: validator.validate_events(document.events()))
            run("streaming_text",
                lambda: validator.validate_events(iter_events(text)))
            run("streaming_dense",
                lambda: validator.validate_bytes(text.encode("utf-8")))
        run("dfa", lambda: prepared.dfa.validate(document))
        if prepared.bxsd is not None:
            run("bonxai", lambda: prepared.bxsd.validate(document))

        if crashes:
            detail = "; ".join(
                f"{name}: {error}" for name, error in sorted(crashes.items())
            )
            return [Disagreement(
                "crash", ",".join(sorted(crashes)), detail, text
            )]

        out = []
        verdicts = {
            name: _verdict(report) for name, report in reports.items()
        }
        if len(set(verdicts.values())) > 1:
            out.append(Disagreement(
                "verdict", "documents",
                "validators disagree: " + ", ".join(
                    f"{name}={'valid' if ok else 'invalid'}"
                    for name, ok in sorted(verdicts.items())
                ),
                text,
            ))
        tree = reports.get("tree")
        if tree is not None:
            for name in ("streaming_tree", "streaming_text",
                         "streaming_dense"):
                report = reports.get(name)
                if report is None:
                    continue
                if sorted(report.violations) != sorted(tree.violations):
                    out.append(Disagreement(
                        "violations", name,
                        f"violation multisets differ: tree="
                        f"{sorted(tree.violations)} vs {name}="
                        f"{sorted(report.violations)}",
                        text,
                    ))
                elif (report.typing != tree.typing
                        or list(report.typing) != list(tree.typing)):
                    out.append(Disagreement(
                        "typing", name,
                        f"typings differ: tree={tree.typing} vs "
                        f"{name}={report.typing}",
                        text,
                    ))
        return out

    # -- incremental revalidation ------------------------------------------
    def check_incremental(self, prepared, document, rng, edits=None):
        """Edit-storm cross-check of incremental vs full revalidation.

        A seeded stream of structurally-applicable random patch ops is
        applied in lockstep to a raw copy of ``document`` (revalidated
        from scratch after every edit) and to a
        :class:`~repro.engine.incremental.ValidatedDocument`.  Verdict,
        violation multiset, and typing (content and order) must agree
        after every single edit; the first mismatch is returned with
        the post-edit document as the counterexample.
        """
        from repro.engine import ValidatedDocument
        from repro.xmlmodel.patch import clone_element, random_op
        from repro.xmlmodel.tree import XMLDocument

        if prepared.xsd is None or prepared.compiled is None:
            return []
        edits = self.incremental_edits if edits is None else edits
        full_doc = XMLDocument(clone_element(document.root))
        handle, error = _attempt(lambda: ValidatedDocument(
            XMLDocument(clone_element(document.root)), prepared.compiled
        ))
        if error is not None:
            return [Disagreement(
                "crash", "incremental", error, write_document(document)
            )]
        # Known labels plus one stranger, so storms also exercise the
        # unrecognized-child (skipped subtree) path.
        labels = list(prepared.compiled.names) or [document.root.name]
        labels.append("zz-stranger")
        for __ in range(edits):
            op = random_op(full_doc.root, rng, labels)
            __, full_error = _attempt(lambda: op.apply_full(full_doc))
            __, inc_error = _attempt(lambda: op.apply_incremental(handle))
            if full_error is not None or inc_error is not None:
                return [Disagreement(
                    "crash", "incremental",
                    f"{op!r}: full={full_error}, incremental={inc_error}",
                    write_document(full_doc),
                )]
            full, error = _attempt(
                lambda: validate_xsd(prepared.xsd, full_doc)
            )
            if error is not None:
                return [Disagreement(
                    "crash", "incremental", f"after {op!r}: {error}",
                    write_document(full_doc),
                )]
            inc = handle.report()
            text = write_document(full_doc)
            if handle.valid != (not full.violations):
                return [Disagreement(
                    "verdict", "incremental",
                    f"after {op!r}: full="
                    f"{'valid' if not full.violations else 'invalid'}, "
                    f"incremental="
                    f"{'valid' if handle.valid else 'invalid'}",
                    text,
                )]
            if sorted(inc.violations) != sorted(full.violations):
                return [Disagreement(
                    "violations", "incremental",
                    f"after {op!r}: full={sorted(full.violations)} vs "
                    f"incremental={sorted(inc.violations)}",
                    text,
                )]
            if (inc.typing != full.typing
                    or list(inc.typing) != list(full.typing)):
                return [Disagreement(
                    "typing", "incremental",
                    f"after {op!r}: full={full.typing} vs "
                    f"incremental={inc.typing}",
                    text,
                )]
        return []

    # -- metamorphic -------------------------------------------------------
    def check_roundtrips(self, dfa, explain=True):
        """Push the schema around the square; returns disagreements.

        ``explain=False`` skips the certificate and witness search of a
        disagreement (the shrinker only asks whether one reproduces).
        """
        out = []
        for name in ROUND_TRIPS:
            back, error = _attempt(lambda: self._roundtrip(name, dfa))
            if error is not None:
                out.append(Disagreement(
                    "crash", f"roundtrip.{name}", error
                ))
                continue
            if back is None:  # trip not applicable (not k-suffix)
                continue
            pair, error = _attempt(
                lambda: dfa_xsd_counterexample_pair(dfa, back)
            )
            if error is not None:
                out.append(Disagreement(
                    "crash", f"roundtrip.{name}.equivalence", error
                ))
                continue
            if pair is not None:
                path, detail = pair
                summary = f"languages differ at /{'/'.join(path)}: {detail}"
                if not explain:
                    out.append(Disagreement(
                        "roundtrip", f"roundtrip.{name}", summary
                    ))
                    continue
                certificate = self._certificate(dfa, back)
                if certificate is not None:
                    summary += f" [{certificate.summary()}]"
                out.append(Disagreement(
                    "roundtrip", f"roundtrip.{name}",
                    summary,
                    self._witness(dfa, back),
                    certificate=certificate,
                ))
        return out

    def _certificate(self, left, right):
        """A separator-based :class:`~repro.diff.DiffCertificate` for one
        equivalence finding, or ``None`` when the diff layer fails.

        ``BudgetExceeded`` still bubbles (via :func:`_attempt`): the
        sweep's budget is a stop condition, not something certificate
        construction may silently absorb.
        """
        from repro.diff import schema_diff

        diff, __ = _attempt(lambda: schema_diff(
            left, right, max_certificates=1, witnesses=False,
        ))
        if diff is None or diff.equivalent:
            return None
        return diff.certificates[0]

    def _roundtrip(self, name, dfa):
        arrows = self.arrows
        if name == "bxsd":
            return arrows["bxsd_to_dfa"](arrows["dfa_to_bxsd"](dfa))
        if name == "xsd":
            return arrows["xsd_to_dfa"](arrows["dfa_to_xsd"](dfa))
        if name == "hybrid":
            return arrows["bxsd_to_dfa"](arrows["hybrid"](dfa))
        k = detect_k_suffix(dfa, max_k=self.max_k)
        if k is None:
            return None
        return arrows["ksuffix_to_dfa"](
            arrows["ksuffix_to_bxsd"](dfa, k)
        )

    def _witness(self, left, right):
        """XML text of a document in exactly one language, or ``None``.

        The abstract counterexample path from the equivalence check
        names *where* the languages differ; for a repro humans (and the
        corpus) can replay, sample documents from each side and keep
        the first the other side rejects.
        """
        rng = random.Random(0xC0FFEE)
        for source, judge in ((left, right), (right, left)):
            try:
                generator = DocumentGenerator(source)
            except ReproError:
                continue
            for __ in range(self.witness_tries):
                document = generator.generate(rng, max_depth=4)
                verdict, error = _attempt(
                    lambda: not judge.validate(document)
                )
                if error is None and not verdict:
                    return write_document(document)
        return None

    # -- whole cases -------------------------------------------------------
    def check_case(self, case):
        """Round-trips plus every document of one generated case."""
        prepared = self.prepare(case.dfa)
        out = list(prepared.failures)
        if self.roundtrips:
            out.extend(self.check_roundtrips(case.dfa))
        for doc_index, (__, document) in enumerate(case.documents):
            out.extend(self.check_document(prepared, document))
            if self.incremental:
                out.extend(self.check_incremental(
                    prepared, document,
                    incremental_rng(case.seed, case.index, doc_index),
                ))
        return out


def incremental_rng(sweep_seed, case_index, doc_index):
    """The deterministic RNG for one document's incremental edit storm."""
    return random.Random(
        f"incremental-{sweep_seed}-{case_index}-{doc_index}"
    )


def _verdict(report):
    """Coerce any validator's report shape to a boolean verdict."""
    if isinstance(report, list):
        return not report
    return report.valid


def _attempt(thunk):
    """Run ``thunk``; returns ``(value, None)`` or ``(None, error str)``.

    ``BudgetExceeded`` is deliberately re-raised: running out of the
    sweep's resource budget is a stop condition, not a disagreement.
    """
    try:
        return thunk(), None
    except BudgetExceeded:
        raise
    except ReproError as error:
        return None, f"{type(error).__name__}: {error}"
    except Exception as error:  # noqa: BLE001 — crashes are findings here
        return None, f"{type(error).__name__}: {error}"
