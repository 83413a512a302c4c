"""edit-storm: open the E15 document, then replay a patch storm on it.

Set-up builds the E15 document (``build_corpus`` of
``benchmarks/bench_e11_validation.py``, ~137k elements) and compiles the
paper's Figure 3 XSD from its text.  It generates a storm of
``repro.xmlmodel.patch.random_op`` operations (from a fixed stream, see
``STORM_SEED``; the seed drives the class documents), replaying each with
``apply_full`` on the build tree so every op resolves when it is replayed,
and computes ``validate_xsd`` answers for the opened document and at each
checkpoint of the storm.  It also generates small documents of the five
classes (the corpus generators at ``Settings.edit_class_sizes``).  The
oracle reads the Figure 3 XSD with the same ``read_xsd`` as the program,
so the verdict on the ~7k-element document is cross-checked against the
paper's Figure 5 BonXai schema, validated by the BonXai validator; the
class documents' verdicts are cross-checked against their formal models.

Set-up then opens the E15 text (``parse_document`` plus
``ValidatedDocument``) for the storm; the timed phases are rounds until
``--seconds`` is spent, each opening a ~7k-element document of the same
shape (``cold_ms``, median open) and every class document (per-class
throughput, median open each), with the storm cut into ``edit_windows``
windows spread over the rounds.  Every op's ``apply_incremental`` is
timed alone; ``op.p50_ms`` and ``op.p99_ms`` are percentiles over all of
the storm's ops.  Every sample is taken at the
reference host speed by the kernel samples just before and just after it
(one per open, one per ``KERNEL_EVERY`` ops), and every open and every
window starts from a
clean collector state (:func:`perfbench.common.quiesce`): otherwise an
open's collections would scan what the storm left behind, which depends
on how far the storm has got.  A single open of the
137k-element document takes seconds, too long to sample steadily on a
shared host, so its time is reported in the run's lines and in
``incremental.build_ns_per_el``.

Checks run outside the timed calls: ``handle.report()`` against the oracle
after each checkpoint window and after every open.
"""

from __future__ import annotations

import time

from perfbench import inputs, layers
from perfbench.common import Outcome, finish_trace, quiesce
from perfbench.config import CLASSES, EDIT_CHECKS, EDIT_OPS
from perfbench.corpus import class_corpus
from perfbench.ledger import Ledger, timed
from perfbench.stats import geomean, quantile

REFRESH = 2000
"""Ops generated between node-snapshot refreshes (the walk is O(n))."""

MIN_SAMPLES = 3
OPENS_PER_ROUND = 3
KERNEL_EVERY = 50
"""Storm ops between kernel samples (an op is too short to get its own)."""
STORM_SEED = 0
"""The storm comes from a fixed stream, as the schema catalog does: its
tail is a few ``ReplaceChild`` ops on large subtrees, 0.7-2% of the ops
depending on the storm's course, so a seeded storm's ``op.p99_ms``
jumps between the cheap and the expensive ops from seed to seed."""

_KINDS = {"AddChild": "add", "RemoveChild": "remove",
          "ReplaceChild": "replace", "SetAttribute": "set_attribute",
          "SetText": "set_text"}


def _oracle(xsd, document):
    from repro.xsd import validate_xsd

    report = validate_xsd(xsd, document)
    return report.valid, sorted(str(v) for v in report.violations)


def make_storm(document, xsd, labels, rng, count, marks):
    """``count`` ops applied to ``document`` with ``apply_full``; returns
    ``(ops, {op count: expected answer})`` for the checkpoint ``marks``."""
    from repro.errors import SchemaError
    from repro.xmlmodel.patch import random_op, snapshot_paths

    ops, expected = [], {}
    nodes, drawn = None, REFRESH
    while len(ops) < count:
        if drawn >= REFRESH:
            nodes, drawn = snapshot_paths(document.root), 0
        op = random_op(document.root, rng, labels, nodes=nodes)
        drawn += 1
        try:
            op.apply_full(document)
        except (SchemaError, IndexError, ValueError):
            continue  # a stale snapshot path: draw again
        ops.append(op)
        if len(ops) in marks:
            expected[len(ops)] = _oracle(xsd, document)
    return ops, expected


def _open(text, schema, ledger):
    from repro.engine import ValidatedDocument
    from repro.xmlmodel import parse_document

    tree = timed(ledger, "parser.tree", parse_document, text)[0]
    return timed(ledger, "incremental.build", ValidatedDocument, tree,
                 schema)[0]


class Inputs:
    """Everything set-up produces."""

    def __init__(self, seed, settings):
        from benchmarks.bench_e11_validation import build_corpus
        from repro.bonxai import compile_schema, parse_bonxai
        from repro.paperdata import FIGURE3_XSD, FIGURE5_BONXAI
        from repro.xmlmodel import write_document
        from perfbench import gen

        document = build_corpus(sizes=(settings.edit_target,))[
            settings.edit_target
        ]
        self.elements = document.size()
        self.text = write_document(document)
        self.xsd, self.compiled = inputs.compile_text("xsd", FIGURE3_XSD)
        self.initial = _oracle(self.xsd, document)
        small = build_corpus(sizes=(settings.edit_open_target,))[
            settings.edit_open_target
        ]
        self.small_elements = small.size()
        self.small_text = write_document(small)
        self.small_expected = _oracle(self.xsd, small)
        self.small_bonxai_valid = compile_schema(
            parse_bonxai(FIGURE5_BONXAI)
        ).validate(small).valid
        windows = settings.edit_windows
        self.window = settings.edit_ops // windows
        every = max(1, windows // EDIT_CHECKS)
        self.marks = {self.window * w for w in range(every, windows + 1,
                                                       every)}
        self.marks.add(self.window * windows)
        labels = list(self.compiled.names) + ["zz-stranger"]
        self.ops, self.expected = make_storm(
            document, self.xsd, labels, gen.seeded(STORM_SEED, "edit-storm"),
            self.window * windows, self.marks,
        )
        families, self.schemas = gen.catalog()
        self.docs, self.doc_expected, self.doc_verdicts = class_corpus(
            seed, "edit-storm-docs", settings.edit_class_sizes, families,
            settings,
        )
        self.doc_compiled = {
            s.label: inputs.compile_text(s.kind, s.text)[1]
            for s in self.schemas
        }


def open_storm_document(data, outcome, ledger=None):
    """Open the E15 document (set-up); returns ``(handle, seconds)``."""
    handle, ns = timed(ledger, "edit.open", _open, data.text, data.compiled,
                       ledger)
    outcome.check(inputs.agrees(handle.report(), data.initial))
    return handle, ns / 1e9


def measure(data, handle, seconds, settings, outcome, ledger=None):
    """The timed phases on an opened E15 ``handle``; returns
    ``(figures at the reference speed, extras)``."""
    from repro.observability import default_registry

    started = time.perf_counter()
    host = outcome.host
    registry = default_registry()
    counters = ("engine.incremental.content_replays",
                "engine.incremental.memo_hits")
    before = [registry.counter(name).value for name in counters]
    windows = [data.ops[i:i + data.window]
               for i in range(0, len(data.ops), data.window)]
    # Raw samples as (ns, index of the kernel sample taken just before).
    window_ns = []
    by_kind = {kind: [] for kind in EDIT_OPS}
    resolve_ns = []
    applied = 0

    def run_window(index):
        nonlocal applied
        from repro.xmlmodel.patch import resolve

        timings = []
        failures = 0
        quiesce()
        for number, op in enumerate(windows[index]):
            if number % KERNEL_EVERY == 0:
                kernel = host.sample()
            kind = _KINDS[type(op).__name__]
            if ledger is not None:
                resolve_ns.append(timed(ledger, "patch.resolve", resolve,
                                        handle.document.root, op.sel)[1])
            try:
                __, ns = timed(ledger, f"edit.{kind}", op.apply_incremental,
                               handle)
            except Exception:  # counted as a failed operation
                failures += 1
                continue
            timings.append((ns, kernel))
            by_kind[kind].append(ns)
        applied += len(windows[index])
        ok_count = len(windows[index]) - failures
        if applied in data.expected:
            if not inputs.agrees(handle.report(), data.expected[applied]):
                failures, ok_count = len(windows[index]), 0
        outcome.check(True, ok_count)
        outcome.check(False, failures)
        window_ns.append(timings)

    docs = data.docs
    samples = [[] for __ in docs]
    open_ns = []
    next_window = 0
    rounds = 0
    while True:
        for __ in range(OPENS_PER_ROUND):
            quiesce()
            kernel = host.sample()
            opened, ns = timed(ledger, "edit.open", _open, data.small_text,
                               data.compiled, ledger)
            open_ns.append((ns, kernel))
            outcome.check(inputs.agrees(opened.report(),
                                        data.small_expected))
        for index, doc in enumerate(docs):
            elapsed = (time.perf_counter() - started) / seconds
            while next_window < len(windows) and \
                    elapsed >= next_window / len(windows):
                run_window(next_window)
                next_window += 1
            quiesce()
            kernel = host.sample()
            opened, ns = timed(ledger, "edit.class_open", _open, doc.text,
                               data.doc_compiled[doc.schema.label], ledger)
            samples[index].append((ns, kernel))
            outcome.check(inputs.agrees(opened.report(),
                                        data.doc_expected[index]))
        rounds += 1
        if rounds >= MIN_SAMPLES and time.perf_counter() - started >= seconds:
            break
    while next_window < len(windows):
        run_window(next_window)
        next_window += 1
    host.sample()  # the kernel after the last item
    after = [registry.counter(name).value for name in counters]

    def at_reference(raw):
        return [host.at_reference(ns, kernel) for ns, kernel in raw]

    figures = {"cold_ms": quantile(at_reference(open_ns), 0.5) / 1e6}
    for cls in CLASSES:
        rates = [doc.elements / (quantile(at_reference(samples[i]), 0.5)
                                 / 1e9)
                 for i, doc in enumerate(docs) if doc.cls == cls]
        figures[f"validate.{cls}_el_per_s"] = geomean(rates)
    ops_ns = at_reference([ns for window in window_ns for ns in window])
    figures["op.p50_ms"] = quantile(ops_ns, 0.5) / 1e6
    figures["op.p99_ms"] = quantile(ops_ns, 0.99) / 1e6
    extra = {
        "by_kind": by_kind,
        "resolve_ns": resolve_ns,
        "counters": [b - a for a, b in zip(before, after)],
    }
    return figures, extra


def run(seed, seconds, settings, trace, out_dir, started):
    with Outcome() as outcome:
        _run(outcome, seed, seconds, settings, trace, out_dir, started)
    return outcome


def _run(outcome, seed, seconds, settings, trace, out_dir, started):
    data = Inputs(seed, settings)
    inputs.cross_check(outcome, [data.small_expected] + data.doc_expected,
                       [data.small_bonxai_valid] + data.doc_verdicts)
    handle, open_s = open_storm_document(data, outcome)
    quiesce()
    setup = time.perf_counter() - started
    figures, __ = measure(data, handle, seconds, settings, outcome)
    outcome.e2e.update(figures)
    outcome.e2e["setup_s"] = setup * outcome.host.typical_scale()
    outcome.lines.append(
        f"edit-storm: {data.elements} elements (opened in {open_s:.2f} s "
        f"during set-up), {len(data.ops)} ops in {settings.edit_windows} "
        f"windows, {len(data.docs)} class documents"
    )
    if not trace:
        return
    ledger = Ledger()
    quiesce()
    handle, __ = open_storm_document(data, outcome, ledger)
    build_ns = next(end - start for (__, ___, name, start, end, ____)
                    in reversed(ledger.spans)
                    if name == "incremental.build")
    traced, extra = measure(data, handle, seconds, settings, outcome, ledger)
    layer = outcome.layers
    layer["incremental.build_ns_per_el"] = build_ns / data.elements
    layer["patch.resolve_us"] = quantile(extra["resolve_ns"], 0.5) / 1e3
    for kind, timings in extra["by_kind"].items():
        layer[f"incremental.{kind}_p50_us"] = (
            quantile(timings, 0.5) / 1e3 if timings else 0.0
        )
    replays, hits = extra["counters"]
    layer["incremental.content_replays"] = float(replays)
    layer["incremental.memo_hits"] = float(hits)
    items = [(d.cls, d.text, data.doc_compiled[d.schema.label], d.elements)
             for d in data.docs]
    doc_metrics, shares, notes = layers.document_layers(items, ledger)
    layer.update(doc_metrics)
    layer.update(layers.schema_layers(data.schemas, ledger))
    small = min(data.docs, key=lambda d: abs(d.elements - 2000))
    layer["batch.isolate_overhead_us"] = layers.batch_overhead_us(
        data.doc_compiled[small.schema.label], small.text, ledger
    )
    outcome.lines.extend(f"  unmeasurable: {note}" for note in notes)
    finish_trace(outcome, "edit-storm", seed, ledger, figures, traced,
                 out_dir, extra={"class_shares": shares,
                                 "unmeasurable_shares": notes})
