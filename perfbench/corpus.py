"""corpus: compile schema texts cold, then validate documents one at a time.

Set-up builds the schema catalog and a seeded corpus -- one document per
size of ``Settings.corpus_sizes`` in each of the five classes -- computes
every expected answer with the tree oracle (each verdict cross-checked
against the generator's formal model), and warms the code paths; it runs
``SETUPS`` times and ``setup_s`` is the median, at the reference host
speed of the timed phase (:meth:`HostSpeed.typical_scale`).  The timed
phases:

rounds until ``--seconds`` is spent (at least ``MIN_SAMPLES``); in each,
every schema text is compiled to a ``CompiledSchema`` through a fresh
``SchemaCache``, and every document is validated with
``StreamingValidator.validate(text)`` and checked against its expected
answer -- a document below ``REPEAT_ELEMENTS`` elements more than once.
The samples of one item thus spread over the whole run.

Each sample starts from a clean collector state
(:func:`perfbench.common.quiesce`) and is taken at the reference host
speed, by the kernel times measured just before and just after it
(:meth:`perfbench.hostspeed.HostSpeed.at_reference`); an item's time is
the median of its samples.  A class's throughput is the geometric mean
over its documents of elements per second; ``cold_ms`` is the geometric
mean over the schemas of their compile times.
"""

from __future__ import annotations

import time

from perfbench import gen, inputs, layers
from perfbench.common import Outcome, finish_trace, quiesce
from perfbench.config import CLASSES
from perfbench.ledger import Ledger, timed
from perfbench.stats import geomean, quantile

MIN_SAMPLES = 3
MAX_SAMPLES = 60
SETUPS = 3
REPEAT_ELEMENTS = 5000
"""A document of ``n`` elements is validated ``REPEAT_ELEMENTS // n``
times a round (at least once, at most ``MAX_REPEATS`` times): small
documents are cheap, and their extra samples steady the figures they
carry -- ``op.p50_ms`` sits among the 1.2k-element documents."""
MAX_REPEATS = 4


def class_corpus(seed, stream, sizes, families, settings):
    """Seeded class documents, their expected answers and the formal
    models' verdicts (for :func:`perfbench.inputs.cross_check`)."""
    from repro.xmlmodel import parse_document

    docs = gen.class_documents(
        gen.seeded(seed, stream), families, sizes,
        lambda schema, text: schema.model.is_valid(parse_document(text)),
    )
    expected, verdicts = inputs.answers(
        [(d.schema.kind, d.schema.text, d.text, d.schema.label) for d in docs],
        settings.oracle_workers,
    )
    if settings.flip_first_answer:
        expected[0] = inputs.flipped(expected[0])
    return docs, expected, verdicts


def measure(schemas, docs, expected, seconds, settings, outcome, ledger=None):
    """The timed phases; returns ``(figures at the reference speed,
    compiled by label)``."""
    from repro.engine import StreamingValidator

    started = time.perf_counter()
    host = outcome.host
    # Raw samples as (ns, index of the kernel sample taken just before).
    compile_ns = {s.label: [] for s in schemas}
    compiled = {}
    validators = {}
    samples = [[] for __ in docs]

    def compile_once(schema):
        quiesce()
        kernel = host.sample()
        try:
            (__, result), ns = timed(
                ledger, "corpus.compile", inputs.compile_text, schema.kind,
                schema.text, ledger, schema=schema.label,
            )
        except Exception:  # counted as a failed operation
            outcome.check(False)
            return
        outcome.check(result is not None)
        compile_ns[schema.label].append((ns, kernel))
        if schema.label not in compiled:
            compiled[schema.label] = result
            validators[schema.label] = StreamingValidator(result)

    def validate_once(index):
        doc = docs[index]
        quiesce()
        kernel = host.sample()
        try:
            report, ns = timed(ledger, "corpus.validate",
                               validators[doc.schema.label].validate,
                               doc.text, cls=doc.cls, elements=doc.elements)
        except Exception:  # counted as a failed operation
            outcome.check(False)
            return
        samples[index].append((ns, kernel))
        outcome.check(inputs.agrees(report, expected[index]))

    # Rounds -- every schema compiled cold, every document validated --
    # until the time is spent, so each item's samples spread over the run.
    order = list(range(len(docs)))
    repeats = [min(MAX_REPEATS, max(1, REPEAT_ELEMENTS // d.elements))
               for d in docs]
    deadline = started + seconds
    rounds = 0
    while rounds < MIN_SAMPLES or (time.perf_counter() < deadline
                                   and rounds < MAX_SAMPLES):
        for schema in schemas:
            compile_once(schema)
        for repeat in range(MAX_REPEATS):
            for index in order:
                if repeat < repeats[index]:
                    validate_once(index)
        rounds += 1
    host.sample()  # the kernel after the last item

    def typical_ns(raw):
        """An item's time: the median of its samples at the reference
        speed."""
        return quantile([host.at_reference(ns, kernel)
                         for ns, kernel in raw], 0.5) if raw else None

    figures = {}
    typical = [typical_ns(s) for s in samples]
    for cls in CLASSES:
        rates = [docs[i].elements / (typical[i] / 1e9)
                 for i in order if docs[i].cls == cls and typical[i]]
        figures[f"validate.{cls}_el_per_s"] = geomean(rates) if rates else 0.0
    latencies = [t / 1e6 for t in typical if t]
    figures["op.p50_ms"] = quantile(latencies, 0.5)
    figures["op.p99_ms"] = quantile(latencies, 0.99)
    figures["cold_ms"] = geomean(typical_ns(v) / 1e6
                                 for v in compile_ns.values() if v)
    return figures, compiled


def prepare(seed, settings):
    """Set-up: catalog, documents, expected answers, warmed code paths."""
    from repro.engine import StreamingValidator

    families, schemas = gen.catalog()
    docs, expected, verdicts = class_corpus(seed, "corpus",
                                            settings.corpus_sizes, families,
                                            settings)
    warm = {s.label: inputs.compile_text(s.kind, s.text)[1] for s in schemas}
    for cls in CLASSES:
        index = min((i for i, d in enumerate(docs) if d.cls == cls),
                    key=lambda i: docs[i].elements)
        StreamingValidator(warm[docs[index].schema.label]).validate(
            docs[index].text
        )
    return schemas, docs, expected, verdicts


def run(seed, seconds, settings, trace, out_dir, started):
    with Outcome() as outcome:
        _run(outcome, seed, seconds, settings, trace, out_dir, started)
    return outcome


def _run(outcome, seed, seconds, settings, trace, out_dir, started):
    # Set up SETUPS times (same seed, same inputs) and report the median,
    # plus the interpreter start-up before the first.
    durations = []
    lead = time.perf_counter() - started
    for __ in range(SETUPS):
        begun = time.perf_counter()
        schemas, docs, expected, verdicts = prepare(seed, settings)
        durations.append(time.perf_counter() - begun)
    inputs.cross_check(outcome, expected, verdicts)
    quiesce()
    figures, compiled = measure(schemas, docs, expected, seconds, settings,
                                outcome)
    outcome.e2e.update(figures)
    outcome.e2e["setup_s"] = ((lead + quantile(durations, 0.5))
                              * outcome.host.typical_scale())
    outcome.lines.append(
        f"corpus: {len(schemas)} schemas, {len(docs)} documents, "
        f"{sum(d.elements for d in docs)} elements"
    )
    if not trace:
        return
    ledger = Ledger()
    quiesce()
    traced, compiled = measure(schemas, docs, expected, seconds, settings,
                               outcome, ledger)
    items = [(d.cls, d.text, compiled[d.schema.label], d.elements)
             for d in docs]
    doc_metrics, shares, notes = layers.document_layers(items, ledger)
    outcome.layers.update(doc_metrics)
    outcome.layers.update(layers.schema_layers(schemas, ledger))
    small = min(docs, key=lambda d: abs(d.elements - 2000))
    outcome.layers["batch.isolate_overhead_us"] = layers.batch_overhead_us(
        compiled[small.schema.label], small.text, ledger
    )
    # The serve layers: a short serve-mix plan against a daemon with
    # --access-log (serve.*, cache.hit_ratio, batch.dense_share).
    from perfbench import serve_mix

    plan = serve_mix.Plan(seed, settings.serve_layer_seconds, settings,
                          outcome)
    serve_mix.serve_layers(plan, outcome, ledger, out_dir)
    for cls, row in shares.items():
        top = max(row, key=row.get) if row else "-"
        outcome.lines.append(
            f"  {cls}: largest layer {top}; shares of validate(text) "
            + ", ".join(f"{layer} {share:.2f}" for layer, share in row.items())
        )
    outcome.lines.extend(f"  unmeasurable: {note}" for note in notes)
    finish_trace(outcome, "corpus", seed, ledger, figures, traced, out_dir,
                 extra={"class_shares": shares, "unmeasurable_shares": notes})
