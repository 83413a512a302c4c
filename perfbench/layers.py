"""Per-layer probes of the traced run, taken from outside the program.

Each probe times calls into one layer's public functions on the
workload's own inputs, one ledger span per call, and keeps the fastest
of ``PROBE_REPEATS`` calls, each from a clean collector state (as the
end-to-end samples are).  The fused dense loop cannot be timed from
inside without perturbing it, so two layers are taken by difference:

* ``streaming.steps`` is ``validate_bytes`` minus the tokenizer work the
  dense scan does -- ``body_start`` + ``split_body``, then
  ``parse_chunk`` once per distinct chunk (the scan's chunk memo parses
  each once) -- on documents the fast path commits;
* ``streaming.wasted`` is ``validate`` minus the compat rerun alone
  (``validate_events(iter_events(text))``) on documents that fall back.

The calls whose times are subtracted take turns, as do the two sides of
``batch.isolate_overhead_us``.

Each class's layer shares divide by the same probe's ``validate(text)``
time, so they compare figures taken moments apart.  A difference that
comes out negative (the layer is below the probes' noise) is reported
as 0 and named in the run's lines.
"""

from __future__ import annotations

import time
from itertools import islice

from perfbench.common import quiesce
from perfbench.config import CLASSES
from perfbench.ledger import timed
from perfbench.stats import geomean, quantile

PROBE_REPEATS = 3
"""Calls per probe; the fastest counts (neighbour load only adds time)."""
IDENTITY_REPEATS = 200
"""Identity-tier ``SchemaCache.get`` calls averaged per schema."""
BATCH_REPEATS = 15
"""Calls per side of ``batch.isolate_overhead_us``; the fastest counts."""

DOC_LAYERS = ("tokenizer.split", "tokenizer.tokens", "parser.events",
              "parser.tree", "streaming.steps", "streaming.compat",
              "streaming.wasted")
PATH_LAYERS = ("tokenizer.tokens", "streaming.steps", "streaming.wasted",
               "parser.events", "streaming.compat")


def _counter(name):
    from repro.observability import default_registry

    return default_registry().counter(name).value


def _best(ledger, name, function, *args):
    """``(result, fastest ns)`` over ``PROBE_REPEATS`` calls."""
    best = None
    for __ in range(PROBE_REPEATS):
        result = None  # so the collector frees the previous call's result
        quiesce()
        result, ns = timed(ledger, name, function, *args)
        best = ns if best is None else min(best, ns)
    return result, best


def _best_each(ledger, probes, repeats=PROBE_REPEATS):
    """Fastest ns of each ``(name, function)`` probe, their calls taking
    turns so that host drift hits all of them alike."""
    best = [None] * len(probes)
    for __ in range(repeats):
        for slot, (name, function) in enumerate(probes):
            quiesce()
            ns = timed(ledger, name, function)[1]
            best[slot] = ns if best[slot] is None else min(best[slot], ns)
    return best


def _parse_chunks(chunks, byte_ids, limits):
    """``parse_chunk`` on each chunk, interning names as the scan does."""
    from repro.xmlmodel.tokenizer import FallbackRequired, parse_chunk

    def name_id_of(name):
        interned = byte_ids.get(name)
        if interned is None:
            raise FallbackRequired()
        return interned

    for chunk in chunks:
        parse_chunk(chunk, limits, name_id_of)


class _Tally:
    """Per-class ``(ns, elements)`` sums of each document layer."""

    def __init__(self):
        self.sums = {}

    def add(self, layer, cls, ns, elements):
        key = (layer, cls)
        total_ns, total_el = self.sums.get(key, (0, 0))
        self.sums[key] = (total_ns + ns, total_el + elements)

    def ns_per_el(self, layer, cls=None):
        pairs = [v for (name, c), v in self.sums.items()
                 if name == layer and (cls is None or c == cls)]
        elements = sum(el for __, el in pairs)
        return sum(ns for ns, __ in pairs) / elements if elements else 0.0


def document_layers(items, ledger):
    """Probe tokenizer, parser and streaming layers on ``items``.

    ``items`` are ``(cls, text, compiled, elements)`` tuples.  Returns
    ``(metrics, shares, notes)``: ``shares[cls][layer]`` is the share of
    the class's ``validate(text)`` time spent in each layer on the path
    its documents took -- tokens and steps when the fast path committed;
    the wasted dense attempt, events and the compat loop otherwise.
    ``notes`` name the shares reported as 0 because their difference
    came out negative (:func:`perfbench.common.finish_trace` does the same
    for the metrics).
    """
    from repro.engine import StreamingValidator
    from repro.resilience.limits import resolve_limits
    from repro.xmlmodel import parse_document
    from repro.xmlmodel.parser import iter_events
    from repro.xmlmodel.tokenizer import (
        FallbackRequired,
        body_start,
        split_body,
    )

    limits = resolve_limits(None)
    tally = _Tally()  # the metrics, as the layers are defined
    path = _Tally()  # the layers on the path each document took
    whole = _Tally()  # validate(text), the shares' denominator
    chunks = {}  # cls -> (distinct, total)
    fallbacks = {}  # cls -> (fallbacks, dense attempts)
    for cls, text, compiled, elements in items:
        data = text.encode("utf-8")
        validator = StreamingValidator(compiled)
        # The probes whose times are subtracted take turns, and no probe's
        # result outlives it, so each difference compares like moments and
        # like heaps.
        with ledger.span("probe.document", cls=cls, elements=elements):
            before = (_counter("engine.dense.fallbacks"),
                      _counter("engine.dense.docs"))
            validator.validate_bytes(data)  # which path does it take?
            fell_back = _counter("engine.dense.fallbacks") > before[0]
            committed = _counter("engine.dense.docs") > before[1]
            probes = [
                ("streaming.validate_bytes",
                 lambda: validator.validate_bytes(data)),
                ("streaming.validate", lambda: validator.validate(text)),
                ("streaming.rerun",
                 lambda: validator.validate_events(iter_events(text))),
                ("tokenizer.split",
                 lambda: split_body(data, body_start(data))),
            ]
            try:
                split_body(data, body_start(data))
            except FallbackRequired:
                probes[3] = None
            if not fell_back:
                probes[2] = None
            distinct = ()
            if committed:
                distinct = list(dict.fromkeys(
                    islice(split_body(data, body_start(data)), 1, None)))
                probes.append(("tokenizer.parse_chunks",
                               lambda: _parse_chunks(distinct,
                                                     compiled.byte_ids,
                                                     limits)))
            taken = iter(_best_each(ledger, [p for p in probes if p]))
            bytes_ns, validate_ns = next(taken), next(taken)
            rerun_ns = next(taken) if probes[2] else None
            split_ns = next(taken) if probes[3] else None
            del distinct
            whole.add("validate", cls, validate_ns, elements)
            if fell_back:
                wasted = validate_ns - rerun_ns
                tally.add("streaming.wasted", cls, wasted, elements)
                path.add("streaming.wasted", cls, wasted, elements)
            if split_ns is not None:
                tally.add("tokenizer.split", cls, split_ns, elements)
            if committed:
                tokens_ns = split_ns + next(taken)
                tally.add("tokenizer.tokens", cls, tokens_ns, elements)
                tally.add("streaming.steps", cls, bytes_ns - tokens_ns,
                          elements)
                path.add("tokenizer.tokens", cls, tokens_ns, elements)
                path.add("streaming.steps", cls, bytes_ns - tokens_ns,
                         elements)
            events_ns = _best(ledger, "parser.events",
                              lambda: list(iter_events(text)))[1]
            tally.add("parser.events", cls, events_ns, elements)
            tally.add("parser.tree", cls,
                      _best(ledger, "parser.tree", parse_document, text)[1],
                      elements)
            events = list(iter_events(text))
            compat_ns = _best(ledger, "streaming.compat",
                              validator.validate_events, events)[1]
            del events
            tally.add("streaming.compat", cls, compat_ns, elements)
            if not committed:
                path.add("parser.events", cls, events_ns, elements)
                path.add("streaming.compat", cls, compat_ns, elements)
            done, attempts = fallbacks.get(cls, (0, 0))
            fallbacks[cls] = (done + fell_back,
                              attempts + fell_back + committed)
        pieces = data.split(b"<")[1:]
        distinct, total = chunks.get(cls, (0, 0))
        chunks[cls] = (distinct + len(set(pieces)), total + len(pieces))

    notes = []
    metrics = {f"{layer}_ns_per_el": tally.ns_per_el(layer)
               for layer in DOC_LAYERS}
    for cls in CLASSES:
        distinct, total = chunks.get(cls, (0, 0))
        metrics[f"tokenizer.memo_hit_ratio.{cls}"] = (
            1 - distinct / total if total else 0.0
        )
        done, attempts = fallbacks.get(cls, (0, 0))
        metrics[f"streaming.fallback_ratio.{cls}"] = (
            done / attempts if attempts else 0.0
        )
    shares = {}
    for cls in CLASSES:
        denominator = whole.ns_per_el("validate", cls)
        if not denominator:
            continue
        shares[cls] = {}
        for layer in PATH_LAYERS:
            if (layer, cls) not in path.sums:
                continue
            share = path.ns_per_el(layer, cls) / denominator
            if share < 0:
                notes.append(f"{cls}: {layer} share {share:.2f} is below "
                             "the probes' noise; reported as 0")
                share = 0.0
            shares[cls][layer] = share
    return metrics, shares, notes


def schema_layers(schemas, ledger):
    """Probe schema front ends, translation, compiler and cache layers.

    ``schemas`` are :class:`perfbench.gen.Schema` objects.  Millisecond
    figures are geometric means over the schemas that use the layer.
    """
    from repro.automata.minimize import minimize
    from repro.bonxai import compile_schema, parse_bonxai
    from repro.engine import SchemaCache, compile_xsd, schema_fingerprint
    from repro.regex.derivatives import to_dfa
    from repro.translation import (
        bxsd_to_dfa_based,
        dfa_based_to_xsd,
        dtd_to_bxsd,
    )
    from repro.xmlmodel import parse_dtd
    from repro.xsd import read_xsd
    from repro.xsd.typednames import split_typed_name

    from perfbench.inputs import compile_text

    ms = {name: [] for name in (
        "schema.parse", "bonxai.compile", "translation.alg2",
        "translation.alg4", "compiler.compile_xsd", "compiler.to_dfa",
        "compiler.minimize", "compile.ordered", "compile.unordered",
    )}
    fingerprint_us = []
    identity_us = []
    states_max = 0
    dense = 0
    for schema in schemas:
        with ledger.span("probe.schema", schema=schema.label):
            __, ns = _best(ledger, "schema.compile_text", compile_text,
                           schema.kind, schema.text)
            family = "compile.ordered" if schema.ordered else \
                "compile.unordered"
            ms[family].append(ns / 1e6)
            if schema.kind == "xsd":
                xsd, ns = _best(ledger, "schema.parse", read_xsd, schema.text)
                ms["schema.parse"].append(ns / 1e6)
            else:
                if schema.kind == "dtd":
                    dtd, ns = _best(ledger, "schema.parse", parse_dtd,
                                    schema.text)
                    bxsd = dtd_to_bxsd(dtd)
                else:
                    parsed, ns = _best(ledger, "schema.parse", parse_bonxai,
                                       schema.text)
                    bonxai, compile_ns = _best(ledger, "bonxai.compile",
                                               compile_schema, parsed)
                    ms["bonxai.compile"].append(compile_ns / 1e6)
                    bxsd = bonxai.bxsd
                ms["schema.parse"].append(ns / 1e6)
                dfa, ns = _best(ledger, "translation.alg2",
                                bxsd_to_dfa_based, bxsd)
                ms["translation.alg2"].append(ns / 1e6)
                xsd, ns = _best(ledger, "translation.alg4",
                                dfa_based_to_xsd, dfa)
                ms["translation.alg4"].append(ns / 1e6)
            compiled, ns = _best(ledger, "compiler.compile_xsd",
                                 compile_xsd, xsd)
            ms["compiler.compile_xsd"].append(ns / 1e6)
            states_max = max(states_max,
                             max(len(t.dfa) for t in compiled.types))
            dense += bool(compiled.dense)
            to_dfa_ns = minimize_ns = 0
            for model in xsd.rho.values():
                regex = model.map_symbols(
                    lambda s: split_typed_name(s)[0]
                ).regex
                symbols = tuple(sorted(regex.symbols()))
                raw, ns = _best(ledger, "compiler.to_dfa", to_dfa, regex,
                                symbols)
                to_dfa_ns += ns
                __, ns = _best(ledger, "compiler.minimize", minimize, raw)
                minimize_ns += ns
            ms["compiler.to_dfa"].append(to_dfa_ns / 1e6)
            ms["compiler.minimize"].append(minimize_ns / 1e6)
            __, ns = _best(ledger, "cache.fingerprint", schema_fingerprint,
                           xsd)
            fingerprint_us.append(ns / 1e3)
            cache = SchemaCache(maxsize=4)
            cache.get(xsd)
            started = time.perf_counter_ns()
            for __ in range(IDENTITY_REPEATS):
                cache.get(xsd)
            identity_us.append(
                (time.perf_counter_ns() - started) / IDENTITY_REPEATS / 1e3
            )
    metrics = {
        f"{name}_ms": geomean(values) if values else 0.0
        for name, values in ms.items()
    }
    metrics["compiler.dfa_states_max"] = float(states_max)
    metrics["compiler.dense_schema_ratio"] = dense / len(schemas)
    metrics["cache.fingerprint_us"] = quantile(fingerprint_us, 0.5)
    metrics["cache.identity_hit_us"] = quantile(identity_us, 0.5)
    return metrics


def batch_overhead_us(compiled, text, ledger):
    """``validate_many(policy="isolate", deadline, limits)`` minus a bare
    ``validate_events(iter_events(text))``, one document, fastest of
    ``BATCH_REPEATS`` alternating calls each."""
    from repro.engine import StreamingValidator, validate_many
    from repro.resilience.limits import ParserLimits
    from repro.xmlmodel.parser import iter_events

    limits = ParserLimits()
    validator = StreamingValidator(compiled)
    many, bare = _best_each(
        ledger,
        [("batch.validate_many",
          lambda: validate_many(compiled, [text], "streaming", None, None,
                                "isolate", 5.0, None, limits)),
         ("streaming.validate_events",
          lambda: validator.validate_events(iter_events(text)))],
        repeats=BATCH_REPEATS,
    )
    return (many - bare) / 1e3
