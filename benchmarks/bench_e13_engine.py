"""E13: compiled streaming engine vs the tree validator (new workload).

Compares, on the E11 corpus (running-example documents of growing size):

* **tree**: ``validate_xsd`` on a parsed document — per node it re-runs
  the derivative matcher over regex ASTs and scans content-model symbol
  lists for child types;
* **streaming**: :class:`repro.engine.StreamingValidator`'s event
  route — the document's event stream folded into a tree of the
  validator's own, which ``ValidatedDocument``'s one-pass walk checks
  and types over the compiled tables, one name lookup and one row
  index per child;
* **e2e dict**: the same route fed from XML text via ``iter_events``,
  against tree validation including the char-tier parse
  (``XMLElement.from_events(iter_events(text))``, pinned to the char
  parser so that a faster ``parse_document`` leaves the end-to-end
  ratios' meaning alone) — the end-to-end text-to-verdict race on the
  route a root exit falls back to (the column and its
  ``e2e_dict_rate`` key keep the name of the dict tables an event loop
  once stepped);
* **e2e dense**: ``validator.validate(text)`` — the fused byte
  tokenizer + dense-table loop (chunk memo, one name object per
  element name, no per-event objects), the engine's production text path.

Also reports one-off compilation cost and both cache hit tiers
(identity and structural fingerprint).  Acceptance bars: streaming >=
3x tree validation throughput (ISSUE 1) and the dense path >= 10x the
end-to-end tree pipeline (ISSUE 6) on the 4000-element corpus document;
an identity cache hit stays under 10 microseconds.
"""

import time

from repro.observability import default_registry, installed_tracer

from repro.engine import SchemaCache, StreamingValidator, compile_xsd
from repro.paperdata import figure3_xsd
from repro.xmlmodel import XMLDocument, XMLElement, write_document
from repro.xmlmodel.parser import iter_events
from repro.xsd.validator import validate_xsd

from benchmarks.bench_e11_validation import build_corpus
from benchmarks.conftest import report

SPEEDUP_FLOOR = 3.0
"""Required streaming/tree throughput ratio on the 4000-element corpus."""

DENSE_SPEEDUP_FLOOR = 10.0
"""Required dense/tree end-to-end (text-to-verdict) ratio, same corpus."""

CACHE_HIT_CEILING_US = 10.0
"""Maximum per-hit cost of the identity cache fast path."""


def _rate(function, size, repeats=3):
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return size / best


def bench_engine_throughput(benchmark):
    def run():
        # This experiment certifies the hot path with tracing disabled
        # (the acceptance bar: within noise of the seed), so the ambient
        # tracer of the benchmark run is uninstalled for its extent.
        with installed_tracer(None):
            return _run_engine_throughput()

    def _run_engine_throughput():
        documents = build_corpus()
        xsd = figure3_xsd()
        compiled = compile_xsd(xsd)
        validator = StreamingValidator(compiled)
        commits = default_registry().counter("engine.dense.docs")
        before = commits.value
        validator.validate(write_document(documents[min(documents)]))
        assert commits.value == before + 1, (
            "figure-3 documents must commit on the dense path"
        )
        rows = [
            f"{'elements':>9} | {'tree el/s':>10} | {'event el/s':>11} | "
            f"{'speedup':>7} | {'e2e tree':>9} | {'e2e dict':>9} | "
            f"{'e2e dense':>10} | {'dense x':>7}"
        ]
        data = {
            "rows": [],
            "speedup_floor": SPEEDUP_FLOOR,
            "dense_speedup_floor": DENSE_SPEEDUP_FLOOR,
        }
        final_speedup = None
        final_dense_speedup = None
        for target, doc in sorted(documents.items()):
            size = doc.size()
            text = write_document(doc)
            tree_rate = _rate(lambda: validate_xsd(xsd, doc), size)
            stream_rate = _rate(
                lambda: validator.validate_events(doc.events()), size
            )
            e2e_tree = _rate(
                lambda: validate_xsd(xsd, XMLDocument(
                    XMLElement.from_events(iter_events(text)))), size
            )
            e2e_dict = _rate(
                lambda: validator.validate_events(iter_events(text)), size
            )
            e2e_dense = _rate(lambda: validator.validate(text), size)
            speedup = stream_rate / tree_rate
            dense_speedup = e2e_dense / e2e_tree
            final_speedup = speedup
            final_dense_speedup = dense_speedup
            rows.append(
                f"{size:>9} | {tree_rate:>10.0f} | {stream_rate:>11.0f} | "
                f"{speedup:>6.1f}x | {e2e_tree:>9.0f} | {e2e_dict:>9.0f} | "
                f"{e2e_dense:>10.0f} | {dense_speedup:>6.1f}x"
            )
            data["rows"].append(
                {
                    "elements": size,
                    "tree_rate": tree_rate,
                    "stream_rate": stream_rate,
                    "speedup": speedup,
                    "e2e_tree_rate": e2e_tree,
                    "e2e_dict_rate": e2e_dict,
                    "e2e_dense_rate": e2e_dense,
                    "dense_speedup": dense_speedup,
                }
            )
        rows.append(
            "expected shape: speedups grow with table/memo reuse; floors "
            f"{SPEEDUP_FLOOR:.0f}x (event route vs tree) and "
            f"{DENSE_SPEEDUP_FLOOR:.0f}x (dense vs e2e tree) on the "
            "largest document"
        )
        assert final_speedup is not None and final_speedup >= SPEEDUP_FLOOR, (
            f"streaming speedup {final_speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR:.0f}x floor on the 4000-element corpus"
        )
        assert final_dense_speedup >= DENSE_SPEEDUP_FLOOR, (
            f"dense speedup {final_dense_speedup:.2f}x below the "
            f"{DENSE_SPEEDUP_FLOOR:.0f}x floor on the 4000-element corpus"
        )
        return rows, data

    rows, data = benchmark.pedantic(run, rounds=1, iterations=1)
    report("E13", "compiled streaming engine vs tree validator", rows,
           data=data)


def bench_compile_and_cache(benchmark):
    def run():
        xsd = figure3_xsd()
        started = time.perf_counter()
        compile_xsd(xsd)
        cold_ms = (time.perf_counter() - started) * 1e3

        cache = SchemaCache(maxsize=4)
        cache.get(xsd)  # warm (one miss, registers the identity)
        repeats = 1000
        started = time.perf_counter()
        for __ in range(repeats):
            cache.get(xsd)
        identity_us = (time.perf_counter() - started) / repeats * 1e6
        assert cache.hits == repeats and cache.misses == 1

        # Structural tier: independently parsed copies never share
        # identity, so each first presentation pays the fingerprint.
        copies = [figure3_xsd() for __ in range(200)]
        started = time.perf_counter()
        for copy in copies:
            cache.get(copy)
        fingerprint_us = (time.perf_counter() - started) / len(copies) * 1e6
        assert cache.misses == 1  # every copy hits structurally

        assert identity_us <= CACHE_HIT_CEILING_US, (
            f"identity cache hit {identity_us:.1f} us exceeds the "
            f"{CACHE_HIT_CEILING_US:.0f} us ceiling"
        )
        rows = [
            f"cold compile: {cold_ms:.2f} ms",
            f"cache hit (identity fast path): {identity_us:.2f} us",
            f"cache hit (fingerprint + lookup): {fingerprint_us:.1f} us",
            "expected shape: identity hits well under the "
            f"{CACHE_HIT_CEILING_US:.0f} us ceiling; both tiers orders "
            "of magnitude below compilation",
        ]
        data = {
            "cold_compile_ms": cold_ms,
            "cache_hit_us": identity_us,
            "cache_fingerprint_hit_us": fingerprint_us,
            "cache_hit_ceiling_us": CACHE_HIT_CEILING_US,
        }
        return rows, data

    rows, data = benchmark.pedantic(run, rounds=1, iterations=1)
    report("E13b", "schema compilation and cache hit path", rows, data=data)


def bench_streaming_validation(benchmark):
    doc = build_corpus(sizes=(1000,))[1000]
    validator = StreamingValidator(compile_xsd(figure3_xsd()))
    result = benchmark(lambda: validator.validate_events(doc.events()))
    assert result.valid


def bench_dense_validation(benchmark):
    text = write_document(build_corpus(sizes=(1000,))[1000])
    validator = StreamingValidator(compile_xsd(figure3_xsd()))
    result = benchmark(lambda: validator.validate(text))
    assert result.valid


def bench_batch_validate_many(benchmark):
    from repro.engine import validate_many

    doc = build_corpus(sizes=(200,))[200]
    text = write_document(doc)
    xsd = figure3_xsd()
    reports = benchmark.pedantic(
        lambda: validate_many(xsd, [text] * 16, workers=4),
        rounds=3,
        iterations=1,
    )
    assert all(r.valid for r in reports)
