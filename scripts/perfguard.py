"""Performance regression guard for the engine hot path (``make perfguard``).

Replays the small tier of experiment E13 — the ~280-element running-
example document — and compares what it measures against the committed
floors in ``benchmarks/results/perfguard_floor.json``.  A change that
silently knocks the dense fast path off (a fallback on the benchmark
corpus, a lost memo, an accidental object-per-event regression) fails
``make check`` here instead of surfacing as a mystery in the next full
bench run.

All throughput floors are *in-run ratios* (dense vs tree, stream vs
tree), not absolute rates: absolute element/second numbers swing with
machine load, but the ratio between two pipelines measured back-to-back
in one process is stable.  The absolute ceilings are the identity
cache hit (10 microseconds) and the text-to-compiled-schema time of a
24-member ``xs:all``, a valid record of which must commit on the dense
path.

Exits nonzero with a diagnostic on any floor violation.  To re-baseline
after an intentional change, edit the JSON floor file alongside the
change that justifies it.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

FLOOR_FILE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "results" / "perfguard_floor.json"
)


def _rate(function, size, repeats=5):
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return size / best


def measure():
    from repro.engine import SchemaCache, StreamingValidator, compile_xsd
    from repro.observability import default_registry, installed_tracer
    from repro.paperdata import figure3_xsd
    from repro.xmlmodel import parse_document, write_document
    from repro.xmlmodel.parser import iter_events
    from repro.xsd.validator import validate_xsd

    from benchmarks.bench_e11_validation import build_corpus

    with installed_tracer(None):
        doc = build_corpus(sizes=(200,))[200]
        size = doc.size()
        text = write_document(doc)
        xsd = figure3_xsd()
        compiled = compile_xsd(xsd)
        validator = StreamingValidator(compiled)

        commits = default_registry().counter("engine.dense.docs")
        before = commits.value
        report = validator.validate(text)
        if not report.valid:
            print("perfguard FAILED: benchmark document no longer "
                  f"validates: {report.violations[:3]}", file=sys.stderr)
            sys.exit(1)
        if commits.value != before + 1:
            print("perfguard FAILED: benchmark document no longer "
                  "commits on the dense path", file=sys.stderr)
            sys.exit(1)

        e2e_tree = _rate(lambda: validate_xsd(xsd, parse_document(text)),
                         size)
        e2e_dict = _rate(
            lambda: validator.validate_events(iter_events(text)), size
        )
        e2e_dense = _rate(lambda: validator.validate(text), size)

        cache = SchemaCache(maxsize=4)
        cache.get(xsd)
        repeats = 2000
        started = time.perf_counter()
        for __ in range(repeats):
            cache.get(xsd)
        cache_hit_us = (time.perf_counter() - started) / repeats * 1e6

        incremental_vs_full = _measure_incremental(
            text, xsd, compiled, full_seconds=size / e2e_tree
        )

        diff_vs_tree = _measure_diff(full_seconds=size / e2e_tree)

        bag_compile_ms = _measure_bag()

        serve = _measure_serve()

    return {
        "elements": size,
        "e2e_tree_rate": e2e_tree,
        "e2e_dict_rate": e2e_dict,
        "e2e_dense_rate": e2e_dense,
        "dense_vs_tree": e2e_dense / e2e_tree,
        "dict_vs_tree": e2e_dict / e2e_tree,
        "cache_hit_us": cache_hit_us,
        "incremental_vs_full": incremental_vs_full,
        "diff_vs_tree": diff_vs_tree,
        "bag_compile_ms": bag_compile_ms,
        **serve,
    }


def _measure_incremental(text, xsd, compiled, full_seconds):
    """The E15 miniature: per-edit incremental cost vs a full revalidate.

    Replays a short random edit storm through a
    :class:`~repro.engine.incremental.ValidatedDocument` and compares
    the mean per-edit cost against the in-run tree-validator rate (what
    a non-incremental pipeline pays after every edit).  The committed
    ``incremental_vs_full`` floor catches a change that silently turns
    an edit's footprint back into a whole-tree walk.
    """
    import random

    from repro.engine import ValidatedDocument
    from repro.errors import SchemaError
    from repro.xmlmodel import parse_document
    from repro.xmlmodel.patch import random_op

    handle = ValidatedDocument(parse_document(text), compiled)
    rng = random.Random("perfguard-e15")
    labels = list(compiled.names) + ["zz-stranger"]
    edits = 200
    applied = 0
    edit_seconds = 0.0
    while applied < edits:
        op = random_op(handle.document.root, rng, labels)
        started = time.perf_counter()
        try:
            op.apply_incremental(handle)
        except (SchemaError, IndexError, ValueError):
            continue
        finally:
            edit_seconds += time.perf_counter() - started
        applied += 1
    return full_seconds / (edit_seconds / applied)


def _measure_diff(full_seconds):
    """The schema-diff small tier: full certificates on the Figure pair.

    Diffs the paper's Figure-5 schema against the schema-evolution
    depth-limited variant — divergence walk, separator search, and
    witness-document construction — and expresses the cost as a
    multiple of the in-run tree validation pass.  The committed
    ``diff_vs_tree_ceiling`` catches a separator search that silently
    goes super-linear on the small tier (e.g. a lost cap sending the
    spectrum tier exponential).
    """
    from repro.bonxai import compile_schema, parse_bonxai
    from repro.diff import schema_diff
    from repro.paperdata import FIGURE5_BONXAI
    from repro.translation import bxsd_to_dfa_based

    anchor = "  (@name|@color|@title) = { type xs:string }"
    evolved_text = FIGURE5_BONXAI.replace(
        anchor,
        "  content/section/section/section = "
        "mixed { attribute title, group markup }\n" + anchor,
    )
    original = bxsd_to_dfa_based(
        compile_schema(parse_bonxai(FIGURE5_BONXAI)).bxsd
    )
    limited = bxsd_to_dfa_based(
        compile_schema(parse_bonxai(evolved_text)).bxsd
    )
    best = float("inf")
    for __ in range(5):
        started = time.perf_counter()
        diff = schema_diff(original, limited)
        best = min(best, time.perf_counter() - started)
    if diff.equivalent or not diff.certificates[0].directions:
        print("perfguard FAILED: the Figure-family diff pair no longer "
              "produces a certificate", file=sys.stderr)
        sys.exit(1)
    return best / full_seconds


def _measure_bag():
    """Schema text to dense CompiledSchema for a 24-member ``xs:all``.

    The all-group compiles to a bag (a seen-mask checked by counting) in
    time linear in its members; the committed ``bag_compile_ms_ceiling``
    catches a change that sends it back through the 2^n-state DFA
    construction.  A valid 24-field record (members in reverse order)
    must commit on the dense path.
    """
    from repro.engine import StreamingValidator, compile_xsd
    from repro.families import all_group_xsd
    from repro.observability import default_registry
    from repro.xsd.reader import read_xsd

    text = all_group_xsd(required_id=True)
    best = float("inf")
    for __ in range(5):
        started = time.perf_counter()
        compiled = compile_xsd(read_xsd(text))
        best = min(best, time.perf_counter() - started)
    record = ('<record id="r1">'
              + "".join(f"<f{i:02d}>v</f{i:02d}>" for i in reversed(range(24)))
              + "</record>")
    registry = default_registry()
    docs = registry.counter("engine.dense.docs")
    falls = registry.counter("engine.dense.fallbacks")
    before = docs.value, falls.value
    report = StreamingValidator(compiled).validate(record)
    if not report.valid or (docs.value, falls.value) != (
            before[0] + 1, before[1]):
        print("perfguard FAILED: a valid 24-field xs:all record did not "
              "commit on the dense path", file=sys.stderr)
        sys.exit(1)
    return best * 1e3


def _measure_serve():
    """The E16 miniature: an overload burst against an in-thread daemon.

    Runs a client fleet at twice the admission capacity against a
    two-worker server and checks the serving posture: the excess is shed
    immediately with 429 (the ``serve_shed_rate`` floor catches an
    admission layer that silently starts queuing without bound) and the
    *admitted* requests' p99 stays inside the request deadline (the
    ``serve_p99_vs_deadline_ceiling`` catches a hot path that lets
    latency grow past the end-to-end promise under load).
    """
    import http.client
    import threading

    from repro.observability import Histogram, MetricsRegistry
    from repro.paperdata import FIGURE1_XML, FIGURE3_XSD
    from repro.serve import ServeConfig, start_in_thread

    deadline = 5.0
    config = ServeConfig(port=0, workers=2, queue_depth=2,
                         tenant_inflight=None, deadline=deadline)
    capacity = config.workers + config.queue_depth
    clients = 2 * capacity
    requests_per_client = 10
    body = json.dumps({"schema": FIGURE3_XSD, "schema_kind": "xsd",
                       "document": FIGURE1_XML, "deadline": deadline})
    lock = threading.Lock()
    admitted = []
    tallies = {"shed": 0, "other": 0}
    barrier = threading.Barrier(clients)

    def client():
        barrier.wait()
        for __ in range(requests_per_client):
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=10.0)
            try:
                started = time.perf_counter()
                conn.request("POST", "/validate", body=body)
                response = conn.getresponse()
                response.read()
                elapsed = time.perf_counter() - started
            finally:
                conn.close()
            with lock:
                if response.status == 200:
                    admitted.append(elapsed)
                elif response.status == 429:
                    tallies["shed"] += 1
                else:
                    tallies["other"] += 1

    with start_in_thread(config, registry=MetricsRegistry()) as handle:
        port = handle.port
        # Warm the schema memo: measure serving, not the one-off compile.
        client_threads = [threading.Thread(target=client)
                          for __ in range(clients)]
        warm = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
        try:
            warm.request("POST", "/validate", body=body)
            warm.getresponse().read()
        finally:
            warm.close()
        for thread in client_threads:
            thread.start()
        for thread in client_threads:
            thread.join()

    total = clients * requests_per_client
    # Observe in nanoseconds: the power-of-two buckets resolve ns
    # latencies, while sub-second floats would all share bucket 0.
    latency = Histogram("perfguard.serve.latency")
    for elapsed in admitted:
        latency.observe(elapsed * 1e9)
    p99 = latency.percentile(0.99) / 1e9
    if tallies["other"]:
        print("perfguard FAILED: serve burst saw "
              f"{tallies['other']} unexpected non-200/429 answers",
              file=sys.stderr)
        sys.exit(1)
    return {
        "serve_requests": total,
        "serve_admitted": len(admitted),
        "serve_shed_rate": tallies["shed"] / total,
        "serve_p99_vs_deadline": p99 / deadline,
    }


def main():
    floors = json.loads(FLOOR_FILE.read_text(encoding="utf-8"))
    measured = measure()
    problems = []
    for key in ("dense_vs_tree", "dict_vs_tree", "incremental_vs_full"):
        if measured[key] < floors[key]:
            problems.append(
                f"{key}: measured {measured[key]:.2f}x is below the "
                f"committed floor {floors[key]:.2f}x"
            )
    if measured["diff_vs_tree"] > floors["diff_vs_tree_ceiling"]:
        problems.append(
            f"diff_vs_tree: the Figure-family schema diff took "
            f"{measured['diff_vs_tree']:.2f}x the tree validation pass, "
            f"above the committed ceiling "
            f"{floors['diff_vs_tree_ceiling']:.2f}x"
        )
    if measured["bag_compile_ms"] > floors["bag_compile_ms_ceiling"]:
        problems.append(
            f"bag_compile_ms: the 24-member xs:all schema took "
            f"{measured['bag_compile_ms']:.1f} ms from text to a compiled "
            f"schema, above the committed ceiling "
            f"{floors['bag_compile_ms_ceiling']:.1f} ms"
        )
    if measured["cache_hit_us"] > floors["cache_hit_us_ceiling"]:
        problems.append(
            f"cache_hit_us: measured {measured['cache_hit_us']:.2f} us "
            f"exceeds the committed ceiling "
            f"{floors['cache_hit_us_ceiling']:.2f} us"
        )
    if measured["serve_shed_rate"] < floors["serve_shed_rate_floor"]:
        problems.append(
            f"serve_shed_rate: measured {measured['serve_shed_rate']:.1%} "
            f"at 2x overload is below the committed floor "
            f"{floors['serve_shed_rate_floor']:.1%} (admission is "
            "queuing instead of shedding)"
        )
    if measured["serve_p99_vs_deadline"] > (
            floors["serve_p99_vs_deadline_ceiling"]):
        problems.append(
            f"serve_p99_vs_deadline: admitted p99 is "
            f"{measured['serve_p99_vs_deadline']:.2f}x the request "
            f"deadline, above the committed ceiling "
            f"{floors['serve_p99_vs_deadline_ceiling']:.2f}x"
        )

    print(
        f"perfguard (E13 small tier, {measured['elements']} elements): "
        f"dense {measured['dense_vs_tree']:.1f}x tree "
        f"(floor {floors['dense_vs_tree']:.1f}x), "
        f"dict {measured['dict_vs_tree']:.1f}x tree "
        f"(floor {floors['dict_vs_tree']:.1f}x), "
        f"identity cache hit {measured['cache_hit_us']:.2f} us "
        f"(ceiling {floors['cache_hit_us_ceiling']:.1f} us), "
        f"incremental edit {measured['incremental_vs_full']:.0f}x full "
        f"(floor {floors['incremental_vs_full']:.0f}x), "
        f"schema diff {measured['diff_vs_tree']:.1f}x tree pass "
        f"(ceiling {floors['diff_vs_tree_ceiling']:.1f}x), "
        f"24-member xs:all compile {measured['bag_compile_ms']:.1f} ms "
        f"(ceiling {floors['bag_compile_ms_ceiling']:.0f} ms); "
        f"serve burst {measured['serve_admitted']}/"
        f"{measured['serve_requests']} admitted, "
        f"shed {measured['serve_shed_rate']:.0%} "
        f"(floor {floors['serve_shed_rate_floor']:.0%}), "
        f"admitted p99 {measured['serve_p99_vs_deadline']:.2f}x deadline "
        f"(ceiling {floors['serve_p99_vs_deadline_ceiling']:.2f}x)"
    )
    if problems:
        for problem in problems:
            print(f"perfguard FAILED: {problem}", file=sys.stderr)
        sys.exit(1)
    print("perfguard OK")


if __name__ == "__main__":
    main()
