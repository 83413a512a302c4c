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
in one process is stable.  The "tree" pipeline every ratio divides by
is the char-tier oracle, ``XMLElement.from_events(iter_events(text))``
then ``validate_xsd``: pinned to the char parser, so that a faster
``parse_document`` leaves the ratios' meaning alone.
``tree_fold_vs_char`` is ``parse_document``'s rate over that char-tier
parse's; the benchmark document and its decorated copy must each build
on the byte tier (``xmlmodel.parse.byte_docs`` +1, ``fallbacks`` +0)
and give the char tier's tree.  ``dict_vs_tree`` is the rate of
``validate_events(iter_events(text))``: the char tier's events, folded
into a tree that ``ValidatedDocument``'s walk validates.
``invalid_fold_vs_char`` is the rate of ``validate(text)`` over that
same char route on a copy made invalid by a ``<bogus/>`` in its last
``<content>``: the dense scan falls back there, and the walk reruns
over the byte tier's tree, not over a tree of the char tier's events.
That copy must fall back once and fold once (``engine.dense.fallbacks``
+1, ``engine.fold.reruns`` +1) and give the char route's violations and
typing, and a copy with a wrong root must not fold (the char tier
answers a root exit at once).  So invalid documents drifting back to
the char tier fail here.  ``fallback_report_bytes_per_el_ceiling``
bounds what an unread ``validate(text)`` report of that copy retains
per element (:mod:`tracemalloc`): the document's bytes, for its typing
is built on first read, so a fallback report that keeps its tree, its
memo or an eager typing map fails here.  The absolute ceilings are the identity cache hit (10 microseconds) and the
text-to-compiled-schema time of a 24-member ``xs:all``, a valid record
of which must commit on the dense path.  So must a copy of the
benchmark document decorated with the markup the byte tier certifies
(a DOCTYPE, comments, PIs, CDATA, references and non-ASCII text); it
has no floor.  A memory ceiling
bounds what the compiled form of an ordinary many-type XSD retains
(``schema_retained_mib_ceiling``: 111 sequence types over 1,111 element
names, measured with :mod:`tracemalloc`), and a second one what a wider
schema retains (``wide_schema_retained_mib_ceiling``: 273 sequence types
over 4,369 names), where a per-type map over the schema's whole name
set (types x names) outweighs the tables themselves.  So per-type
tables or maps that grow with the schema's whole name set fail here.
Two keys hold the ``ValidatedDocument`` open walk on the benchmark
document: ``memo_bytes_per_el_ceiling`` bounds what the opened handle
retains per element (:mod:`tracemalloc`), and ``build_vs_compat`` is
the open's rate over ``validate_events`` of the same tree's events,
which folds them into a tree and runs the same walk.
``tree_bytes_per_el_ceiling`` bounds what ``parse_document``'s tree of
the benchmark document retains per element (:mod:`tracemalloc`), so a
saving in the memo that moves into the tree (a record per element, an
attribute dict per element) fails here.
``tracked_per_el_ceiling`` bounds the containers the cyclic collector
tracks per element after ``parse_document`` plus an open of the
benchmark document (the :func:`gc.get_objects` count before and after,
each taken after :func:`gc.collect`): deterministic, so a tree that
gives every leaf its own empty lists, or an open that gives every clean
leaf its own record, fails here.  One
ceiling holds child edits to the cost of the edit rather than the
parent's width: ``wide_edit_vs_narrow`` is the median latency of a
replace, and of an insert plus a delete, near the end of a
10,000-child ``<content>`` that holds one unrecognized child near its
front, over the same ops under a 6-child ``section`` of the same
document (the larger of the two ratios, one process).  A replay that
runs to the end of the word, or from its start, scales with the width
and fails here.

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

# Replaces the serializer's XML declaration in the decorated copy.
RICH_PROLOG = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<!DOCTYPE document SYSTEM "document.dtd">\n'
    '<!-- E13 small tier, decorated --><?render mode="full"?>\n'
)
# Put into every section's mixed content.
RICH_PROSE = ("prose <!-- c -->&amp; caf\u00e9 &#233;"
              "<![CDATA[<b>]]> <?render break?>")


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
    from repro.xmlmodel import (
        XMLDocument,
        XMLElement,
        parse_document,
        write_document,
    )
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

        registry = default_registry()
        docs = registry.counter("engine.dense.docs")
        falls = registry.counter("engine.dense.fallbacks")
        trees = registry.counter("xmlmodel.parse.byte_docs")
        tree_falls = registry.counter("xmlmodel.parse.fallbacks")
        decorated = RICH_PROLOG + text.split("?>", 1)[1].replace(
            "prose ", RICH_PROSE)

        def char_tree(document):
            return XMLDocument(XMLElement.from_events(iter_events(document)))

        for label, document in (("benchmark document", text),
                                ("decorated benchmark document", decorated)):
            before = docs.value, falls.value
            report = validator.validate(document)
            if not report.valid:
                print(f"perfguard FAILED: {label} no longer validates: "
                      f"{report.violations[:3]}", file=sys.stderr)
                sys.exit(1)
            if (docs.value, falls.value) != (before[0] + 1, before[1]):
                print(f"perfguard FAILED: {label} no longer commits on the "
                      "dense path", file=sys.stderr)
                sys.exit(1)
            before = trees.value, tree_falls.value
            tree = parse_document(document)
            if (trees.value, tree_falls.value) != (before[0] + 1, before[1]):
                print(f"perfguard FAILED: {label} no longer builds its tree "
                      "on the byte tier", file=sys.stderr)
                sys.exit(1)
            if tree != char_tree(document):
                print(f"perfguard FAILED: {label} builds another tree on "
                      "the byte tier than on the char tier", file=sys.stderr)
                sys.exit(1)

        invalid = _check_fold_route(validator, text)
        fallback_report_bytes_per_el = _measure_fallback_report(
            validator, invalid, size
        )
        fold_rerun = _rate(lambda: validator.validate(invalid), size)
        char_rerun = _rate(
            lambda: validator.validate_events(iter_events(invalid)), size
        )

        e2e_tree = _rate(lambda: validate_xsd(xsd, char_tree(text)), size)
        tree_fold = _rate(lambda: parse_document(text), size)
        tree_char = _rate(lambda: char_tree(text), size)
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

        memo_bytes_per_el, build_vs_compat = _measure_build(
            text, compiled, validator
        )
        tracked_per_el = _measure_tracked(text, compiled)
        tree_bytes_per_el = _measure_tree_bytes(text)

        wide_edit_vs_narrow = _measure_wide_edit(compiled)

        diff_vs_tree = _measure_diff(full_seconds=size / e2e_tree)

        bag_compile_ms = _measure_bag()

        schema_retained_mib = _measure_schema_memory()
        wide_schema_retained_mib = _measure_schema_memory(width=16)

        serve = _measure_serve()

    return {
        "elements": size,
        "e2e_tree_rate": e2e_tree,
        "e2e_dict_rate": e2e_dict,
        "e2e_dense_rate": e2e_dense,
        "dense_vs_tree": e2e_dense / e2e_tree,
        "dict_vs_tree": e2e_dict / e2e_tree,
        "tree_fold_vs_char": tree_fold / tree_char,
        "invalid_fold_vs_char": fold_rerun / char_rerun,
        "fallback_report_bytes_per_el": fallback_report_bytes_per_el,
        "cache_hit_us": cache_hit_us,
        "incremental_vs_full": incremental_vs_full,
        "memo_bytes_per_el": memo_bytes_per_el,
        "build_vs_compat": build_vs_compat,
        "tracked_per_el": tracked_per_el,
        "tree_bytes_per_el": tree_bytes_per_el,
        "wide_edit_vs_narrow": wide_edit_vs_narrow,
        "diff_vs_tree": diff_vs_tree,
        "bag_compile_ms": bag_compile_ms,
        "schema_retained_mib": schema_retained_mib,
        "wide_schema_retained_mib": wide_schema_retained_mib,
        **serve,
    }


def _check_fold_route(validator, text):
    """The benchmark document made invalid by a ``<bogus/>`` in its last
    ``<content>``, once checked to rerun on the byte tier's tree.

    That copy must fall back once and fold once, and give the char
    route's violations and typing; a copy whose root is undeclared must
    fall back without folding.
    """
    from repro.observability import default_registry
    from repro.xmlmodel.parser import iter_events

    registry = default_registry()
    falls = registry.counter("engine.dense.fallbacks")
    folds = registry.counter("engine.fold.reruns")
    cut = text.rindex("</content>")
    invalid = text[:cut] + "<bogus/>" + text[cut:]
    wrong_root = text.replace("<document>", "<nodocument>").replace(
        "</document>", "</nodocument>")
    for label, document, folded in (("invalid copy", invalid, 1),
                                    ("wrong-root copy", wrong_root, 0)):
        before = falls.value, folds.value
        report = validator.validate(document)
        if (falls.value, folds.value) != (before[0] + 1, before[1] + folded):
            print(f"perfguard FAILED: the benchmark document's {label} "
                  f"folded {folds.value - before[1]} times (expected "
                  f"{folded}) over {falls.value - before[0]} fallbacks "
                  "(expected 1)", file=sys.stderr)
            sys.exit(1)
        expected = validator.validate_events(iter_events(document))
        if (report.valid or report.violations != expected.violations
                or list(report.typing.items())
                != list(expected.typing.items())):
            print(f"perfguard FAILED: the benchmark document's {label} "
                  "gives another report than the char route",
                  file=sys.stderr)
            sys.exit(1)
    return invalid


def _measure_fallback_report(validator, invalid, size):
    """Bytes per element that an unread ``validate(text)`` report of the
    invalid copy retains, under :mod:`tracemalloc` (deterministic)."""
    import gc
    import tracemalloc

    validator.validate(invalid)  # first-use allocations stay out
    gc.collect()
    tracemalloc.start()
    try:
        report = validator.validate(invalid)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del report
    return retained / size


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


def _measure_build(text, compiled, validator):
    """The open walk on the E13 small tier: memory kept, and speed.

    Returns ``(bytes per element, rate ratio)``.  The bytes are what a
    :class:`~repro.engine.incremental.ValidatedDocument` over the parsed
    tree still holds under :mod:`tracemalloc` (the per-element memo),
    divided by the element count: deterministic, so the committed
    ``memo_bytes_per_el_ceiling`` catches a per-element slash path or
    per-element empty lists coming back.  The ratio is the rate of
    ``ValidatedDocument(tree, compiled)`` over
    ``validate_events(tree.root.events())`` on the same tree, which pays
    for ``events()``, a fold of the events into a tree and the same
    walk; the committed ``build_vs_compat`` floor catches the open walk
    falling back to two passes over each element's children, and
    validation paying for what it does not need, such as an eager
    typing map.
    """
    import gc
    import tracemalloc

    from repro.engine import ValidatedDocument
    from repro.xmlmodel import parse_document

    tree = parse_document(text)
    size = tree.size()
    ValidatedDocument(tree, compiled)  # first-use counters stay out
    gc.collect()
    tracemalloc.start()
    try:
        handle = ValidatedDocument(tree, compiled)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del handle
    build = _rate(lambda: ValidatedDocument(tree, compiled), size,
                  repeats=20)
    compat = _rate(lambda: validator.validate_events(tree.root.events()),
                   size, repeats=20)
    return retained / size, build / compat


def _measure_tracked(text, compiled):
    """Containers the collector tracks per element after
    ``parse_document(text)`` plus a
    :class:`~repro.engine.incremental.ValidatedDocument` open of it.

    Counts :func:`gc.get_objects` before and after, each after
    :func:`gc.collect`, so the count is deterministic: the tree's nodes
    and lists, the records and their state lists, and nothing a
    collection would free.
    """
    import gc

    from repro.engine import ValidatedDocument
    from repro.xmlmodel import parse_document

    ValidatedDocument(parse_document(text), compiled)  # first-use objects
    gc.collect()
    before = len(gc.get_objects())
    handle = ValidatedDocument(parse_document(text), compiled)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    return tracked / handle.document.size()


def _measure_tree_bytes(text):
    """Bytes per element that ``parse_document(text)``'s tree retains
    under :mod:`tracemalloc` (after a warm-up parse): the nodes, their
    lists and their attribute maps."""
    import gc
    import tracemalloc

    from repro.xmlmodel import parse_document

    parse_document(text)  # first-use objects stay out
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        document = parse_document(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / document.size()


def _measure_wide_edit(compiled, repeats=301):
    """Child edits under a wide parent over the same under a narrow one.

    One Figure 3 document: ``<content>`` holds a 6-child ``section``
    (the narrow parent), an unrecognized ``<stranger/>``, then 9,998
    sections.  Each round times, one op at a time, a replace by index
    (as ``ReplaceChild`` hands it over) and an insert plus a delete, at
    child 9,990 of ``<content>`` and at the narrow section's last
    child.  Returns the larger of the two ratios of median latencies,
    wide over narrow.
    """
    import statistics

    from repro.engine import ValidatedDocument
    from repro.xmlmodel import element

    def section(title, *children):
        return element("section", *children, attributes={"title": title})

    narrow = section(
        "narrow", element("bold"), element("italic"), element("font"),
        element("style", attributes={"name": "s"}),
        element("color", attributes={"color": "red"}), section("inner"),
    )
    content = element("content", narrow, element("stranger"),
                      *[section(f"s{i}") for i in range(9_998)])
    handle = ValidatedDocument(
        element("document", element("template"), element("userstyles"),
                content),
        compiled,
    )

    def replace(parent, index):
        replacement = section("replaced")
        started = time.perf_counter_ns()
        handle.replace_child(parent, index, replacement)
        return time.perf_counter_ns() - started

    def insert_delete(parent, index):
        inserted = section("inserted")
        started = time.perf_counter_ns()
        handle.insert_child(parent, index, inserted)
        handle.delete_child(parent, index)
        return time.perf_counter_ns() - started

    timings = {key: [] for key in ("wide replace", "narrow replace",
                                   "wide insert", "narrow insert")}
    for __ in range(repeats):
        timings["wide replace"].append(replace(content, 9_990))
        timings["narrow replace"].append(replace(narrow, 5))
        timings["wide insert"].append(insert_delete(content, 9_990))
        timings["narrow insert"].append(insert_delete(narrow, 5))
    median = {key: statistics.median(values)
              for key, values in timings.items()}
    return max(median["wide replace"] / median["narrow replace"],
               median["wide insert"] / median["narrow insert"])


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


def _measure_schema_memory(width=10):
    """MiB still allocated after compiling an ordinary many-type XSD.

    Compiles :func:`~repro.families.ordinary_xsd` of three levels and
    ``width`` children a type (the default: 111 sequence types, 1,111
    element names; ``width=16``: 273 types, 4,369 names) under
    :mod:`tracemalloc` and keeps the result alive while reading what the
    compile left allocated.  Each type's tables scale with its own
    children and states, so the committed
    ``schema_retained_mib_ceiling`` catches a layout that gives every
    DFA state a row as wide as the schema's name set, and
    ``wide_schema_retained_mib_ceiling`` one that gives every type a
    column map over the names.
    """
    import gc
    import tracemalloc

    from repro.engine import compile_xsd
    from repro.families import ordinary_xsd
    from repro.xsd.reader import read_xsd

    xsd = read_xsd(ordinary_xsd(width=width)[0])
    gc.collect()
    tracemalloc.start()
    try:
        compiled = compile_xsd(xsd)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained / 2**20


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
    for key in ("dense_vs_tree", "dict_vs_tree", "incremental_vs_full",
                "tree_fold_vs_char", "invalid_fold_vs_char",
                "build_vs_compat"):
        if measured[key] < floors[key]:
            problems.append(
                f"{key}: measured {measured[key]:.2f}x is below the "
                f"committed floor {floors[key]:.2f}x"
            )
    if measured["memo_bytes_per_el"] > floors["memo_bytes_per_el_ceiling"]:
        problems.append(
            f"memo_bytes_per_el: an opened ValidatedDocument retains "
            f"{measured['memo_bytes_per_el']:.0f} bytes per element, above "
            f"the committed ceiling "
            f"{floors['memo_bytes_per_el_ceiling']:.0f} bytes"
        )
    if measured["tracked_per_el"] > floors["tracked_per_el_ceiling"]:
        problems.append(
            f"tracked_per_el: a parsed and opened document holds "
            f"{measured['tracked_per_el']:.2f} collector-tracked containers "
            f"per element, above the committed ceiling "
            f"{floors['tracked_per_el_ceiling']:.2f}"
        )
    if measured["tree_bytes_per_el"] > floors["tree_bytes_per_el_ceiling"]:
        problems.append(
            f"tree_bytes_per_el: parse_document's tree retains "
            f"{measured['tree_bytes_per_el']:.0f} bytes per element, above "
            f"the committed ceiling "
            f"{floors['tree_bytes_per_el_ceiling']:.0f} bytes"
        )
    if measured["fallback_report_bytes_per_el"] > (
            floors["fallback_report_bytes_per_el_ceiling"]):
        problems.append(
            f"fallback_report_bytes_per_el: an unread fallback report "
            f"retains {measured['fallback_report_bytes_per_el']:.0f} bytes "
            f"per element, above the committed ceiling "
            f"{floors['fallback_report_bytes_per_el_ceiling']:.0f} bytes"
        )
    if measured["wide_edit_vs_narrow"] > floors["wide_edit_vs_narrow"]:
        problems.append(
            f"wide_edit_vs_narrow: a child edit near the end of a "
            f"10,000-child parent took {measured['wide_edit_vs_narrow']:.2f}x "
            f"the same edit under a 6-child parent, above the committed "
            f"ceiling {floors['wide_edit_vs_narrow']:.2f}x"
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
    if measured["schema_retained_mib"] > (
            floors["schema_retained_mib_ceiling"]):
        problems.append(
            f"schema_retained_mib: the compiled 111-type ordinary XSD "
            f"retains {measured['schema_retained_mib']:.2f} MiB, above the "
            f"committed ceiling "
            f"{floors['schema_retained_mib_ceiling']:.1f} MiB"
        )
    if measured["wide_schema_retained_mib"] > (
            floors["wide_schema_retained_mib_ceiling"]):
        problems.append(
            f"wide_schema_retained_mib: the compiled 273-type ordinary XSD "
            f"retains {measured['wide_schema_retained_mib']:.2f} MiB, above "
            f"the committed ceiling "
            f"{floors['wide_schema_retained_mib_ceiling']:.1f} MiB"
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
        f"byte-tier tree {measured['tree_fold_vs_char']:.1f}x char tier "
        f"(floor {floors['tree_fold_vs_char']:.1f}x), "
        f"invalid document {measured['invalid_fold_vs_char']:.1f}x its "
        f"char-tier rerun (floor {floors['invalid_fold_vs_char']:.1f}x) "
        f"retaining {measured['fallback_report_bytes_per_el']:.0f} "
        f"B/element unread (ceiling "
        f"{floors['fallback_report_bytes_per_el_ceiling']:.0f} B), "
        f"identity cache hit {measured['cache_hit_us']:.2f} us "
        f"(ceiling {floors['cache_hit_us_ceiling']:.1f} us), "
        f"incremental edit {measured['incremental_vs_full']:.0f}x full "
        f"(floor {floors['incremental_vs_full']:.0f}x), "
        f"open walk {measured['build_vs_compat']:.2f}x validate_events "
        f"(floor {floors['build_vs_compat']:.2f}x) retaining "
        f"{measured['memo_bytes_per_el']:.0f} B/element "
        f"(ceiling {floors['memo_bytes_per_el_ceiling']:.0f} B) and "
        f"{measured['tracked_per_el']:.2f} tracked containers/element "
        f"with its tree (ceiling {floors['tracked_per_el_ceiling']:.1f}), "
        f"tree {measured['tree_bytes_per_el']:.0f} B/element "
        f"(ceiling {floors['tree_bytes_per_el_ceiling']:.0f} B), "
        f"child edit under 10,000 children "
        f"{measured['wide_edit_vs_narrow']:.2f}x under 6 "
        f"(ceiling {floors['wide_edit_vs_narrow']:.1f}x), "
        f"schema diff {measured['diff_vs_tree']:.1f}x tree pass "
        f"(ceiling {floors['diff_vs_tree_ceiling']:.1f}x), "
        f"24-member xs:all compile {measured['bag_compile_ms']:.1f} ms "
        f"(ceiling {floors['bag_compile_ms_ceiling']:.0f} ms), "
        f"111-type schema retains {measured['schema_retained_mib']:.2f} MiB "
        f"(ceiling {floors['schema_retained_mib_ceiling']:.1f} MiB), "
        f"273-type schema retains "
        f"{measured['wide_schema_retained_mib']:.2f} MiB "
        f"(ceiling {floors['wide_schema_retained_mib_ceiling']:.1f} MiB); "
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
