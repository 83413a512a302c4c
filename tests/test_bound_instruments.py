"""Instruments bound once: the hot paths look up no metric by name.

Validating (every route), opening a handle, editing, parsing, a schema
cache hit and a clean ``validate_many`` count into instruments bound
once: at import from the default registry, or, for a
:class:`~repro.engine.SchemaCache`, when the cache is made, from its own
registry.  These tests pin that contract:

* after a warm-up, 100 calls of each kind make no
  ``MetricsRegistry._get`` call;
* one fixed workload moves every ``engine.*`` and ``xmlmodel.parse.*``
  counter and every histogram count by what it moved when each call
  looked its instruments up by name (:data:`PINNED_COUNTERS`,
  :data:`PINNED_HISTOGRAMS`);
* counts stay exact when threads edit at once;
* ``edit_ns`` and ``doc_ns`` observe their spans' own clock when a
  tracer records.
"""

import gc
import sys
import threading

import pytest

from repro.engine import (
    SchemaCache,
    StreamingValidator,
    ValidatedDocument,
    default_cache,
    validate_many,
)
from repro.errors import SchemaError
from repro.observability import MetricsRegistry, Tracer, default_registry
from repro.observability.tracing import installed_tracer
from repro.paperdata import FIGURE1_XML, figure3_xsd
from repro.regex.ast import star, sym
from repro.xmlmodel import XMLElement, parse_document
from repro.xmlmodel.parser import iter_events
from repro.xsd.content import ContentModel
from repro.xsd.model import XSD
from repro.xsd.typednames import TypedName

#: Valid: the dense scan commits it.
VALID = FIGURE1_XML
#: Invalid below the root: the scan falls back and the fold reruns.
INVALID = (
    "<document><template/><content><section title='t'>x<zzz/></section>"
    "</content></document>"
)
#: An undeclared root: a root exit, rerun on the char tier.
UNDECLARED = "<nobody/>"
#: An internal subset, which the byte tier refuses: the validator's
#: fallback and parse_document both run the char tier.
SUBSET = (
    "<!DOCTYPE document [ <!ELEMENT document ANY> ]>"
    "<document><template/><userstyles/><content/></document>"
)


def _tiny(root):
    """A one-type schema: ``root`` holds any number of ``root``s."""
    return XSD(
        ename={root},
        types={"T"},
        rho={"T": ContentModel(star(sym(TypedName(root, "T"))))},
        start={TypedName(root, "T")},
    )


def _section(title="new"):
    element = XMLElement("section", {"title": title})
    element.append(XMLElement("bold"))
    return element


def _edit_all(handle):
    """One edit of each kind under Figure 1's ``<content>``; the
    document keeps its shape."""
    content = handle.document.root.children[2]
    section = content.children[0]
    handle.insert_child(content, 1, _section())
    handle.delete_child(content, 1)
    handle.replace_child(content, 1, _section())
    handle.replace_subtree(content.children[1], _section("again"))
    handle.set_attribute(section, "title", "Intro")
    handle.set_text(section, "Text ", 0)


def _raising_edit(handle):
    """An edit that raises in its body: the text index is out of range."""
    with pytest.raises(SchemaError):
        handle.set_text(handle.document.root, "x", index=99)


class _Schemas:
    """Schemas made before any measurement: ``figure3_xsd()`` parses."""

    def __init__(self):
        self.xsd = figure3_xsd()
        self.copy = figure3_xsd()  # structurally equal, another object
        self.tiny = _tiny("a")


def workload(schemas):
    """The fixed workload :data:`PINNED_COUNTERS` pins: two cache misses,
    an identity and a fingerprint hit, each validation route once, both
    parse tiers, an open, one edit of each kind, an edit that raises,
    and a two-document ``validate_many``."""
    cache = SchemaCache(maxsize=4)
    compiled = cache.get(schemas.xsd)
    cache.get(schemas.xsd)
    cache.get(schemas.copy)
    cache.get(schemas.tiny)
    validator = StreamingValidator(compiled)
    for text in (VALID, INVALID, UNDECLARED, SUBSET):
        validator.validate(text)
    validator.validate_bytes(INVALID.encode("utf-8"))
    validator.validate_events(iter_events(INVALID))
    validator.validate(parse_document(VALID))
    parse_document(SUBSET)
    handle = ValidatedDocument(parse_document(VALID), compiled)
    _edit_all(handle)
    _raising_edit(handle)
    validate_many(schemas.xsd, [VALID, INVALID], cache=cache)


def _pinned(snapshot):
    counters = {
        name: value for name, value in snapshot["counters"].items()
        if name.startswith(("engine.", "xmlmodel.parse."))
    }
    histograms = {
        name: summary["count"]
        for name, summary in snapshot["histograms"].items()
    }
    return counters, histograms


def _moved(before, after):
    """``{name: after - before}`` for every entry that moved; an entry
    missing from ``before`` counts from 0."""
    return {
        name: value - before.get(name, 0)
        for name, value in after.items() if value != before.get(name, 0)
    }


#: :func:`workload`'s counter deltas, as read from the code before its
#: instruments were bound, when every call looked them up by name.
PINNED_COUNTERS = {
    "engine.batch.calls": 1,
    "engine.batch.docs": 2,
    "engine.cache.hits": 3,
    "engine.cache.misses": 2,
    "engine.compile.schemas": 2,
    "engine.compile.types": 16,
    "engine.dense.docs": 2,
    "engine.dense.fallbacks": 5,
    "engine.fold.reruns": 3,
    "engine.incremental.content_replays": 32,
    "engine.incremental.documents": 1,
    "engine.incremental.edits": 7,
    "engine.incremental.edits.delete_child": 1,
    "engine.incremental.edits.insert_child": 1,
    "engine.incremental.edits.replace_subtree": 2,
    "engine.incremental.edits.set_attribute": 1,
    "engine.incremental.edits.set_text": 2,
    "engine.incremental.memo_hits": 4,
    "engine.incremental.nodes_typed": 28,
    "engine.stream.docs": 9,
    "engine.stream.elements": 86,
    "engine.stream.violations": 9,
    "xmlmodel.parse.byte_docs": 2,
    "xmlmodel.parse.fallbacks": 1,
}

#: :func:`workload`'s histogram-count deltas, read as
#: :data:`PINNED_COUNTERS` was.
PINNED_HISTOGRAMS = {
    "engine.cache.compile_ns": 2,
    "engine.compile.dfa_states": 16,
    "engine.incremental.edit_ns": 6,
    "engine.stream.doc_ns": 9,
}


@pytest.fixture(scope="module")
def schemas():
    return _Schemas()


def test_workload_moves_every_instrument_as_before(schemas):
    registry = default_registry()
    counters, histograms = _pinned(registry.snapshot())
    workload(schemas)
    after_counters, after_histograms = _pinned(registry.snapshot())
    assert _moved(counters, after_counters) == PINNED_COUNTERS
    assert _moved(histograms, after_histograms) == PINNED_HISTOGRAMS


@pytest.fixture
def world(schemas):
    """A warm cache, a validator and an open handle on Figure 1."""
    cache = SchemaCache(maxsize=4)
    compiled = cache.get(schemas.xsd)
    cache.get(schemas.copy)
    return {
        "schemas": schemas,
        "cache": cache,
        "validator": StreamingValidator(compiled),
        "compiled": compiled,
        "handle": ValidatedDocument(parse_document(VALID), compiled),
        "document": parse_document(VALID),
    }


def _fingerprint_hit(world):
    cache, copy = world["cache"], world["schemas"].copy
    cache.invalidate(copy)  # the next get hashes the copy again
    cache.get(copy)


#: One call of each kind the zero-lookup test repeats.
CALLS = {
    "validate dense": lambda w: w["validator"].validate(VALID),
    "validate fold rerun": lambda w: w["validator"].validate(INVALID),
    "validate char rerun (root exit)":
        lambda w: w["validator"].validate(UNDECLARED),
    "validate char rerun (refused fold)":
        lambda w: w["validator"].validate(SUBSET),
    "validate_bytes": lambda w: w["validator"].validate_bytes(
        VALID.encode("utf-8")),
    "validate_events": lambda w: w["validator"].validate_events(
        iter_events(VALID)),
    "validate(document)": lambda w: w["validator"].validate(w["document"]),
    "open": lambda w: ValidatedDocument(w["document"], w["compiled"]),
    "every edit": lambda w: _edit_all(w["handle"]),
    "parse_document byte tier": lambda w: parse_document(VALID),
    "parse_document char tier": lambda w: parse_document(SUBSET),
    "SchemaCache.get identity hit":
        lambda w: w["cache"].get(w["schemas"].xsd),
    "SchemaCache.get fingerprint hit": _fingerprint_hit,
    "validate_many": lambda w: validate_many(
        w["schemas"].xsd, [VALID, VALID], cache=w["cache"]),
}


@pytest.mark.parametrize("kind", list(CALLS))
def test_no_metric_lookup_after_a_warm_up(world, monkeypatch, kind):
    call = CALLS[kind]
    call(world)
    names = []
    get = MetricsRegistry._get
    caller = threading.current_thread()

    def counting(registry, name, factory, help=None):
        if threading.current_thread() is caller:  # not a stray thread
            names.append(name)
        return get(registry, name, factory, help=help)

    monkeypatch.setattr(MetricsRegistry, "_get", counting)
    for __ in range(100):
        call(world)
    assert names == []


def test_a_private_registry_cache_counts_into_its_registry(schemas):
    registry = MetricsRegistry()
    default = default_registry()
    before = default.counter("engine.cache.misses").value
    cache = SchemaCache(maxsize=1, registry=registry)
    cache.get(schemas.xsd)
    cache.get(schemas.xsd)
    cache.get(schemas.tiny)
    counters = registry.snapshot()["counters"]
    assert counters["engine.cache.misses"] == 2
    assert counters["engine.cache.hits"] == 1
    assert counters["engine.cache.evictions"] == 1
    assert registry.histogram("engine.cache.compile_ns").count == 2
    assert registry.gauge("engine.cache.size").value == 1
    assert default.counter("engine.cache.misses").value == before


def test_the_size_gauge_sums_the_registrys_live_caches(schemas):
    """``engine.cache.size`` is the default cache's length plus a second
    cache's on the same registry, and drops the second's share when it
    is collected (other tests' live caches add a constant)."""
    size = default_registry().gauge("engine.cache.size")
    default = default_cache()
    gc.collect()
    others = size.value - len(default)
    default.get(schemas.xsd)
    assert size.value == others + len(default)
    second = SchemaCache(maxsize=64)
    second.get(schemas.xsd)
    second.get(schemas.tiny)
    assert size.value == others + len(default) + 2
    default.get(_tiny("gauge"))  # a miss in the default cache
    assert size.value == others + len(default) + 2
    second.clear()
    assert size.value == others + len(default)
    second.get(schemas.tiny)
    assert size.value == others + len(default) + 1
    del second
    gc.collect()
    assert size.value == others + len(default)


def test_threaded_caches_sum_exactly_into_the_size_gauge():
    """Eight caches of one schema each, on one registry, evicting on
    every miss from eight threads: the gauge ends at their sum, then at
    zero once they are collected."""
    threads, rounds = 8, 40
    registry = MetricsRegistry()
    size = registry.gauge("engine.cache.size")
    caches = [SchemaCache(maxsize=1, registry=registry)
              for __ in range(threads)]
    schemas = [_tiny("a"), _tiny("b")]
    barrier = threading.Barrier(threads)

    def work(cache):
        barrier.wait(timeout=60)
        for number in range(rounds):
            cache.get(schemas[number % 2])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often: races would show
    try:
        workers = [threading.Thread(target=work, args=(cache,))
                   for cache in caches]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert size.value == sum(len(cache) for cache in caches) == threads
    del caches, worker, workers
    gc.collect()
    assert size.value == 0


def test_a_cache_collected_under_a_snapshot_lock_releases_its_size():
    """The collector may free a cache while this thread holds the size
    gauge's lock, as a registry snapshot does; its finalizer must not
    deadlock there."""
    registry = MetricsRegistry()
    size = registry.gauge("engine.cache.size")
    cache = SchemaCache(maxsize=4, registry=registry)
    cache.get(_tiny("a"))
    box = [cache]
    box.append(box)  # a cycle: only the collector frees the cache
    del cache, box
    assert size.value == 1

    def collect_under_the_lock():
        with size._lock:
            gc.collect()

    worker = threading.Thread(target=collect_under_the_lock, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert size.value == 0


def test_a_cache_collected_under_another_lock_meets_a_snapshot():
    """One thread holds a histogram's lock when the collector frees a
    cache; another holds the size gauge's lock, as a snapshot does, and
    waits for that histogram's.  The finalizer must not wait on the
    gauge's lock, or each thread waits on the other."""
    registry = MetricsRegistry()
    size = registry.gauge("engine.cache.size")
    latency = registry.histogram("serve.request.latency")
    cache = SchemaCache(maxsize=4, registry=registry)
    cache.get(_tiny("a"))
    box = [cache]
    box.append(box)  # a cycle: only the collector frees the cache
    del cache, box
    assert size.value == 1
    holds_latency = threading.Event()
    holds_size = threading.Event()
    took_latency = []

    def collect_under_latency():
        with latency._lock:
            holds_latency.set()
            holds_size.wait(timeout=30)
            gc.collect()

    def snapshot_order():
        holds_latency.wait(timeout=30)
        with size._lock:
            holds_size.set()
            took = latency._lock.acquire(timeout=20)
            took_latency.append(took)
            if took:
                latency._lock.release()

    gc.disable()  # no automatic collection frees the cache first
    try:
        workers = [threading.Thread(target=target, daemon=True)
                   for target in (collect_under_latency, snapshot_order)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        gc.enable()
    assert not any(worker.is_alive() for worker in workers)
    assert took_latency == [True]
    assert size.value == 0


def test_an_edit_that_raises_is_counted_and_not_timed(world):
    registry = default_registry()
    edits = registry.counter("engine.incremental.edits")
    by_op = registry.counter("engine.incremental.edits.set_text")
    edit_ns = registry.histogram("engine.incremental.edit_ns")
    before = edits.value, by_op.value, edit_ns.count
    tracer = Tracer()
    with installed_tracer(tracer):
        _raising_edit(world["handle"])
    assert (edits.value, by_op.value, edit_ns.count) == (
        before[0] + 1, before[1] + 1, before[2])
    [edit] = tracer.finished_spans()
    assert edit.name == "engine.incremental.edit"
    assert edit.status == "error"
    assert edit.attributes["op"] == "set_text"


def test_threaded_edits_count_exactly(world):
    threads, rounds = 8, 500  # two edits a round: 1,000 per thread
    registry = default_registry()
    edits = registry.counter("engine.incremental.edits")
    edit_ns = registry.histogram("engine.incremental.edit_ns")
    handles = [ValidatedDocument(parse_document(VALID), world["compiled"])
               for __ in range(threads)]
    barrier = threading.Barrier(threads)

    def work(handle):
        section = handle.document.root.children[2].children[0]
        barrier.wait(timeout=60)
        for number in range(rounds):
            handle.set_attribute(section, "title", str(number))
            handle.set_text(section, str(number), 0)

    before = edits.value, edit_ns.count
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often: races would show
    try:
        workers = [threading.Thread(target=work, args=(handle,))
                   for handle in handles]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    total = threads * rounds * 2
    assert edits.value - before[0] == total
    assert edit_ns.count - before[1] == total


def test_timing_histograms_read_their_spans_clock(world):
    registry = default_registry()
    edit_ns = registry.histogram("engine.incremental.edit_ns")
    doc_ns = registry.histogram("engine.stream.doc_ns")
    before = edit_ns.total, edit_ns.count, doc_ns.total, doc_ns.count
    tracer = Tracer()
    with installed_tracer(tracer):
        for kind, call in CALLS.items():
            if kind.startswith("validate"):
                call(world)
        _edit_all(world["handle"])
    summary = tracer.summary()
    edits = summary["engine.incremental.edit"]
    documents = summary["engine.validate"]
    assert (edit_ns.total - before[0], edit_ns.count - before[1]) == (
        edits["total_ns"], edits["count"])
    assert (doc_ns.total - before[2], doc_ns.count - before[3]) == (
        documents["total_ns"], documents["count"])
