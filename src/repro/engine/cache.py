"""LRU cache of compiled schemas, keyed by schema fingerprint.

Compilation (DFA construction + minimization per type) is cheap but not
free; a server validating heavy traffic sees the same few schemas over and
over.  The cache makes repeated validations of one schema pay compilation
exactly once, while bounding memory under schema churn.

The key is a structural fingerprint — a SHA-256 over a canonical
serialization of the formal XSD — rather than object identity, so two
independently parsed copies of the same ``.xsd`` share one compiled form.

Cache behaviour is observable: every :class:`SchemaCache` owns thread-safe
hit/miss/eviction counters and a compile-time histogram, and mirrors them
into a :class:`~repro.observability.MetricsRegistry` (the process default
unless one is injected) under ``engine.cache.*``.  The mirrors are bound
once, when the cache is made, from that cache's registry, so a lookup
looks up no metric by name.  ``engine.cache.size`` is the number of
schemas held by all of that registry's live caches together.
"""

from __future__ import annotations

import hashlib
import threading
import time
import weakref
from collections import OrderedDict

from repro.engine.compiler import compile_xsd
from repro.observability import Counter, Histogram, resolve_registry
from repro.observability.tracing import span


def _join(parts):
    """Length-prefixed join: unambiguous even when names contain ','."""
    return ",".join(f"{len(part)}:{part}" for part in parts)


def schema_fingerprint(xsd):
    """A stable hex digest identifying the formal XSD structurally.

    Two XSDs get the same fingerprint iff they have the same element
    names, types, start elements, and per-type content models (regex
    shape, mixedness, attribute uses).  Regexes serialize via their
    canonical printer, so structurally equal models agree.  Attribute
    uses hash in name order (declaration order is not structural — the
    validators treat attribute tuples as sets), and every joined name
    list is length-prefixed so names containing ``,`` cannot collide.
    """
    hasher = hashlib.sha256()

    def feed(part):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")

    feed("ename:" + _join(sorted(xsd.ename)))
    feed("start:" + _join(sorted(str(typed) for typed in xsd.start)))
    for type_name in sorted(xsd.rho):
        model = xsd.rho[type_name]
        feed(f"type:{len(type_name)}:{type_name}")
        feed(f"regex:{model.regex}")
        feed(f"mixed:{model.mixed}")
        for use in sorted(model.attributes, key=lambda use: use.name):
            feed(
                f"attr:{len(use.name)}:{use.name}:{use.required}:"
                f"{use.type_name}"
            )
    return hasher.hexdigest()


class SchemaCache:
    """A thread-safe LRU cache mapping fingerprints to compiled schemas.

    Attributes:
        maxsize: maximum number of compiled schemas retained.

    ``hits`` / ``misses`` / ``evictions`` are per-instance thread-safe
    counters (plain ints before the observability layer existed); the
    ``compile_ns`` histogram records per-compilation wall time.  All four
    also feed the shared registry's ``engine.cache.*`` metrics.  The
    registry's ``engine.cache.size`` gauge sums its live caches: each
    cache adds its change in length on every insert, eviction and
    :meth:`clear`, and takes what it still holds back out when it is
    collected.
    """

    __slots__ = ("maxsize", "_hits", "_misses", "_evictions", "_compile_ns",
                 "_shared", "_held", "_entries", "_lock", "_identity",
                 "__weakref__")

    def __init__(self, maxsize=64, registry=None):
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._hits = Counter("hits")
        self._misses = Counter("misses")
        self._evictions = Counter("evictions")
        self._compile_ns = Histogram("compile_ns")
        registry = resolve_registry(registry)
        # The registry's mirrors, bound once: (hits, misses, evictions,
        # compile_ns, size).
        self._shared = (
            registry.counter("engine.cache.hits"),
            registry.counter("engine.cache.misses"),
            registry.counter("engine.cache.evictions"),
            registry.histogram("engine.cache.compile_ns"),
            registry.gauge("engine.cache.size"),
        )
        # The length this cache has added to the shared size gauge.  Its
        # finalizer holds the gauge and this cell, not the cache.
        self._held = [0]
        weakref.finalize(self, _release, self._shared[4], self._held)
        self._entries = OrderedDict()
        # Re-entrant: weakref kill callbacks fire at arbitrary points
        # (any allocation can trigger GC), including while the *same*
        # thread already holds the lock inside get()/_remember() — a
        # plain Lock would self-deadlock there.
        self._lock = threading.RLock()
        # Identity fast path: id(xsd) -> (weakref, compiled).  The weak
        # reference guards against id() reuse after the original object
        # dies (its kill callback also purges the entry, so the map only
        # holds live schemas and cannot grow without bound).  All access
        # — probe, insert, purge — happens under self._lock so the
        # cache stays safe on free-threaded builds.
        self._identity = {}

    @property
    def hits(self):
        return self._hits.value

    @property
    def misses(self):
        return self._misses.value

    @property
    def evictions(self):
        return self._evictions.value

    @property
    def compile_ns(self):
        """Snapshot of the per-compilation wall-time histogram (ns)."""
        return self._compile_ns.snapshot()

    def __len__(self):
        return len(self._entries)

    def get(self, xsd):
        """The :class:`CompiledSchema` for ``xsd``, compiling on miss.

        Two-level lookup: re-presenting the *same schema object* hits an
        identity map (a dict probe and a weakref check — no fingerprint,
        microseconds) before the structural path hashes the schema.
        Both levels count as hits; the identity level also refreshes the
        entry's LRU position so identity traffic cannot get a hot
        schema's structural entry evicted.

        .. warning:: **Mutation hazard.**  Both tiers key on the schema
           as *presented*: the identity tier by ``id(xsd)``, the
           structural tier by a fingerprint computed at insertion.
           Mutating an ``XSD`` in place after it has been compiled
           (e.g. appending a rule to ``rho`` during schema evolution)
           leaves the identity tier serving the *pre-mutation* compiled
           form forever.  Call :meth:`invalidate` around the mutation;
           the next ``get`` then re-fingerprints and recompiles.
        """
        hits, misses, evictions, compile_ns, __ = self._shared
        key = id(xsd)
        with self._lock:
            entry = self._identity.get(key)
            if entry is not None and entry[0]() is not xsd:
                # A dead reference under a recycled id(): the kill
                # callback hasn't run yet, so purge the entry here
                # (under the lock) rather than alias a dead schema.
                del self._identity[key]
                entry = None
        if entry is not None:
            compiled = entry[1]
            self._hits.inc()
            hits.inc()
            with span("engine.cache.get") as trace:
                trace.set_attribute("outcome", "identity-hit")
                if compiled.fingerprint is not None:
                    trace.set_attribute("schema", compiled.fingerprint[:12])
            fingerprint = compiled.fingerprint
            if fingerprint is not None:
                with self._lock:
                    if fingerprint in self._entries:
                        self._entries.move_to_end(fingerprint)
            return compiled
        with span("engine.cache.get") as trace:
            fingerprint = schema_fingerprint(xsd)
            trace.set_attribute("fingerprint", fingerprint[:12])
            trace.set_attribute("schema", fingerprint[:12])
            with self._lock:
                compiled = self._entries.get(fingerprint)
                if compiled is not None:
                    self._entries.move_to_end(fingerprint)
                    self._hits.inc()
                    hits.inc()
                    trace.set_attribute("outcome", "hit")
                    self._remember(xsd, compiled)
                    return compiled
                self._misses.inc()
                misses.inc()
            trace.set_attribute("outcome", "miss")
            # Compile outside the lock: compilation can be slow and is
            # idempotent — a racing duplicate is harmless and rare.
            started = time.perf_counter_ns()
            compiled = compile_xsd(xsd, fingerprint=fingerprint)
            elapsed = time.perf_counter_ns() - started
            self._compile_ns.observe(elapsed)
            compile_ns.observe(elapsed)
            evicted = 0
            with self._lock:
                self._entries[fingerprint] = compiled
                self._entries.move_to_end(fingerprint)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    evicted += 1
                self._count_size()
            if evicted:
                self._evictions.inc(evicted)
                evictions.inc(evicted)
            self._remember(xsd, compiled)
            return compiled

    def _count_size(self):
        """Move the registry's size gauge by this cache's change in
        length since it last counted; the caller holds ``self._lock``."""
        held = self._held
        change = len(self._entries) - held[0]
        if change:
            held[0] += change
            self._shared[4].add(change)

    def _remember(self, xsd, compiled):
        """Register ``xsd`` in the identity map (best effort).

        The weakref's kill callback purges the entry when the schema
        object dies, so a recycled ``id()`` can never alias a dead
        schema to the wrong compiled form.  Schemas that don't support
        weak references are simply not identity-cached.  Both the
        insert and the callback's purge take ``self._lock`` (re-entrant
        — the callback may fire on this very thread mid-``get``).
        """
        key = id(xsd)
        lock = self._lock
        identity = self._identity

        def _kill(_ref, _key=key):
            with lock:
                identity.pop(_key, None)

        try:
            ref = weakref.ref(xsd, _kill)
        except TypeError:
            return
        with lock:
            identity[key] = (ref, compiled)

    def invalidate(self, xsd):
        """Drop the identity-tier entry for this exact schema object.

        Call this around an in-place mutation of a compiled schema
        (see the hazard note on :meth:`get`): the next ``get`` falls
        through to the structural tier, re-fingerprints the mutated
        schema, and recompiles.  The structural tier is left alone —
        the old fingerprint still correctly describes the pre-mutation
        language, which other (unmutated) copies may share.

        Returns True when an entry was actually dropped.
        """
        with self._lock:
            return self._identity.pop(id(xsd), None) is not None

    def clear(self):
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._identity.clear()
            self._count_size()


def _release(size, held):
    """A collected cache's finalizer: take the length it still held out
    of its registry's size gauge, without waiting on the gauge's lock."""
    size.release(held[0])


_default_cache = SchemaCache(maxsize=64)


def default_cache():
    """The process-wide schema cache used by the CLI and batch API."""
    return _default_cache


def compile_cached(xsd, cache=None):
    """Compile ``xsd`` through a cache (the default one if none given)."""
    return (cache or _default_cache).get(xsd)
