"""Unit tests for the compiled-schema cache and the batch API."""

import pytest

from repro.engine import (
    SchemaCache,
    compile_xsd,
    schema_fingerprint,
    validate_many,
)
from repro.paperdata import FIGURE1_XML, figure3_xsd
from repro.xmlmodel import parse_document


@pytest.fixture
def xsd():
    return figure3_xsd()


class TestSchemaCache:
    def test_hit_returns_same_object(self, xsd):
        cache = SchemaCache(maxsize=4)
        first = cache.get(xsd)
        second = cache.get(figure3_xsd())  # independently parsed copy
        assert first is second
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1

    def test_lru_eviction(self):
        from repro.regex.ast import star, sym
        from repro.xsd.content import ContentModel
        from repro.xsd.model import XSD
        from repro.xsd.typednames import TypedName

        def tiny(root):
            return XSD(
                ename={root},
                types={"T"},
                rho={"T": ContentModel(star(sym(TypedName(root, "T"))))},
                start={TypedName(root, "T")},
            )

        cache = SchemaCache(maxsize=2)
        first = cache.get(tiny("a"))
        cache.get(tiny("b"))
        cache.get(tiny("c"))  # evicts "a" (least recently used)
        assert len(cache) == 2
        assert cache.get(tiny("a")) is not first  # recompiled
        assert cache.get(tiny("c")) is not None  # still resident
        assert cache.misses == 4 and cache.hits == 1

    def test_fingerprint_ignores_dict_order(self, xsd):
        reordered = dict(reversed(list(xsd.rho.items())))
        from repro.xsd.model import XSD

        copy = XSD(ename=xsd.ename, types=xsd.types, rho=reordered,
                   start=xsd.start, check=False)
        assert schema_fingerprint(xsd) == schema_fingerprint(copy)

    def test_identity_hit_skips_fingerprint(self, xsd):
        # Regression: re-presenting the *same* schema object used to
        # recompute the SHA-256 fingerprint on every hit.  The tracing
        # ring proves the identity path: its engine.cache.get span
        # carries outcome="identity-hit" and — crucially — no
        # "fingerprint" attribute, which only the structural path sets.
        from repro.observability.tracing import Tracer

        cache = SchemaCache(maxsize=4)
        cache.get(xsd)  # miss: compiles and registers the identity
        with Tracer() as tracer:
            for __ in range(3):
                assert cache.get(xsd) is not None
        spans = [s for s in tracer.finished_spans()
                 if s.name == "engine.cache.get"]
        assert len(spans) == 3
        for span in spans:
            assert span.attributes["outcome"] == "identity-hit"
            assert "fingerprint" not in span.attributes
        assert cache.hits == 3 and cache.misses == 1

    def test_identity_hits_count_and_refresh_lru(self, xsd):
        cache = SchemaCache(maxsize=4)
        compiled = cache.get(xsd)
        assert cache.get(xsd) is compiled
        assert cache.hits == 1 and cache.misses == 1

    def test_structural_hit_promotes_to_identity(self, xsd):
        # A second parsed copy hits structurally once, then its own
        # subsequent lookups take the identity path.
        from repro.observability.tracing import Tracer

        cache = SchemaCache(maxsize=4)
        cache.get(xsd)
        copy = figure3_xsd()
        with Tracer() as tracer:
            cache.get(copy)   # structural hit (fingerprint computed)
            cache.get(copy)   # identity hit
        outcomes = [s.attributes["outcome"]
                    for s in tracer.finished_spans()
                    if s.name == "engine.cache.get"]
        assert outcomes == ["hit", "identity-hit"]

    def test_dead_schema_identity_entry_is_purged(self):
        import gc

        cache = SchemaCache(maxsize=4)
        xsd = figure3_xsd()
        cache.get(xsd)
        assert len(cache._identity) == 1
        del xsd
        gc.collect()
        assert len(cache._identity) == 0

    def test_clear_drops_identity_entries(self, xsd):
        from repro.observability.tracing import Tracer

        cache = SchemaCache(maxsize=4)
        cache.get(xsd)
        cache.clear()
        with Tracer() as tracer:
            cache.get(xsd)  # must recompile, not identity-hit
        outcomes = [s.attributes["outcome"]
                    for s in tracer.finished_spans()
                    if s.name == "engine.cache.get"]
        assert outcomes == ["miss"]

    def test_invalidate_drops_stale_identity_entry(self):
        # Regression: mutating an XSD in place left the identity tier
        # serving the pre-mutation compiled form forever (the hazard is
        # documented on get()); invalidate() is the escape hatch.
        from repro.engine import StreamingValidator
        from repro.regex.ast import star, sym
        from repro.xsd.content import ContentModel
        from repro.xsd.model import XSD
        from repro.xsd.typednames import TypedName

        xsd = XSD(
            ename={"a"},
            types={"T"},
            rho={"T": ContentModel(star(sym(TypedName("a", "T"))))},
            start={TypedName("a", "T")},
        )
        cache = SchemaCache(maxsize=4)
        doc = parse_document("<a><a/></a>")
        assert StreamingValidator(cache.get(xsd)).validate(doc).valid

        # In-place evolution: now exactly one <a> child is required.
        xsd.rho = {"T": ContentModel(sym(TypedName("a", "T")))}
        # The hazard itself: the identity tier still serves the stale
        # star-form tables...
        assert StreamingValidator(cache.get(xsd)).validate(doc).valid
        # ...until the entry is invalidated.
        assert cache.invalidate(xsd) is True
        report = StreamingValidator(cache.get(xsd)).validate(doc)
        assert not report.valid  # the leaf <a/> now lacks its child
        assert cache.invalidate(figure3_xsd()) is False  # never cached

    def test_identity_tier_survives_concurrent_churn(self, xsd):
        # Regression: _identity was probed, written, and purged without
        # the lock; hammer it from several threads while schema objects
        # die (kill callbacks) and invalidations race the probes.
        import threading

        from repro.regex.ast import star, sym
        from repro.xsd.content import ContentModel
        from repro.xsd.model import XSD
        from repro.xsd.typednames import TypedName

        def tiny(root):
            return XSD(
                ename={root},
                types={"T"},
                rho={"T": ContentModel(star(sym(TypedName(root, "T"))))},
                start={TypedName(root, "T")},
            )

        cache = SchemaCache(maxsize=4)
        fingerprint = schema_fingerprint(xsd)
        errors = []
        barrier = threading.Barrier(4)

        def hammer():
            try:
                barrier.wait()
                for __ in range(400):
                    # Eviction by the churn threads may force a
                    # recompile, but every answer must be *a* compiled
                    # form of this schema — never a dead entry, never a
                    # KeyError from a racing kill callback.
                    compiled = cache.get(xsd)
                    assert compiled.fingerprint == fingerprint
                    cache.invalidate(xsd)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        def churn(prefix):
            try:
                barrier.wait()
                for step in range(400):
                    # Fresh short-lived schemas: eviction + weakref
                    # death exercise the kill callback concurrently.
                    cache.get(tiny(f"{prefix}{step % 6}"))
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=hammer),
                   threading.Thread(target=hammer),
                   threading.Thread(target=churn, args=("p",)),
                   threading.Thread(target=churn, args=("q",))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert cache.get(xsd).fingerprint == fingerprint

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            SchemaCache(maxsize=0)


class TestFingerprintCanonicalization:
    """Regression tests: the fingerprint is structural, not incidental."""

    @staticmethod
    def _with_attributes(attributes):
        from repro.regex.ast import star, sym
        from repro.xsd.content import ContentModel
        from repro.xsd.model import XSD
        from repro.xsd.typednames import TypedName

        return XSD(
            ename={"r"},
            types={"T"},
            rho={
                "T": ContentModel(
                    star(sym(TypedName("r", "T"))), attributes=attributes
                )
            },
            start={TypedName("r", "T")},
        )

    def test_attribute_declaration_order_is_ignored(self):
        from repro.xsd.content import AttributeUse

        forward = self._with_attributes(
            (AttributeUse("x"), AttributeUse("y", required=False))
        )
        reversed_ = self._with_attributes(
            (AttributeUse("y", required=False), AttributeUse("x"))
        )
        assert schema_fingerprint(forward) == schema_fingerprint(reversed_)

    def test_attribute_structure_still_distinguishes(self):
        from repro.xsd.content import AttributeUse

        required = self._with_attributes((AttributeUse("x"),))
        optional = self._with_attributes((AttributeUse("x", required=False),))
        assert schema_fingerprint(required) != schema_fingerprint(optional)

    def test_comma_in_names_cannot_collide(self):
        # Joining {"a,b"} and {"a", "b"} with a bare comma collides; the
        # length-prefixed encoding must not.  The formal XSD class never
        # sees such names in practice, so fingerprint the duck-typed shape
        # directly.
        from types import SimpleNamespace

        merged = SimpleNamespace(ename={"a,b"}, start=set(), rho={})
        split = SimpleNamespace(ename={"a", "b"}, start=set(), rho={})
        assert schema_fingerprint(merged) != schema_fingerprint(split)


class TestValidateMany:
    def test_mixed_sources_serial(self, xsd):
        document = parse_document(FIGURE1_XML)
        bad = FIGURE1_XML.replace('<color color="red"/>', "<color/>", 1)
        reports = validate_many(xsd, [FIGURE1_XML, document, bad])
        assert [r.valid for r in reports] == [True, True, False]
        assert "missing required" in reports[2].violations[0]

    def test_worker_pool_preserves_order(self, xsd):
        bad = FIGURE1_XML.replace('<color color="red"/>', "<color/>", 1)
        sources = [FIGURE1_XML, bad] * 8
        reports = validate_many(xsd, sources, workers=4)
        assert [r.valid for r in reports] == [True, False] * 8

    def test_precompiled_schema_accepted(self, xsd):
        compiled = compile_xsd(xsd)
        reports = validate_many(compiled, [FIGURE1_XML])
        assert reports[0].valid

    def test_tree_engine_agrees(self, xsd):
        bad = FIGURE1_XML.replace('<color color="red"/>', "<color/>", 1)
        streaming = validate_many(xsd, [FIGURE1_XML, bad])
        tree = validate_many(xsd, [FIGURE1_XML, bad], engine="tree")
        for left, right in zip(streaming, tree):
            assert left.valid == right.valid
            assert sorted(left.violations) == sorted(right.violations)

    def test_bytes_sources_on_both_engines(self, xsd):
        # Bytes decode as UTF-8, as validate(b"...") does; undecodable
        # bytes are a parse error, not an internal one.
        from repro.xmlmodel import iter_events

        bad = FIGURE1_XML.replace('<color color="red"/>', "<color/>", 1)
        sources = [FIGURE1_XML.encode("utf-8"), bytearray(bad.encode()),
                   b"<document>\xff</document>"]
        runs = [
            validate_many(compile_xsd(xsd), sources, policy="isolate"),
            validate_many(xsd, sources, engine="tree", policy="isolate"),
        ]
        for outcomes in runs:
            assert [o.ok for o in outcomes] == [True, True, False]
            assert [o.valid for o in outcomes[:2]] == [True, False]
            assert outcomes[2].error.kind == "parse"
            assert "not valid UTF-8" in outcomes[2].error.message
        # The tree engine takes event streams too, like the streaming one.
        tree = validate_many(xsd, [iter_events(bad)], engine="tree")
        assert sorted(tree[0].violations) == sorted(
            runs[0][1].report.violations
        )

    @pytest.mark.parametrize("events", [
        [],  # no element
        [("start", "document", {})],  # ends inside <document>
        [("end", "document")],  # closes nothing
    ])
    def test_malformed_streams_are_parse_errors(self, xsd, events):
        for engine in ("streaming", "tree"):
            outcome = validate_many(
                xsd, [iter(events)], engine=engine, policy="isolate"
            )[0]
            assert outcome.error.kind == "parse", engine

    def test_stream_with_two_roots(self, xsd):
        # An undeclared root before the real one: the streaming engine
        # reports it; the tree engine cannot fold two roots into one
        # tree, so the stream is a parse error there.
        events = [("start", "bogus", {}), ("end", "bogus")]
        events += list(parse_document(FIGURE1_XML).events())
        streaming, tree = (
            validate_many(xsd, [iter(events)], engine=engine,
                          policy="isolate")[0]
            for engine in ("streaming", "tree")
        )
        assert streaming.ok and not streaming.valid
        assert "root element <bogus> is not declared" in (
            streaming.report.violations[0]
        )
        assert tree.error.kind == "parse"
        assert "more than one root" in tree.error.message

    def test_tree_engine_rejects_compiled(self, xsd):
        with pytest.raises(ValueError):
            validate_many(compile_xsd(xsd), [FIGURE1_XML], engine="tree")

    def test_unknown_engine(self, xsd):
        with pytest.raises(ValueError):
            validate_many(xsd, [], engine="warp")


class TestSharedCacheChurn:
    """The serve-daemon usage pattern: one cache, many threads, schema
    churn past ``maxsize``, invalidations racing the probes."""

    def _distinct_schemas(self, count):
        from repro.regex.ast import star, sym
        from repro.xsd.content import ContentModel
        from repro.xsd.model import XSD
        from repro.xsd.typednames import TypedName

        schemas = []
        for index in range(count):
            root = f"root{index}"
            schemas.append(XSD(
                ename={root},
                types={"T"},
                rho={"T": ContentModel(star(sym(TypedName(root, "T"))))},
                start={TypedName(root, "T")},
            ))
        return schemas

    def test_many_schemas_shared_under_churn_and_invalidation(self):
        import threading

        maxsize = 4
        schemas = self._distinct_schemas(12)  # M > maxsize forces churn
        expected = [schema_fingerprint(s) for s in schemas]
        cache = SchemaCache(maxsize=maxsize)
        rounds = 60
        thread_count = 6
        errors = []
        barrier = threading.Barrier(thread_count)

        def worker(seed):
            try:
                barrier.wait()
                for step in range(rounds):
                    index = (seed * 7 + step) % len(schemas)
                    compiled = cache.get(schemas[index])
                    # Never a stale identity hit: the answer always
                    # matches the schema that was asked for.
                    assert compiled.fingerprint == expected[index]
                    if step % 5 == seed % 5:
                        cache.invalidate(schemas[index])
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Accounting stays consistent under the race: every get was
        # exactly one hit or one miss, and eviction kept its bound.
        gets = rounds * thread_count
        assert cache.hits + cache.misses == gets
        assert cache.misses >= len(schemas)  # first sight of each schema
        assert len(cache) <= maxsize
        # Entries leave by eviction or invalidation; with 12 schemas
        # cycling through 4 slots the evictor must have fired.
        assert cache.evictions > 0

    def test_post_churn_cache_still_serves_identity_hits(self):
        schemas = self._distinct_schemas(8)
        cache = SchemaCache(maxsize=2)
        for schema in schemas:
            cache.get(schema)
        survivor = schemas[-1]
        hits_before = cache.hits
        assert cache.get(survivor).fingerprint == (
            schema_fingerprint(survivor)
        )
        assert cache.hits == hits_before + 1
