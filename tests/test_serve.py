"""End-to-end tests for the ``repro serve`` daemon over real sockets."""

import http.client
import json
import threading
import time

import pytest

from repro.families import ordinary_xsd
from repro.observability import MetricsRegistry
from repro.serve import ServeConfig, start_in_thread

from repro.paperdata import FIGURE1_XML, FIGURE3_XSD

#: Well-formed XML that does not parse: mismatched end tag under a
#: declared root (an undeclared root would be reported as a schema
#: violation before the parse error position is reached).
MALFORMED_XML = "<document><content></document>"

INVALID_XML = "<document><content/></document>"


def blowup_bonxai(n=6):
    """A Theorem 9 instance as BonXai text: compilation state-explodes."""
    from repro.bonxai import bxsd_to_schema, print_schema
    from repro.families import theorem9_bxsd

    return print_schema(bxsd_to_schema(theorem9_bxsd(n)))


def counted_all_xsd(members=6):
    """An ``xs:all`` of ``{2,3}``-counted members: outside the bag shape,
    so compiling it builds a 4097-state content DFA."""
    particles = "".join(
        f'<xs:element name="m{i}" type="xs:string" minOccurs="2" '
        f'maxOccurs="3"/>'
        for i in range(members)
    )
    return (
        '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">'
        '<xs:element name="rec"><xs:complexType><xs:all>'
        f"{particles}</xs:all></xs:complexType></xs:element>"
        "</xs:schema>"
    )


def request(port, method, path, body=None, headers=None, timeout=10.0):
    """One HTTP request; returns ``(status, decoded body, headers)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        decoded = (
            json.loads(raw) if content_type.startswith("application/json")
            else raw.decode("utf-8")
        )
        return response.status, decoded, dict(response.getheaders())
    finally:
        conn.close()


def validate_body(document=FIGURE1_XML, schema=FIGURE3_XSD, kind="xsd",
                  **extra):
    body = {"schema": schema, "schema_kind": kind, "document": document}
    body.update(extra)
    return body


@pytest.fixture(scope="module")
def server():
    registry = MetricsRegistry()
    handle = start_in_thread(
        ServeConfig(port=0, workers=2, queue_depth=4),
        registry=registry,
    )
    handle.registry = registry
    with handle:
        yield handle


class TestRoutes:
    def test_validate_valid_document(self, server):
        status, body, __ = request(
            server.port, "POST", "/validate", validate_body()
        )
        assert status == 200
        assert body["valid"] is True
        assert body["violations"] == []
        assert body["elapsed_seconds"] >= 0

    def test_validate_invalid_document(self, server):
        status, body, __ = request(
            server.port, "POST", "/validate",
            validate_body(document=INVALID_XML),
        )
        assert status == 200
        assert body["valid"] is False
        assert body["violations"]

    def test_malformed_document_is_422(self, server):
        status, body, __ = request(
            server.port, "POST", "/validate",
            validate_body(document=MALFORMED_XML),
        )
        assert status == 422
        assert body["error"] == "parse"
        assert body["line"] == 1

    def test_malformed_schema_is_422(self, server):
        status, body, __ = request(
            server.port, "POST", "/validate",
            validate_body(schema="<xs:schema"),
        )
        assert status == 422
        assert body["error"] == "schema"

    @pytest.mark.parametrize("kind", ["dtd", "bonxai"])
    def test_schema_with_a_byte_order_mark_answers_as_without(self, server,
                                                              kind):
        from repro.paperdata import FIGURE2_DTD, FIGURE5_BONXAI

        schema = FIGURE2_DTD if kind == "dtd" else FIGURE5_BONXAI
        answers = []
        for text in (schema, "\ufeff" + schema):
            for document in (FIGURE1_XML, INVALID_XML):
                status, body, __ = request(
                    server.port, "POST", "/validate",
                    validate_body(document=document, schema=text, kind=kind),
                )
                answers.append((status, body.get("valid"),
                                body.get("violations")))
        assert answers[2:] == answers[:2]
        assert [answer[:2] for answer in answers[:2]] == [
            (200, True), (200, False)]

    def test_unknown_schema_kind_is_400(self, server):
        status, body, __ = request(
            server.port, "POST", "/validate",
            validate_body(kind="relaxng"),
        )
        assert status == 400

    def test_missing_fields_are_400(self, server):
        status, __, __ = request(
            server.port, "POST", "/validate", {"schema_kind": "xsd"}
        )
        assert status == 400

    def test_bad_json_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            conn.request("POST", "/validate", body="{nope")
            response = conn.getresponse()
            assert response.status == 400
            response.read()
        finally:
            conn.close()

    def test_unknown_path_is_404_and_get_on_post_route_is_405(self, server):
        assert request(server.port, "GET", "/nope")[0] == 404
        assert request(server.port, "GET", "/validate")[0] == 405

    def test_explain_route(self, server):
        status, body, __ = request(
            server.port, "POST", "/explain", validate_body()
        )
        assert status == 200
        assert body["valid"] is True
        assert body["elements"]
        assert all("verdict" in entry for entry in body["elements"])

    def test_patch_route_applies_and_returns_document(self, server):
        # Repaint Figure 1's blue splash red (child-index sel paths).
        patch = (
            '<patch>'
            '<replace sel="2/1/1" type="@color">red</replace>'
            '</patch>'
        )
        status, body, __ = request(
            server.port, "POST", "/patch",
            validate_body(patches=[patch]),
        )
        assert status == 200
        assert body["applied"] == 1
        assert 'color="red"' in body["document"]

    def test_explain_and_patch_build_trees_on_the_byte_tier(self, server):
        from repro.observability import default_registry

        registry = default_registry()
        trees = registry.counter("xmlmodel.parse.byte_docs")
        fallbacks = registry.counter("xmlmodel.parse.fallbacks")
        patch = ('<patch><replace sel="2/1/1" type="@color">red</replace>'
                 '</patch>')
        # /patch parses the document and each patch document.
        for path, extra, parsed in (("/explain", {}, 1),
                                    ("/patch", {"patches": [patch]}, 2)):
            request(server.port, "POST", path, validate_body(**extra))
            before = trees.value, fallbacks.value
            status, __, __ = request(server.port, "POST", path,
                                     validate_body(**extra))
            assert status == 200
            assert (trees.value, fallbacks.value) == (before[0] + parsed,
                                                      before[1])

    def test_malformed_patch_is_422(self, server):
        status, body, __ = request(
            server.port, "POST", "/patch",
            validate_body(patches=['<patch><remove/></patch>']),
        )
        assert status == 422
        assert body["error"] == "patch"

    def test_patch_route_requires_a_patch_list(self, server):
        status, __, __ = request(
            server.port, "POST", "/patch",
            validate_body(patches="not-a-list"),
        )
        assert status == 400

    def test_tiny_deadline_is_504(self, server):
        status, body, __ = request(
            server.port, "POST", "/validate",
            validate_body(deadline=1e-9),
        )
        assert status == 504
        assert body["error"] == "deadline"

    def test_keep_alive_serves_multiple_requests_per_connection(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            for __ in range(3):
                conn.request("POST", "/validate",
                             body=json.dumps(validate_body()))
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()


class TestOperationalEndpoints:
    def test_healthz_and_readyz(self, server):
        assert request(server.port, "GET", "/healthz")[0] == 200
        status, body, __ = request(server.port, "GET", "/readyz")
        assert status == 200 and body["ready"] is True

    def test_metrics_exposition(self, server):
        request(server.port, "POST", "/validate", validate_body())
        status, text, headers = request(server.port, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE serve_requests counter" in text
        assert "serve_up 1" in text
        assert 'serve_requests_by{' in text

    def test_requests_counted_per_tenant_and_code(self, server):
        request(server.port, "POST", "/validate", validate_body(),
                headers={"X-Tenant": "acme"})
        counters = server.registry.snapshot()["counters"]
        assert counters['serve.requests.by{code="200",tenant="acme"}'] >= 1


class TestOverload:
    def test_excess_load_sheds_with_429_and_retry_after(self):
        registry = MetricsRegistry()
        config = ServeConfig(port=0, workers=1, queue_depth=0,
                             tenant_inflight=None)
        with start_in_thread(config, registry=registry) as handle:
            # A document big enough to hold the only worker for a while.
            big = ("<document><title/><author/>"
                   + "<content/>" * 60_000 + "</document>")
            results = []

            def slow():
                results.append(request(
                    handle.port, "POST", "/validate",
                    validate_body(document=big),
                ))

            thread = threading.Thread(target=slow)
            thread.start()
            # Wait until the slow request holds the only admission slot.
            deadline = time.monotonic() + 5.0
            while (handle.daemon.admission.inflight < 1
                   and time.monotonic() < deadline):
                time.sleep(0.002)
            assert handle.daemon.admission.inflight >= 1
            status, body, headers = request(
                handle.port, "POST", "/validate", validate_body()
            )
            thread.join()
            assert status == 429
            assert body["error"] == "queue_full"
            assert int(headers["Retry-After"]) >= 1
            assert results[0][0] == 200
            counters = registry.snapshot()["counters"]
            assert counters["serve.shed"] >= 1

    def test_tenant_cap_sheds_with_tenant_budget(self):
        config = ServeConfig(port=0, workers=2, queue_depth=2,
                             tenant_inflight=1)
        with start_in_thread(config, registry=MetricsRegistry()) as handle:
            big = ("<document><title/><author/>"
                   + "<content/>" * 60_000 + "</document>")
            results = []

            def slow():
                results.append(request(
                    handle.port, "POST", "/validate",
                    validate_body(document=big),
                    headers={"X-Tenant": "greedy"},
                ))

            thread = threading.Thread(target=slow)
            thread.start()
            deadline = time.monotonic() + 5.0
            while (handle.daemon.admission.inflight < 1
                   and time.monotonic() < deadline):
                time.sleep(0.002)
            status, body, __ = request(
                handle.port, "POST", "/validate", validate_body(),
                headers={"X-Tenant": "greedy"},
            )
            polite = request(
                handle.port, "POST", "/validate", validate_body(),
                headers={"X-Tenant": "polite"},
            )
            thread.join()
            assert status == 429 and body["error"] == "tenant_budget"
            assert polite[0] == 200


class TestBreaker:
    def test_budget_blowups_quarantine_then_fail_fast(self):
        registry = MetricsRegistry()
        config = ServeConfig(
            port=0, workers=2, queue_depth=4, budget_states=200,
            breaker_threshold=2, breaker_cooldown=60.0,
            breaker_global_limit=1,
        )
        with start_in_thread(config, registry=registry) as handle:
            body = validate_body(schema=blowup_bonxai(), kind="bonxai")
            # Below the threshold: each request burns a real budget.
            status, payload, __ = request(
                handle.port, "POST", "/validate", body
            )
            assert status == 503 and payload["error"] == "budget"
            status, payload, __ = request(
                handle.port, "POST", "/validate", body
            )
            assert status == 503 and payload["error"] == "budget"
            # At the threshold the circuit is open: fail fast, cached
            # stats, no recompile.
            started = time.perf_counter()
            status, payload, headers = request(
                handle.port, "POST", "/validate", body
            )
            elapsed = time.perf_counter() - started
            assert status == 503
            assert payload["error"] == "quarantined"
            assert payload["retry_after"] > 0
            assert payload["stats"]  # the cached BudgetExceeded figures
            assert int(headers["Retry-After"]) >= 1
            assert elapsed < 0.5
            # global_limit=1: one open circuit flips readiness.
            status, payload, __ = request(handle.port, "GET", "/readyz")
            assert status == 503
            assert payload["reason"] == "breaker_global_trip"
            counters = registry.snapshot()["counters"]
            assert counters["serve.breaker.trips"] >= 1
            assert counters["serve.breaker.fastfail"] >= 1
            # A healthy schema on the same server still validates.
            status, payload, __ = request(
                handle.port, "POST", "/validate", validate_body()
            )
            assert status == 200 and payload["valid"] is True


    def test_counted_all_group_compile_is_quarantined(self):
        # The engine's own DFA compile (not a translation) charges the
        # budget, so an oversized all-group trips it and the breaker.
        config = ServeConfig(
            port=0, workers=2, queue_depth=4, budget_states=1000,
            budget_seconds=0.5, breaker_threshold=2, breaker_cooldown=60.0,
        )
        with start_in_thread(config, registry=MetricsRegistry()) as handle:
            body = validate_body(schema=counted_all_xsd(),
                                 document="<rec/>")
            for __ in range(2):
                status, payload, __ = request(
                    handle.port, "POST", "/validate", body
                )
                assert status == 503 and payload["error"] == "budget"
            status, payload, __ = request(
                handle.port, "POST", "/validate", body
            )
            assert status == 503 and payload["error"] == "quarantined"
            assert payload["stats"]["where"] == "regex.to_dfa"


    def test_many_type_ordinary_schema_compiles_within_the_default(self):
        # Each ordered type's content DFA is charged (12 states for a
        # 10-element sequence), well inside the default allowance.
        registry = MetricsRegistry()
        config = ServeConfig(port=0, workers=2, queue_depth=4)
        schema, document, types = ordinary_xsd()
        assert types == 111
        with start_in_thread(config, registry=registry) as handle:
            status, payload, __ = request(
                handle.port, "POST", "/validate",
                validate_body(schema=schema, document=document),
            )
            assert status == 200 and payload["valid"] is True
        charged = sum(
            value for name, value in registry.snapshot()["counters"].items()
            if name.startswith("serve.tenant.compile_states")
        )
        assert 0 < charged < config.budget_states // 10


class TestDrain:
    def test_stop_drains_cleanly_and_refuses_new_connections(self):
        registry = MetricsRegistry()
        config = ServeConfig(port=0, workers=2, queue_depth=4)
        with start_in_thread(config, registry=registry) as handle:
            port = handle.port
            status, __, __ = request(port, "POST", "/validate",
                                     validate_body())
            assert status == 200
            assert handle.stop() == 0
        with pytest.raises(OSError):
            request(port, "GET", "/healthz", timeout=2.0)
        counters = registry.snapshot()["counters"]
        assert counters.get("serve.drain.aborted", 0) == 0
        gauges = registry.snapshot()["gauges"]
        assert gauges["serve.up"] == 0

    def test_inflight_request_finishes_before_drain_completes(self):
        config = ServeConfig(port=0, workers=1, queue_depth=0,
                             drain_deadline=10.0)
        with start_in_thread(config, registry=MetricsRegistry()) as handle:
            big = ("<document><title/><author/>"
                   + "<content/>" * 60_000 + "</document>")
            results = []

            def slow():
                results.append(request(
                    handle.port, "POST", "/validate",
                    validate_body(document=big),
                ))

            thread = threading.Thread(target=slow)
            thread.start()
            deadline = time.monotonic() + 5.0
            while (handle.daemon.admission.inflight < 1
                   and time.monotonic() < deadline):
                time.sleep(0.002)
            assert handle.stop() == 0
            thread.join()
            # Zero dropped inflight: the admitted request got its answer.
            assert results[0][0] == 200
            assert "valid" in results[0][1]
