"""End-to-end smoke for the serve daemon (``make serve-smoke``).

Starts ``repro serve`` as a real subprocess on an ephemeral port and
drives the service claims from the outside, exactly as a deployment
would see them:

* a well-formed valid document answers **200** with ``valid: true``;
* a malformed document answers **422** with a structured parse error
  (never a traceback, never a hung worker);
* both ran on the dense path: ``/metrics`` counts one dense commit and
  one fallback to the compat loop, which wrote the parse error;
* a Theorem 9 budget-blowup schema answers **503** while it burns real
  compile budgets, then — past the breaker threshold — **fail-fast 503**
  with the *cached* exhaustion stats and a ``Retry-After`` hint (the
  quarantined schema no longer costs a recompile);
* ``/healthz`` stays 200 throughout, and ``/metrics`` exposes the
  request/shed/breaker counters in Prometheus text format;
* SIGTERM drains gracefully: the process exits 0 on its own, with the
  final metrics snapshot flushed to ``--metrics-file``.

Exits nonzero with a diagnostic on any failure, so it gates
``make check``.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

TIMEOUT = 30.0


def check(condition, message):
    if not condition:
        print(f"serve-smoke FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def request(port, method, path, body=None, timeout=10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload)
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


def blowup_bonxai(n=6):
    from repro.bonxai import bxsd_to_schema, print_schema
    from repro.families import theorem9_bxsd

    return print_schema(bxsd_to_schema(theorem9_bxsd(n)))


def main():
    from repro.paperdata import FIGURE1_XML, FIGURE3_XSD

    metrics_file = pathlib.Path(tempfile.mkdtemp()) / "serve_metrics.prom"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--workers", "2", "--queue-depth", "4",
         "--budget-states", "200", "--breaker-threshold", "2",
         "--breaker-cooldown", "60",
         "--metrics-file", str(metrics_file)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    try:
        announce = process.stdout.readline().strip()
        check(announce.startswith("serving on http://"),
              f"unexpected announce line {announce!r}")
        port = int(announce.rsplit(":", 1)[1])

        # -- the happy path --------------------------------------------
        status, body, __ = request(port, "POST", "/validate", {
            "schema": FIGURE3_XSD, "schema_kind": "xsd",
            "document": FIGURE1_XML,
        })
        check(status == 200, f"valid document answered {status}: {body}")
        check(body["valid"] is True, f"expected valid, got {body}")

        # -- malformed document: structured 422, worker survives -------
        status, body, __ = request(port, "POST", "/validate", {
            "schema": FIGURE3_XSD, "schema_kind": "xsd",
            "document": "<document><content></document>",
        })
        check(status == 422, f"malformed document answered {status}")
        check(body["error"] == "parse", f"expected parse error, got {body}")

        # -- both took the dense scan; the malformed one fell back -----
        status, text, __ = request(port, "GET", "/metrics")
        check(status == 200, "metrics scrape failed")
        series = text.splitlines()
        for needle in ("engine_dense_docs 1", "engine_dense_fallbacks 1"):
            check(needle in series,
                  f"/validate left the dense path: no {needle!r} series")

        # -- budget blowup: 503 under budget, then quarantined ---------
        blowup = {
            "schema": blowup_bonxai(), "schema_kind": "bonxai",
            "document": FIGURE1_XML,
        }
        for round_number in (1, 2):
            status, body, __ = request(port, "POST", "/validate", blowup)
            check(status in (429, 503),
                  f"blowup round {round_number} answered {status}")
            check(body["error"] == "budget",
                  f"blowup round {round_number}: {body}")

        started = time.perf_counter()
        status, body, headers = request(port, "POST", "/validate", blowup)
        fastfail = time.perf_counter() - started
        check(status == 503, f"quarantined schema answered {status}")
        check(body["error"] == "quarantined",
              f"expected quarantine, got {body}")
        check(body["stats"], "quarantine response lost the cached stats")
        check("Retry-After" in headers, "quarantine lacks Retry-After")
        check(fastfail < 1.0,
              f"quarantined fail-fast took {fastfail:.2f}s (no recompile "
              "should mean milliseconds)")

        # -- liveness + metrics ----------------------------------------
        status, __, __ = request(port, "GET", "/healthz")
        check(status == 200, "healthz is not 200 under quarantine")
        status, text, __ = request(port, "GET", "/metrics")
        check(status == 200, "metrics scrape failed")
        for needle in ("# TYPE serve_requests counter",
                       "serve_breaker_trips", "serve_up 1"):
            check(needle in text, f"metrics exposition lacks {needle!r}")

        # -- graceful drain --------------------------------------------
        process.send_signal(signal.SIGTERM)
        exit_code = process.wait(timeout=TIMEOUT)
        check(exit_code == 0, f"SIGTERM drain exited {exit_code}")
        check(metrics_file.exists(), "final metrics snapshot not flushed")
        flushed = metrics_file.read_text(encoding="utf-8")
        check("serve_up 0" in flushed,
              "flushed snapshot does not record shutdown")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    print("serve-smoke OK: 200 valid (dense) / 422 malformed (fallback) / "
          "503 budget / "
          f"quarantine fail-fast {fastfail * 1000:.0f} ms / metrics "
          "scraped / SIGTERM drained with exit 0")


if __name__ == "__main__":
    main()
