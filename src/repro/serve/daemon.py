"""The asyncio front-end of ``repro serve``.

One event loop accepts connections (plain HTTP/1.1 over
:func:`asyncio.start_server`, keep-alive supported) and runs the cheap
per-request work inline: parse, route, admission.  Admitted requests
are handed to a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
running :meth:`~repro.serve.service.ValidationService.process` — the
compiled tables are immutable and the GIL releases around I/O, so
threads overlap request handling the same way
:func:`~repro.engine.validate_many` overlaps batch documents.

**Admission before work.**  Every POST route passes three gates in
order, each answering immediately:

1. *draining* → 503 (``Retry-After``): the process is going away.
2. *quarantine* → 503 with the cached ``BudgetExceeded`` stats: the
   schema's circuit is open; no worker, no recompile.
3. *occupancy* → 429 (``Retry-After``) when ``workers + queue_depth``
   requests are already admitted, or the tenant is at its cap.

**Graceful drain.**  SIGTERM (and SIGINT) triggers
:meth:`ServeDaemon.request_drain`: the listener closes, ``/readyz``
flips to 503, keep-alive responses switch to ``Connection: close``, and
the daemon waits up to ``drain_deadline`` seconds for every active
request to finish and flush its response bytes — zero admitted requests
are dropped unless the deadline forces it (counted in
``serve.drain.aborted``).  Metrics can be written to a file on exit for
post-mortem scraping.

**Request correlation.**  When observability is enabled
(``--access-log`` / ``--trace-log`` / ``--trace-requests``) every
request gets a process-unique request id and a 128-bit trace id — the
client's own if it sent a W3C ``traceparent`` header, a fresh one
otherwise.  Both come back as response headers (``X-Request-Id``,
``X-Trace-Id``, plus a ``traceparent`` naming the server's root span),
appear on the JSONL access-log line, ride the tracer baggage into every
compile/cache/validate span (across the worker-pool hop), land as the
``{trace_id}`` exemplar on the ``serve.request.latency`` histogram, and
key the tail sampler's retained traces served by ``GET /debug/traces``.
With observability off none of this machinery is constructed and the
request path costs what it did before.

Endpoints: ``POST /validate`` | ``/explain`` | ``/patch`` (JSON bodies:
``schema``, ``schema_kind``, ``document``, optional ``tenant``,
``deadline``, ``patches``), ``GET /healthz`` (process liveness),
``GET /readyz`` (503 while draining or when the breaker is globally
tripped), ``GET /metrics`` (Prometheus text), ``GET /debug/traces``
(tail-sampled traces, ``?limit=N&reason=error|slow|reservoir``).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.observability import labeled, render_metrics, resolve_registry
from repro.observability.ringfile import DEFAULT_MAX_BYTES, RingFileWriter
from repro.observability.tracing import (
    TailSampler,
    Tracer,
    current_tracer,
    format_traceparent,
    installed_tracer,
    new_trace_id,
    parse_traceparent,
    span,
)
from repro.serve.accesslog import AccessLog
from repro.serve.admission import AdmissionController
from repro.serve.http import (
    MAX_HEADER_BYTES,
    HttpError,
    json_response,
    read_request,
    render_response,
)
from repro.serve.service import ValidationService, schema_key

_POST_ROUTES = {"/validate": "validate", "/explain": "explain",
                "/patch": "patch"}


class ServeDaemon:
    """One serving process: listener + admission + worker pool."""

    def __init__(self, config, registry=None, cache=None):
        self.config = config
        self._registry = resolve_registry(registry)
        self.service = ValidationService(config, registry=registry,
                                         cache=cache)
        self.admission = AdmissionController(
            workers=config.workers,
            queue_depth=config.queue_depth,
            tenant_inflight=config.tenant_inflight,
            registry=registry,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-serve"
        )
        self._server = None
        self._draining = False
        self._active = 0
        self._connections = set()
        self._closed = None
        self._drain_task = None
        self.host = config.host
        self.port = config.port
        self.metrics_path = None
        # Request-correlation plumbing: constructed only when the config
        # asks for it, so the default daemon pays nothing per request.
        self._request_seq = itertools.count(1)
        self._request_prefix = os.urandom(3).hex()
        self.tail_sampler = None
        self.tracer = None
        self.access_log = None
        if config.observability_enabled:
            log_max = config.log_max_bytes or DEFAULT_MAX_BYTES
            ring = None
            if config.trace_log:
                ring = RingFileWriter(config.trace_log, max_bytes=log_max)
            self.tail_sampler = TailSampler(
                latency_threshold=config.tail_latency,
                reservoir=config.tail_reservoir,
                retain=config.tail_retain,
                ring=ring,
                registry=registry,
            )
            self.tracer = Tracer(sink=self.tail_sampler)
            if config.access_log:
                self.access_log = AccessLog(
                    config.access_log, max_bytes=log_max
                )

    def _next_request_id(self):
        """A process-unique request id (boot nonce + sequence)."""
        return f"{self._request_prefix}-{next(self._request_seq):06d}"

    # -- lifecycle --------------------------------------------------------
    async def start(self):
        """Bind and start accepting; resolves the actual port."""
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_HEADER_BYTES,
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break
        self._registry.gauge("serve.up").set(1)
        return self

    @property
    def draining(self):
        return self._draining

    def ready(self):
        """Readiness: accepting work and not globally tripped."""
        return not self._draining and not (
            self.service.breaker.tripped_globally()
        )

    def request_drain(self):
        """Begin graceful shutdown (idempotent; signal-handler safe)."""
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self):
        if self._draining:
            return
        self._draining = True
        self._registry.gauge("serve.draining").set(1)
        self._server.close()
        await self._server.wait_closed()
        deadline_at = time.monotonic() + self.config.drain_deadline
        while self._active > 0 and time.monotonic() < deadline_at:
            await asyncio.sleep(0.02)
        if self._active > 0:
            self._registry.counter("serve.drain.aborted").inc(self._active)
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        self._pool.shutdown(wait=False)
        self._registry.gauge("serve.up").set(0)
        self._flush_sinks()
        self._closed.set()

    def _flush_sinks(self):
        """Write the final metrics snapshot and close the log rings
        (trace/access sinks stream as they go; closing just releases
        their handles after the last line)."""
        if self.access_log is not None:
            with contextlib.suppress(OSError):
                self.access_log.close()
        if self.tail_sampler is not None and self.tail_sampler.ring:
            with contextlib.suppress(OSError):
                self.tail_sampler.ring.close()
        if self.metrics_path is None:
            return
        with contextlib.suppress(OSError):
            with open(self.metrics_path, "w", encoding="utf-8") as sink:
                sink.write(render_metrics(self._registry, "prometheus"))

    async def wait_closed(self):
        """Resolve once a drain has fully completed."""
        await self._closed.wait()

    # -- connection handling ----------------------------------------------
    async def _handle_connection(self, reader, writer):
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self.config.max_body_bytes
                    )
                except HttpError as exc:
                    writer.write(json_response(
                        exc.status,
                        {"error": "http", "message": str(exc)},
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and not self._draining
                self._active += 1
                access = {}
                try:
                    result = await self._dispatch(request, access)
                    keep_alive = keep_alive and not self._draining
                    if isinstance(result, bytes):
                        # /metrics: pre-rendered exposition text.
                        raw = result
                        access.setdefault("status", 200)
                    else:
                        status, body, headers = result
                        access.setdefault("status", status)
                        raw = json_response(
                            status, body, keep_alive=keep_alive,
                            extra_headers=headers,
                        )
                    writer.write(raw)
                    await writer.drain()
                    if self.access_log is not None:
                        access["bytes_in"] = len(request.body)
                        access["bytes_out"] = len(raw)
                        access.setdefault("route", request.path)
                        self.access_log.log(access)
                finally:
                    self._active -= 1
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    async def _dispatch(self, request, access):
        """Route one request; returns ``(status, payload, headers)``.

        ``access`` is this request's access-log record in the making —
        handlers fill in correlation fields as they learn them; the
        connection loop stamps byte counts and writes the line.
        """
        method, path = request.method, request.path
        if method == "GET":
            if path == "/healthz":
                return 200, {"status": "ok"}, ()
            if path == "/readyz":
                if self.ready():
                    return 200, {"ready": True}, ()
                reason = ("draining" if self._draining
                          else "breaker_global_trip")
                return 503, {"ready": False, "reason": reason}, (
                    ("Retry-After", _retry_text(self.config.retry_after)),
                )
            if path == "/metrics":
                # Not JSON: hand back pre-rendered exposition text.
                return self._metrics_response(request)
            if path == "/debug/traces":
                return self._traces_response(request)
            if path in _POST_ROUTES:
                return 405, {
                    "error": "method_not_allowed", "message": method,
                }, ()
            return 404, {"error": "not_found", "message": path}, ()
        route = _POST_ROUTES.get(path)
        if route is None:
            return 404, {"error": "not_found", "message": path}, ()
        if method != "POST":
            return 405, {"error": "method_not_allowed", "message": method}, ()
        return await self._handle_post(route, request, access)

    def _metrics_response(self, request):
        text = render_metrics(self._registry, "prometheus")
        keep_alive = request.keep_alive and not self._draining
        raw = render_response(
            200, text, content_type="text/plain; version=0.0.4",
            keep_alive=keep_alive,
        )
        return raw

    def _traces_response(self, request):
        """``GET /debug/traces`` — the tail sampler's retained traces."""
        sampler = self.tail_sampler
        if sampler is None:
            return 200, {"enabled": False, "traces": []}, ()
        params = request.query_params()
        try:
            limit = max(1, int(params.get("limit", 32)))
        except ValueError:
            limit = 32
        reason = params.get("reason") or None
        traces = sampler.retained()
        if reason is not None:
            traces = [t for t in traces if t.get("reason") == reason]
        return 200, {"enabled": True, "traces": traces[:limit]}, ()

    async def _handle_post(self, route, request, access):
        config = self.config
        registry = self._registry
        try:
            params = request.json()
        except HttpError as exc:
            access["status"] = exc.status
            return exc.status, {"error": "http", "message": str(exc)}, ()
        tenant = request.headers.get("x-tenant") or params.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            tenant = "anonymous"

        # Correlation ids: honor an incoming W3C traceparent; mint a
        # fresh trace id only when tracing is on (so the disabled path
        # does no random I/O).  The ids come back as response headers on
        # every outcome, shed or served.
        tracer = self.tracer if self.tracer is not None else current_tracer()
        incoming = parse_traceparent(request.headers.get("traceparent"))
        if incoming is not None:
            trace_id = incoming[0]
        elif tracer is not None:
            trace_id = new_trace_id()
        else:
            trace_id = None
        request_id = self._next_request_id() if tracer is not None else None
        corr = []
        if request_id is not None:
            corr.append(("X-Request-Id", request_id))
        if trace_id is not None:
            corr.append(("X-Trace-Id", trace_id))
        corr = tuple(corr)
        access.update(
            request_id=request_id, trace_id=trace_id, tenant=tenant,
            route=route,
        )

        retry_header = ("Retry-After", _retry_text(config.retry_after))
        if self._draining:
            registry.counter("serve.rejected.draining").inc()
            access.update(status=503, reason="draining")
            return 503, {"error": "draining"}, (retry_header,) + corr

        # Quarantine check before admission: an open circuit answers
        # from cached stats without consuming a queue slot or worker.
        kind = params.get("schema_kind", "xsd")
        text = params.get("schema")
        key = schema_key(kind, text) if isinstance(text, str) else None
        schema_hash = key[:12] if key is not None else None
        access["schema_hash"] = schema_hash
        if key is not None:
            blocked = self.service.quarantined(key)
            if blocked is not None:
                retry_after, stats = blocked
                access.update(status=503, reason="quarantined")
                return 503, {
                    "error": "quarantined",
                    "message": "schema quarantined after repeated "
                               "budget exhaustion",
                    "retry_after": retry_after,
                    "stats": stats,
                }, (("Retry-After", _retry_text(retry_after)),) + corr

        reason = self.admission.try_admit(tenant)
        if reason is not None:
            access.update(status=429, reason=reason)
            return 429, {
                "error": reason,
                "retry_after": config.retry_after,
            }, (retry_header,) + corr

        deadline = config.clamp_deadline(params.get("deadline"))
        deadline_at = time.monotonic() + deadline
        started = time.perf_counter_ns()
        loop = asyncio.get_running_loop()
        status = 500
        timing = {}
        baggage = None
        if tracer is not None:
            baggage = {"tenant": tenant}
            if request_id is not None:
                baggage["request_id"] = request_id
            if schema_hash is not None:
                baggage["schema_hash"] = schema_hash
        try:
            if tracer is not None:
                trace = tracer.span("serve.request", trace_id=trace_id,
                                    **baggage)
            else:
                trace = span("serve.request")
            with trace:
                trace.set_attribute("route", route)
                parent = trace if tracer is not None else None
                if tracer is not None and trace_id is not None:
                    corr += ((
                        "traceparent",
                        format_traceparent(trace_id, trace.span_id),
                    ),)

                def work():
                    # Contextvars do not cross pool threads: re-install
                    # the caller's tracer (and baggage) so worker spans
                    # join the tree carrying the correlation fields.
                    timing["worker_start"] = time.perf_counter_ns()
                    try:
                        if tracer is None:
                            return self.service.process(
                                route, params, tenant, deadline_at
                            )
                        with installed_tracer(tracer, parent,
                                              baggage=baggage):
                            return self.service.process(
                                route, params, tenant, deadline_at
                            )
                    finally:
                        timing["worker_end"] = time.perf_counter_ns()

                status, payload = await loop.run_in_executor(
                    self._pool, work
                )
                trace.set_attribute("status", status)
                if status >= 500:
                    trace.set_status("error")
        except Exception as exc:  # a service bug, not a request failure
            registry.counter("serve.errors.internal").inc()
            status, payload = 500, {
                "error": "internal",
                "message": f"{type(exc).__name__}: {exc}",
            }
        finally:
            self.admission.release(tenant)
            elapsed = time.perf_counter_ns() - started
            exemplar = {"trace_id": trace_id} if trace_id else None
            registry.histogram(
                "serve.request.latency",
                help="end-to-end request wall time, admission to "
                     "response, nanoseconds",
            ).observe(elapsed, exemplar=exemplar)
            registry.counter(
                "serve.requests", help="requests admitted to a worker"
            ).inc()
            registry.counter(
                labeled("serve.requests.by", tenant=tenant,
                        code=str(status)),
                help="requests admitted to a worker, by tenant and "
                     "status code",
            ).inc()
            access["status"] = status
            worker_start = timing.get("worker_start")
            if worker_start is not None:
                queue_wait = worker_start - started
                worker_ns = timing.get("worker_end", worker_start)
                worker_ns -= worker_start
                registry.histogram(
                    "serve.queue.wait_ns",
                    help="admitted-to-executing wait for a worker "
                         "thread, nanoseconds",
                ).observe(queue_wait)
                access["queue_wait_ms"] = round(queue_wait / 1e6, 3)
                access["worker_ms"] = round(worker_ns / 1e6, 3)
        headers = ()
        if status in (429, 503):
            headers = ((
                "Retry-After",
                _retry_text(payload.get("retry_after",
                                        config.retry_after)),
            ),)
        return status, payload, headers + corr


def _retry_text(seconds):
    """``Retry-After`` is integer seconds; round up, at least 1."""
    return str(max(1, int(seconds + 0.999)))


async def _amain(config, registry=None, cache=None, announce=None,
                 metrics_path=None, install_signals=True):
    daemon = ServeDaemon(config, registry=registry, cache=cache)
    daemon.metrics_path = metrics_path
    await daemon.start()
    if announce is not None:
        announce(daemon)
    if install_signals:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, daemon.request_drain)
    await daemon.wait_closed()
    return 0


def run_server(config, registry=None, cache=None, metrics_path=None):
    """Run the daemon until SIGTERM/SIGINT drains it; returns exit code.

    Announces ``serving on http://host:port`` on stdout once bound (with
    ``port=0`` this is the only way to learn the chosen port).
    """
    def announce(daemon):
        print(f"serving on http://{daemon.host}:{daemon.port}", flush=True)

    return asyncio.run(_amain(
        config, registry=registry, cache=cache, announce=announce,
        metrics_path=metrics_path,
    ))


class ServerHandle:
    """A daemon hosted on a background thread (tests, benchmarks, smoke).

    Attributes:
        daemon: the :class:`ServeDaemon` (its loop runs on the thread).
        port: the bound port.
    """

    def __init__(self):
        self.daemon = None
        self.port = None
        self.loop = None
        self.thread = None
        self._exit = None

    def request_drain(self):
        """Trigger graceful drain from any thread."""
        self.loop.call_soon_threadsafe(self.daemon.request_drain)

    def stop(self, timeout=10.0):
        """Drain and join; returns the daemon's exit code (0)."""
        self.request_drain()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("serve daemon failed to drain in time")
        return self._exit

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.thread.is_alive():
            self.stop()
        return False


def start_in_thread(config, registry=None, cache=None, timeout=10.0):
    """Start a daemon on a fresh thread; returns a :class:`ServerHandle`.

    The thread runs its own event loop; SIGTERM handlers are *not*
    installed (signals belong to the main thread) — use
    :meth:`ServerHandle.stop` or :meth:`ServerHandle.request_drain`.
    """
    handle = ServerHandle()
    started = threading.Event()

    def announce(daemon):
        handle.daemon = daemon
        handle.port = daemon.port
        handle.loop = asyncio.get_running_loop()
        started.set()

    def run():
        handle._exit = asyncio.run(_amain(
            config, registry=registry, cache=cache, announce=announce,
            install_signals=False,
        ))

    handle.thread = threading.Thread(
        target=run, name="repro-serve-daemon", daemon=True
    )
    handle.thread.start()
    if not started.wait(timeout):
        raise RuntimeError("serve daemon failed to start in time")
    return handle
