"""The validation service: request processing behind the admission layer.

:class:`ValidationService` is the synchronous half of ``repro serve`` —
everything that runs *inside a worker thread* once the daemon has
admitted a request.  It owns the shared state every request rides on:

* one two-tier :class:`~repro.engine.cache.SchemaCache` (identity
  weakref, then structural fingerprint) shared across all requests;
* a bounded text-level memo mapping ``sha256(kind + schema text)`` to
  the parsed formal XSD, so a hot schema's steady-state cost is one
  dict probe plus the cache's ~2 µs identity hit — no re-parse, no
  re-fingerprint;
* the :class:`~repro.serve.admission.CircuitBreaker` keyed by the same
  schema hash, recording every compile-side
  :class:`~repro.errors.BudgetExceeded` and quarantining repeat
  offenders (Theorem 8/9 blowups fail fast with cached stats instead of
  burning a fresh budget allowance per request).

Per-request isolation reuses :func:`repro.engine.validate_many`'s
machinery verbatim: the document runs under ``policy="isolate"`` with
the service's :class:`~repro.resilience.ParserLimits` and the remaining
slice of the request deadline (admission wait already spent counts
against it — the deadline is an end-to-end promise, not a per-stage
one), so a hostile document yields a structured
:class:`~repro.resilience.DocumentError`, never an escaped exception.

Schema *compilation* runs under a per-request
:class:`~repro.observability.ResourceBudget` built from the tenant's
configured allowance; the states it actually consumed are accounted to
the tenant's ``serve.tenant.compile_states`` counter.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict

from repro.engine.cache import SchemaCache
from repro.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    ParseError,
    ReproError,
    SchemaError,
)
from repro.observability import (
    ResourceBudget,
    labeled,
    resolve_registry,
)
from repro.observability.tracing import span
from repro.resilience import DocumentError, FailurePolicy, ParserLimits
from repro.serve.admission import CircuitBreaker

SCHEMA_KINDS = ("xsd", "bonxai", "dtd")

#: HTTP status for each :class:`DocumentError` kind a document can earn.
_DOCUMENT_STATUS = {
    "parse": 422,
    "limit": 422,
    "deadline": 504,
    "budget": 503,
}


class QuarantinedSchema(ReproError):
    """A request refused because the schema's circuit is open.

    Attributes:
        retry_after: seconds until the circuit half-opens.
        stats: the cached partial-progress figures from the
            ``BudgetExceeded`` that opened the circuit.
    """

    def __init__(self, message, retry_after=0.0, stats=None):
        self.retry_after = retry_after
        self.stats = dict(stats or {})
        super().__init__(message)


class ServeConfig:
    """Tunables for one serve daemon (all knobs surface on the CLI).

    Args:
        host / port: listen address (``port=0`` picks a free port).
        workers: worker-thread count (requests executing concurrently).
        queue_depth: admitted requests allowed to wait for a worker
            beyond the executing ones; more than ``workers +
            queue_depth`` inflight sheds with 429.
        tenant_inflight: per-tenant admitted cap (``None`` disables).
        deadline: default end-to-end seconds per request.
        max_deadline: ceiling on a client-requested deadline.
        drain_deadline: seconds SIGTERM waits for inflight requests.
        budget_states / budget_seconds: per-request compile allowance
            (the per-tenant :class:`ResourceBudget`).
        breaker_threshold / breaker_cooldown / breaker_global_limit:
            circuit-breaker tuning (see
            :class:`~repro.serve.admission.CircuitBreaker`).
        retry_after: the ``Retry-After`` hint on shed responses, seconds.
        limits: :class:`ParserLimits` applied to request documents.
        max_body_bytes: largest accepted HTTP body.
        schema_memo_size: schemas kept in the text-level parse memo.
        access_log: path for one-line JSONL access logs (``None``
            disables; enabling also turns request tracing on so every
            line carries a trace id).
        trace_log: path for the tail sampler's retained-trace JSONL
            ring (``None`` keeps retained traces in memory only).
        log_max_bytes: rotation cap for both log rings, bytes.
        trace_requests: trace requests even with no log file configured
            (retained traces then live in memory, served by
            ``GET /debug/traces``).
        tail_latency: seconds past which a request trace counts as
            *slow* and is always retained (``None`` disables the
            latency criterion).
        tail_reservoir: reservoir slots for fast traces (``0`` retains
            only errored/slow traces — what the smoke test uses to make
            retention deterministic).
        tail_retain: retained traces kept in memory for
            ``GET /debug/traces``.
    """

    __slots__ = (
        "host", "port", "workers", "queue_depth", "tenant_inflight",
        "deadline", "max_deadline", "drain_deadline", "budget_states",
        "budget_seconds", "breaker_threshold", "breaker_cooldown",
        "breaker_global_limit", "retry_after", "limits", "max_body_bytes",
        "schema_memo_size", "access_log", "trace_log", "log_max_bytes",
        "trace_requests", "tail_latency", "tail_reservoir", "tail_retain",
    )

    def __init__(self, host="127.0.0.1", port=8080, workers=4,
                 queue_depth=16, tenant_inflight=8, deadline=5.0,
                 max_deadline=30.0, drain_deadline=5.0,
                 budget_states=20_000, budget_seconds=2.0,
                 breaker_threshold=3, breaker_cooldown=30.0,
                 breaker_global_limit=8, retry_after=1.0, limits=None,
                 max_body_bytes=8 * 1024 * 1024, schema_memo_size=128,
                 access_log=None, trace_log=None, log_max_bytes=None,
                 trace_requests=False, tail_latency=0.5, tail_reservoir=4,
                 tail_retain=256):
        for name, value in (("workers", workers), ("deadline", deadline),
                            ("max_deadline", max_deadline),
                            ("drain_deadline", drain_deadline),
                            ("retry_after", retry_after),
                            ("max_body_bytes", max_body_bytes),
                            ("schema_memo_size", schema_memo_size)):
            if value is None or value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        if log_max_bytes is not None and log_max_bytes <= 0:
            raise ValueError(
                f"log_max_bytes must be positive, got {log_max_bytes!r}"
            )
        if tail_latency is not None and tail_latency <= 0:
            raise ValueError(
                f"tail_latency must be positive, got {tail_latency!r}"
            )
        if tail_reservoir < 0:
            raise ValueError(
                f"tail_reservoir must be >= 0, got {tail_reservoir}"
            )
        if tail_retain < 1:
            raise ValueError(f"tail_retain must be >= 1, got {tail_retain}")
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_depth = queue_depth
        self.tenant_inflight = tenant_inflight
        self.deadline = deadline
        self.max_deadline = max_deadline
        self.drain_deadline = drain_deadline
        self.budget_states = budget_states
        self.budget_seconds = budget_seconds
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.breaker_global_limit = breaker_global_limit
        self.retry_after = retry_after
        self.limits = limits if limits is not None else ParserLimits()
        self.max_body_bytes = max_body_bytes
        self.schema_memo_size = schema_memo_size
        self.access_log = access_log
        self.trace_log = trace_log
        self.log_max_bytes = log_max_bytes
        self.trace_requests = trace_requests
        self.tail_latency = tail_latency
        self.tail_reservoir = tail_reservoir
        self.tail_retain = tail_retain

    @property
    def observability_enabled(self):
        """True when request tracing / access logging should be built."""
        return bool(
            self.access_log or self.trace_log or self.trace_requests
        )

    def clamp_deadline(self, requested):
        """The effective deadline for a client-requested allowance."""
        if requested is None:
            return self.deadline
        try:
            value = float(requested)
        except (TypeError, ValueError):
            return self.deadline
        if value <= 0:
            return self.deadline
        return min(value, self.max_deadline)


def schema_key(kind, text):
    """The breaker/memo key: a digest of the schema *text* as presented.

    Text-level on purpose — a schema that cannot even finish compiling
    has no formal XSD to fingerprint, and the breaker must recognise the
    same pathological input on its next arrival without doing any work.
    """
    hasher = hashlib.sha256()
    hasher.update(kind.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(text.encode("utf-8"))
    return hasher.hexdigest()


def _parse_schema(kind, text):
    """Parse schema text and ride the translation square to a formal XSD.

    Returns ``(xsd, model)`` where ``model`` is the kind-native object
    the ``explain`` route needs (the formal XSD itself for ``xsd``).
    """
    from repro.bonxai import compile_schema, parse_bonxai
    from repro.translation import formal_xsd
    from repro.xmlmodel import parse_dtd
    from repro.xsd import read_xsd

    if kind == "xsd":
        model = read_xsd(text)
    elif kind == "dtd":
        model = parse_dtd(text)
    else:
        model = compile_schema(parse_bonxai(text))
    return formal_xsd(kind, model), model


class ValidationService:
    """Worker-side request processing over shared cache + breaker state."""

    def __init__(self, config, registry=None, cache=None, breaker=None):
        self.config = config
        self._registry = resolve_registry(registry)
        self.cache = cache if cache is not None else SchemaCache(maxsize=64)
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
            global_limit=config.breaker_global_limit,
            registry=registry,
        )
        self._memo = OrderedDict()
        self._memo_lock = threading.Lock()

    # -- schema resolution ------------------------------------------------
    def quarantined(self, key):
        """Fast pre-admission probe: ``(retry_after, stats)`` or ``None``."""
        return self.breaker.check(key)

    def _schema_for(self, key, kind, text, tenant):
        """Resolve schema text to ``(CompiledSchema, xsd, model)``.

        Memo hit: one dict probe, then the schema cache's identity tier.
        Memo miss: breaker check, parse + translate + compile under the
        tenant's :class:`ResourceBudget`; ``BudgetExceeded`` feeds the
        breaker before propagating.
        """
        with self._memo_lock:
            entry = self._memo.get(key)
            if entry is not None:
                self._memo.move_to_end(key)
        if entry is not None:
            xsd, model = entry
            return self.cache.get(xsd), xsd, model

        blocked = self.breaker.check(key)
        if blocked is not None:
            retry_after, stats = blocked
            raise QuarantinedSchema(
                "schema quarantined after repeated budget exhaustion",
                retry_after=retry_after, stats=stats,
            )
        budget = ResourceBudget(
            max_states=self.config.budget_states,
            max_seconds=self.config.budget_seconds,
        )
        try:
            with budget, span("serve.schema.compile") as trace:
                trace.set_attribute("schema", key[:12])
                xsd, model = _parse_schema(kind, text)
                compiled = self.cache.get(xsd)
        except BudgetExceeded as exc:
            opened = self.breaker.record_failure(key, stats=exc.stats)
            self._registry.counter("serve.schema.budget_exceeded").inc()
            if opened:
                self._registry.counter(
                    labeled("serve.tenant.quarantines", tenant=tenant)
                ).inc()
            raise
        finally:
            states = budget.states_created
            if states:
                self._registry.counter(
                    labeled("serve.tenant.compile_states", tenant=tenant)
                ).inc(states)
        self.breaker.record_success(key)
        with self._memo_lock:
            self._memo[key] = (xsd, model)
            self._memo.move_to_end(key)
            while len(self._memo) > self.config.schema_memo_size:
                self._memo.popitem(last=False)
        return compiled, xsd, model

    # -- request processing (worker thread) -------------------------------
    def process(self, route, params, tenant, deadline_at):
        """Run one admitted request; returns ``(status, payload dict)``.

        Never raises for request-shaped failures — schema errors,
        budget exhaustion, quarantine, malformed documents, and blown
        deadlines all map to structured (status, payload) pairs.  Only a
        genuine bug escapes (the daemon answers 500).
        """
        kind = params.get("schema_kind", "xsd")
        if kind not in SCHEMA_KINDS:
            return 400, {
                "error": "bad_request",
                "message": f"unknown schema_kind {kind!r} "
                           f"(expected one of {list(SCHEMA_KINDS)})",
            }
        text = params.get("schema")
        document = params.get("document")
        if not isinstance(text, str) or not isinstance(document, str):
            return 400, {
                "error": "bad_request",
                "message": "'schema' and 'document' must be strings",
            }
        key = schema_key(kind, text)
        try:
            compiled, xsd, model = self._schema_for(key, kind, text, tenant)
        except QuarantinedSchema as exc:
            return 503, {
                "error": "quarantined",
                "message": str(exc),
                "retry_after": exc.retry_after,
                "stats": exc.stats,
            }
        except BudgetExceeded as exc:
            return 503, {
                "error": "budget",
                "message": str(exc),
                "stats": exc.stats,
            }
        except (ParseError, SchemaError) as exc:
            return 422, {"error": "schema", "message": str(exc)}

        remaining = deadline_at - time.monotonic()
        if remaining <= 0:
            return 504, {
                "error": "deadline",
                "message": "request deadline spent before validation began",
            }
        if route == "validate":
            return self._do_validate(compiled, document, remaining)
        if route == "explain":
            return self._do_explain(kind, model, document)
        if route == "patch":
            return self._do_patch(compiled, xsd, document, params, remaining)
        return 404, {"error": "not_found", "message": f"no route {route!r}"}

    def _do_validate(self, compiled, document, remaining):
        from repro.engine.batch import validate_many

        outcome = validate_many(
            compiled, [document],
            policy=FailurePolicy.ISOLATE,
            deadline=remaining,
            limits=self.config.limits,
        )[0]
        if outcome.ok:
            report = outcome.report
            return 200, {
                "valid": report.valid,
                "violations": [str(v) for v in report.violations],
                "elapsed_seconds": outcome.elapsed_seconds,
            }
        return self._document_error(outcome.error)

    def _do_explain(self, kind, model, document):
        from repro.observability import explain_document
        from repro.xmlmodel import parse_document

        try:
            tree = parse_document(document, limits=self.config.limits)
            explanation = explain_document(kind, model, tree)
        except ParseError as exc:
            return self._document_error(DocumentError.from_exception(exc))
        return 200, {
            "valid": explanation.valid,
            "violations": [str(v) for v in explanation.violations],
            "elements": [
                {
                    "path": entry.typed_path,
                    "type": entry.type_name,
                    "rule": entry.rule_index,
                    "verdict": entry.verdict,
                    "reason": entry.reason,
                }
                for entry in explanation.elements
            ],
        }

    def _do_patch(self, compiled, xsd, document, params, remaining):
        from repro.engine.incremental import ValidatedDocument
        from repro.xmlmodel import parse_document, write_document
        from repro.xmlmodel.patch import parse_patch

        patches = params.get("patches")
        if patches is None and "patch" in params:
            patches = [params["patch"]]
        if (not isinstance(patches, list)
                or not all(isinstance(p, str) for p in patches)):
            return 400, {
                "error": "bad_request",
                "message": "'patches' must be a list of patch documents",
            }
        from repro.errors import PatchError

        deadline_at = time.monotonic() + remaining
        try:
            tree = parse_document(document, limits=self.config.limits)
            parsed = [parse_patch(text) for text in patches]
            handle = ValidatedDocument(tree, compiled)
            applied = 0
            for patch in parsed:
                patch.apply_incremental(handle)
                applied += len(patch)
                if time.monotonic() > deadline_at:
                    raise DeadlineExceeded(
                        f"request deadline exceeded after {applied} patch "
                        f"op(s)", deadline_seconds=remaining,
                    )
            report = handle.report()
        except PatchError as exc:
            # A malformed or mis-addressed patch is the client's error,
            # not a schema/service failure.
            return 422, {"error": "patch", "message": str(exc)}
        except (ParseError, SchemaError, DeadlineExceeded) as exc:
            return self._document_error(DocumentError.from_exception(exc))
        return 200, {
            "valid": report.valid,
            "violations": [str(v) for v in report.violations],
            "applied": applied,
            "document": write_document(handle.document),
        }

    def _document_error(self, error):
        status = _DOCUMENT_STATUS.get(error.kind, 500)
        payload = {"error": error.kind, "message": error.message}
        if error.line is not None:
            payload["line"] = error.line
        if error.column is not None:
            payload["column"] = error.column
        return status, payload
