"""Batch validation: fan many documents across a worker pool, fault-isolated.

``validate_many`` compiles (or cache-fetches) the schema once and then
validates every document against the shared, immutable
:class:`~repro.engine.compiler.CompiledSchema`.  Workers are threads: the
compiled tables are read-only, so no per-worker copy is needed, and a
serving process can overlap validation with I/O (the common case for
heavy traffic: documents arrive as text over sockets or files).

Fault isolation (:mod:`repro.resilience`): under ``policy="isolate"`` (or
``"fail_fast"``) every input yields a
:class:`~repro.resilience.DocumentOutcome` in input order — a document
that fails to fetch, parse, or validate contributes a structured
:class:`~repro.resilience.DocumentError` (kind, message, line/column,
elapsed time) instead of aborting the batch.  Sources may be zero-arg
callables fetching the text lazily (files, sockets); transient failures
retry with bounded backoff per the :class:`~repro.resilience.RetryPolicy`.
A per-document wall-clock ``deadline`` aborts runaway documents (checked
between events on the streaming engine).  An ambient or explicit
:class:`~repro.resilience.FaultInjector` is re-installed inside worker
threads (contextvars do not cross pool threads on their own), so chaos
tests exercise the exact serving configuration.

Tracing: when a :class:`~repro.observability.Tracer` is ambient, the
whole call records an ``engine.batch`` span and every document an
``engine.batch.doc`` child — the tracer and the batch span are
re-installed inside pool workers with the same trick used for limits and
injectors, so worker-side spans (``engine.validate`` included) land in
the caller's trace tree.  With no tracer the batch path is untouched
(one contextvar read).

Schema-side failures (the schema itself failing to compile) always
propagate: with no compiled schema there are no per-document outcomes to
report.
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine.cache import compile_cached
from repro.engine.compiler import CompiledSchema
from repro.engine.streaming import StreamingValidator, as_events
from repro.errors import DeadlineExceeded
from repro.observability import default_registry
from repro.observability.tracing import (
    current_baggage,
    current_tracer,
    installed_tracer,
    span,
)
from repro.resilience import (
    DocumentError,
    DocumentOutcome,
    FailurePolicy,
    NO_RETRY,
    installed_injector,
    resolve_injector,
    resolve_limits,
)


def validate_many(schema, sources, engine="streaming", workers=None,
                  cache=None, policy=FailurePolicy.RAISE, deadline=None,
                  retry=None, limits=None, injector=None):
    """Validate many documents against one schema.

    Args:
        schema: a formal :class:`~repro.xsd.model.XSD` or an already
            compiled :class:`CompiledSchema` (ignored by the tree engine,
            which needs the formal XSD).  The tree engine also takes a
            callable ``document -> report`` in its place: a schema
            kind's own tree validator (``repro validate`` passes the
            BonXai and DTD validators this way).
        sources: iterable of documents — XML text strings, UTF-8
            bytes (undecodable bytes are a parse error),
            ``XMLDocument``/``XMLElement`` trees, event iterables, or
            zero-arg callables returning any of those (fetched lazily,
            with retry).  Both engines accept every kind.
        engine: ``"streaming"`` (compiled tables, default) or ``"tree"``
            (the reference validator, for comparison).
        workers: thread count; ``None`` or ``1`` validates serially.
        cache: optional :class:`~repro.engine.cache.SchemaCache` override.
        policy: a :class:`~repro.resilience.FailurePolicy` string —
            ``"raise"`` (default; per-document exceptions propagate and
            the return value is a plain report list, the legacy
            contract), ``"isolate"`` (every input yields a
            :class:`DocumentOutcome`), or ``"fail_fast"`` (isolate, but
            stop at the first *errored* document and mark the remainder
            ``skipped``; forces serial execution).
        deadline: per-document wall-clock allowance in seconds; a
            document exceeding it fails with
            :class:`~repro.errors.DeadlineExceeded`.  The clock starts
            *before* the source is fetched, so fetch latency — retries
            and backoff sleeps included — counts against the allowance.
        retry: a :class:`~repro.resilience.RetryPolicy` for callable
            sources (default: no retry).
        limits: :class:`~repro.resilience.ParserLimits` for parsing
            text and bytes sources (explicit wins over ambient wins over
            the defaults; resolved once, so worker threads see the
            caller's ambient limits).
        injector: a :class:`~repro.resilience.FaultInjector` (explicit
            wins over ambient; re-installed inside workers).

    Returns:
        Under ``policy="raise"``: list of
        :class:`~repro.xsd.validator.XSDValidationReport`, in input
        order.  Otherwise: list of
        :class:`~repro.resilience.DocumentOutcome`, one per input, in
        input order — no exception escapes per-document work.
    """
    sources = list(sources)
    policy = FailurePolicy.coerce(policy)
    if deadline is not None and deadline <= 0:
        raise ValueError(f"deadline must be positive, got {deadline!r}")
    retry = retry if retry is not None else NO_RETRY
    limits = resolve_limits(limits)
    injector = resolve_injector(injector)
    registry = default_registry()
    registry.counter("engine.batch.calls").inc()
    registry.counter("engine.batch.docs").inc(len(sources))

    tracer = current_tracer()
    with span("engine.batch") as batch_span:
        batch_span.set_attribute("docs", len(sources))
        batch_span.set_attribute("engine", engine)
        batch_span.set_attribute("policy", str(policy))
        batch_span.set_attribute("workers", workers or 1)
        return _run_batch(
            schema, sources, engine, workers, cache, policy, deadline,
            retry, limits, injector, registry,
            tracer, batch_span if tracer is not None else None,
        )


def _run_batch(schema, sources, engine, workers, cache, policy, deadline,
               retry, limits, injector, registry, tracer, batch_span):
    validate = _make_validator(schema, engine, cache, limits, deadline)

    baggage = current_baggage() if tracer is not None else None

    def trace_context():
        """Re-install the caller's tracer + batch span (pool workers).

        Contextvars do not cross pool threads; token-based re-install
        inside each unit of work makes worker spans children of the
        batch span, carrying the caller's baggage (tenant / request id)
        too.  With no tracer this is a shared no-op context.
        """
        if tracer is None:
            return contextlib.nullcontext()
        return installed_tracer(tracer, batch_span, baggage=baggage)

    def fetch(source, deadline_at=None):
        """Resolve a callable source with retry; returns (doc, attempts).

        The per-document deadline covers fetching too: the caller
        starts the clock *before* the first attempt, every backoff
        checks it (so retries stop the moment the allowance is spent,
        instead of sleeping through it), and an exhausted source whose
        retries outlived the deadline reports ``DeadlineExceeded``
        rather than the final transient error.
        """
        if not callable(source):
            return source, 1

        def on_retry(attempt, exc):
            registry.counter("engine.batch.retries").inc()
            _check_deadline(deadline_at, deadline)

        try:
            return retry.call(source, on_retry=on_retry)
        except retry.retry_on:
            registry.counter("engine.batch.retry_exhausted").inc()
            _check_deadline(deadline_at, deadline)
            raise

    if policy == FailurePolicy.RAISE:
        def run(source):
            with trace_context(), span("engine.batch.doc"):
                deadline_at = _deadline_at(deadline)
                document, __ = fetch(source, deadline_at)
                _check_deadline(deadline_at, deadline)
                return validate(document, deadline_at)

        if workers is None or workers <= 1 or len(sources) <= 1:
            return [run(source) for source in sources]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, sources))

    def run_isolated(index, source):
        started = time.monotonic()
        attempts = 1
        with trace_context(), span("engine.batch.doc") as doc_span:
            doc_span.set_attribute("index", index)
            try:
                with installed_injector(injector):
                    deadline_at = _deadline_at(deadline)
                    document, attempts = fetch(source, deadline_at)
                    _check_deadline(deadline_at, deadline)
                    report = validate(document, deadline_at)
                return DocumentOutcome(
                    index, report=report,
                    elapsed_seconds=time.monotonic() - started,
                    attempts=attempts,
                )
            except Exception as exc:
                error = DocumentError.from_exception(exc)
                doc_span.set_status("error")
                doc_span.set_attribute("error_kind", error.kind)
                registry.counter("engine.batch.failed_docs").inc()
                registry.counter("engine.batch.isolated_errors").inc()
                registry.counter(f"engine.batch.errors.{error.kind}").inc()
                return DocumentOutcome(
                    index, error=error,
                    elapsed_seconds=time.monotonic() - started,
                    attempts=attempts,
                )

    if policy == FailurePolicy.FAIL_FAST:
        # Serial by definition: "stop at the first error" has no stable
        # meaning when later documents may already be in flight.
        outcomes = []
        failed = False
        for index, source in enumerate(sources):
            if failed:
                registry.counter("engine.batch.skipped_docs").inc()
                outcomes.append(
                    DocumentOutcome(index, error=DocumentError.skipped())
                )
                continue
            outcome = run_isolated(index, source)
            outcomes.append(outcome)
            if not outcome.ok:
                failed = True
        return outcomes

    # policy == ISOLATE
    indexed = list(enumerate(sources))
    if workers is None or workers <= 1 or len(sources) <= 1:
        return [run_isolated(index, source) for index, source in indexed]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(lambda pair: run_isolated(*pair), indexed)
        )


def _deadline_at(deadline):
    """Convert a relative allowance to an absolute monotonic instant."""
    if deadline is None:
        return None
    return time.monotonic() + deadline


def _make_validator(schema, engine, cache, limits, deadline=None):
    """Build the per-document ``validate(document, deadline_at)`` callable.

    Schema compilation happens here, once, before any per-document work —
    schema-side failures are the caller's problem, not a per-doc error.
    """
    if engine == "streaming":
        if isinstance(schema, CompiledSchema):
            compiled = schema
        else:
            compiled = compile_cached(schema, cache)
        validator = StreamingValidator(compiled)

        def validate(document, deadline_at):
            events = as_events(document, limits)
            if deadline_at is not None:
                events = _deadline_events(events, deadline_at, deadline)
            return validator.validate_events(events)

        return validate
    if engine == "tree":
        if isinstance(schema, CompiledSchema):
            raise ValueError("the tree engine needs the formal XSD")
        from repro.xmlmodel.tree import XMLDocument, XMLElement
        from repro.xsd.validator import validate_xsd

        if callable(schema):
            check = schema
        else:
            def check(document):
                return validate_xsd(schema, document)

        def validate(document, deadline_at):
            if not isinstance(document, (XMLDocument, XMLElement)):
                # Text, bytes or events: the tree the stream spells.
                document = XMLElement.from_events(
                    as_events(document, limits)
                )
            if isinstance(document, XMLElement):
                document = XMLDocument(document)
            _check_deadline(deadline_at, deadline)
            report = check(document)
            _check_deadline(deadline_at, deadline)
            return report

        return validate
    raise ValueError(f"unknown engine {engine!r}")


def _deadline_events(events, deadline_at, allowance, stride=64):
    """Wrap an event stream with a wall-clock check every ``stride`` events.

    Raising from inside the stream aborts the streaming validator
    mid-document, so a pathological document cannot hold a worker past
    its deadline by more than one stride of events.
    """
    count = 0
    for event in events:
        count += 1
        if count % stride == 0:
            _check_deadline(deadline_at, allowance)
        yield event
    _check_deadline(deadline_at, allowance)


def _check_deadline(deadline_at, allowance):
    if deadline_at is None:
        return
    now = time.monotonic()
    if now > deadline_at:
        elapsed = allowance + (now - deadline_at)
        default_registry().counter("engine.batch.deadline_exceeded").inc()
        raise DeadlineExceeded(
            f"per-document deadline exceeded "
            f"({elapsed:.3f}s > deadline={allowance}s)",
            elapsed_seconds=elapsed, deadline_seconds=allowance,
        )
