"""Batch validation: fan many documents across a worker pool, fault-isolated.

``validate_many`` compiles (or cache-fetches) the schema once and then
validates every document against the shared, immutable
:class:`~repro.engine.compiler.CompiledSchema`.  Workers are threads: the
compiled tables are read-only, so no per-worker copy is needed, and a
serving process can overlap validation with I/O (the common case for
heavy traffic: documents arrive as text over sockets or files).  Each
document takes the route of :meth:`StreamingValidator.validate`: text
and bytes try the dense scan, falling back to the walk.

Under every policy, each document runs in one context, entered inside
its pool worker (contextvars do not cross pool threads on their own):
the batch's :class:`~repro.resilience.ParserLimits` and its explicit or
ambient :class:`~repro.resilience.FaultInjector` are installed, so chaos
tests exercise the exact serving configuration, and a per-document
``deadline`` is a :class:`~repro.observability.ResourceBudget` whose
clock both validation loops check (its trip is a ``DeadlineExceeded``).

Fault isolation (:mod:`repro.resilience`): under ``policy="isolate"`` (or
``"fail_fast"``) every input yields a
:class:`~repro.resilience.DocumentOutcome` in input order — a document
that fails to fetch, parse, or validate contributes a structured
:class:`~repro.resilience.DocumentError` (kind, message, line/column,
elapsed time) instead of aborting the batch.  Sources may be zero-arg
callables fetching the text lazily (files, sockets); transient failures
retry with bounded backoff per the :class:`~repro.resilience.RetryPolicy`.

Tracing: when a :class:`~repro.observability.Tracer` is ambient, the
whole call records an ``engine.batch`` span and every document an
``engine.batch.doc`` child — the tracer and the batch span are
re-installed inside pool workers like the per-document context, so
worker-side spans (``engine.validate`` included) land in
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
from repro.errors import BudgetExceeded, DeadlineExceeded
from repro.observability import ResourceBudget, default_registry
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
    installed_limits,
    resolve_injector,
    resolve_limits,
)

# Every call counts into these, bound once from the default registry;
# the rarer failure counters are looked up where they fire.
_metrics = default_registry()
_CALLS = _metrics.counter("engine.batch.calls")
_DOCS = _metrics.counter("engine.batch.docs")


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
            Checked between fetch attempts, around validation, and
            inside it by the streaming engine's loops.
        retry: a :class:`~repro.resilience.RetryPolicy` for callable
            sources (default: no retry).
        limits: :class:`~repro.resilience.ParserLimits` for parsing
            text and bytes sources, on the dense scan and the char
            parser alike (explicit wins over ambient wins over the
            defaults; resolved once and installed for every document,
            so worker threads see the caller's ambient limits).
        injector: a :class:`~repro.resilience.FaultInjector` (explicit
            wins over ambient; installed for every document under every
            policy, worker threads included).

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
    _CALLS.inc()
    _DOCS.inc(len(sources))

    tracer = current_tracer()
    with span("engine.batch") as batch_span:
        batch_span.set_attribute("docs", len(sources))
        batch_span.set_attribute("engine", engine)
        batch_span.set_attribute("policy", str(policy))
        batch_span.set_attribute("workers", workers or 1)
        return _run_batch(
            schema, sources, engine, workers, cache, policy, deadline,
            retry, limits, injector,
            tracer, batch_span if tracer is not None else None,
        )


def _run_batch(schema, sources, engine, workers, cache, policy, deadline,
               retry, limits, injector, tracer, batch_span):
    validate = _make_validator(schema, engine, cache)

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

    @contextlib.contextmanager
    def document_context():
        """One document's ambient context, entered by every policy.

        Installs the batch's limits and injector and, when ``deadline``
        is set, a fresh budget whose clock starts here, before the
        fetch; yields that budget (else ``None``).  Its trip surfaces
        as :class:`DeadlineExceeded`.
        """
        with installed_limits(limits), installed_injector(injector):
            if deadline is None:
                yield None
                return
            budget = ResourceBudget(max_seconds=deadline)
            try:
                with budget:
                    yield budget
            except BudgetExceeded:
                elapsed = budget.elapsed_seconds()
                if elapsed <= deadline:  # another budget's limit
                    raise
                _metrics.counter("engine.batch.deadline_exceeded").inc()
                raise DeadlineExceeded(
                    f"per-document deadline exceeded "
                    f"({elapsed:.3f}s > deadline={deadline}s)",
                    elapsed_seconds=elapsed, deadline_seconds=deadline,
                ) from None

    def fetch(source, budget):
        """Resolve a callable source with retry; returns (doc, attempts).

        The document's budget covers fetching too: its clock started
        before the first attempt, every backoff checks it (so retries
        stop the moment the allowance is spent, instead of sleeping
        through it), and an exhausted source whose retries outlived the
        deadline reports ``DeadlineExceeded`` rather than the final
        transient error.
        """
        if not callable(source):
            return source, 1

        def on_retry(attempt, exc):
            _metrics.counter("engine.batch.retries").inc()
            _check_clock(budget)

        try:
            return retry.call(source, on_retry=on_retry)
        except retry.retry_on:
            _metrics.counter("engine.batch.retry_exhausted").inc()
            _check_clock(budget)
            raise

    def validate_within(document, budget):
        """Validate between two checks of the document's clock."""
        _check_clock(budget)
        report = validate(document)
        _check_clock(budget)
        return report

    if policy == FailurePolicy.RAISE:
        def run(source):
            with trace_context(), span("engine.batch.doc"):
                with document_context() as budget:
                    document, __ = fetch(source, budget)
                    return validate_within(document, budget)

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
                with document_context() as budget:
                    document, attempts = fetch(source, budget)
                    report = validate_within(document, budget)
                return DocumentOutcome(
                    index, report=report,
                    elapsed_seconds=time.monotonic() - started,
                    attempts=attempts,
                )
            except Exception as exc:
                error = DocumentError.from_exception(exc)
                doc_span.set_status("error")
                doc_span.set_attribute("error_kind", error.kind)
                _metrics.counter("engine.batch.failed_docs").inc()
                _metrics.counter("engine.batch.isolated_errors").inc()
                _metrics.counter(f"engine.batch.errors.{error.kind}").inc()
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
                _metrics.counter("engine.batch.skipped_docs").inc()
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


def _check_clock(budget):
    """A document's deadline check between its stages (fetch attempts,
    validation)."""
    if budget is not None:
        budget.check_time("engine.batch")


def _make_validator(schema, engine, cache):
    """Build the per-document ``validate(document)`` callable.

    Schema compilation happens here, once, before any per-document work —
    schema-side failures are the caller's problem, not a per-doc error.
    The streaming engine is :meth:`StreamingValidator.validate` itself.
    """
    if engine == "streaming":
        if not isinstance(schema, CompiledSchema):
            schema = compile_cached(schema, cache)
        return StreamingValidator(schema).validate
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

        def validate(document):
            if not isinstance(document, (XMLDocument, XMLElement)):
                # Text, bytes or events: the tree the stream spells.
                document = XMLElement.from_events(as_events(document))
            if isinstance(document, XMLElement):
                document = XMLDocument(document)
            return check(document)

        return validate
    raise ValueError(f"unknown engine {engine!r}")
