"""Observability: metrics, budgets, tracing, and provenance.

Four orthogonal facilities, all dependency-free and thread-safe:

* :mod:`repro.observability.metrics` — counters, gauges, histograms with
  ns-resolution timers, collected in a :class:`MetricsRegistry` that
  snapshots to dict/JSON (one consistent point-in-time cut across all
  instruments) and exports as Prometheus text
  (:mod:`repro.observability.export`).
* :mod:`repro.observability.budget` — :class:`ResourceBudget` caps
  wall-clock time, automaton states, and intermediate regex size in the
  provably-exponential constructions, raising
  :class:`~repro.errors.BudgetExceeded` with partial-progress stats
  instead of hanging (Theorems 8/9 guarantee adversarial inputs exist).
* :mod:`repro.observability.tracing` — hierarchical :class:`Span` trees
  with ns timing, attributes, and status, collected by an ambiently
  installable :class:`Tracer` and exported as JSONL; one shared no-op
  span when disabled (the CLI's ``--trace FILE``).
* :mod:`repro.observability.provenance` — per-element validation
  provenance (winning rule index, XSD type, content-DFA state path,
  first-divergence explanations, read off the incremental engine's
  per-element memo) and :class:`RuleCoverage` accounting (the CLI's
  ``explain`` subcommand and the linter's coverage mode).
"""

from repro.errors import BudgetExceeded
from repro.observability.budget import ResourceBudget, current_budget
from repro.observability.export import (
    escape_label_value,
    labeled,
    render_metrics,
    to_prometheus,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    resolve_registry,
)
from repro.observability.provenance import (
    DocumentExplanation,
    ElementProvenance,
    RuleCoverage,
    explain_document,
    first_divergence,
)
from repro.observability.ringfile import (
    RingFileWriter,
    read_ring,
)
from repro.observability.tracing import (
    NULL_SPAN,
    Span,
    TailSampler,
    Tracer,
    current_baggage,
    current_span,
    current_tracer,
    format_traceparent,
    installed_tracer,
    new_trace_id,
    parse_traceparent,
    resolve_tracer,
    set_baggage,
    span,
    trace_id_hex,
)

__all__ = [
    "BudgetExceeded",
    "Counter",
    "DocumentExplanation",
    "ElementProvenance",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "ResourceBudget",
    "RingFileWriter",
    "RuleCoverage",
    "Span",
    "TailSampler",
    "Tracer",
    "current_baggage",
    "current_budget",
    "current_span",
    "current_tracer",
    "default_registry",
    "escape_label_value",
    "explain_document",
    "first_divergence",
    "format_traceparent",
    "installed_tracer",
    "labeled",
    "new_trace_id",
    "parse_traceparent",
    "read_ring",
    "render_metrics",
    "resolve_registry",
    "resolve_tracer",
    "set_baggage",
    "span",
    "to_prometheus",
    "trace_id_hex",
]
