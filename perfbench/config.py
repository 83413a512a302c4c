"""Fixed settings of the benchmark and the tables of its metrics.

``BENCHMARK.json`` at the repository root repeats the workload names and
the metric names, units and bounds; ``perfbench/tests/test_selftest.py``
checks that the two agree.
"""

from __future__ import annotations

import dataclasses

CLASSES = ("repetitive", "unique", "rich", "invalid", "unordered")
"""Document classes, each defined by one input property (see README)."""

EDIT_OPS = ("add", "remove", "replace", "set_attribute", "set_text")


@dataclasses.dataclass(frozen=True)
class Settings:
    """Input sizes and phase shapes of one run.

    :data:`FULL` is the benchmark; :data:`TINY` is the self-tests' scale.
    """

    # corpus: one document per size in every class (log-spaced sizes)
    corpus_sizes: tuple = (300, 1200, 4700, 18000)
    oracle_workers: int = 2
    # serve-mix
    serve_sizes: tuple = (30, 30, 90, 90, 270, 270, 810, 810)
    # About half the closed-loop throughput (serve.closed_rps) that
    # untraced runs measured on the two-vCPU host: 127-166 req/s raw,
    # median ~150, over seeds 1-3, 5-8 and 31-35.
    serve_rate: float = 70.0
    serve_cold_every: int = 200
    serve_cold_probes: int = 16
    serve_rounds: int = 10
    serve_layer_seconds: float = 8.0  # the serve run inside corpus's trace
    # edit-storm
    edit_target: int = 100_000
    edit_ops: int = 20_000
    edit_windows: int = 10
    edit_open_target: int = 5_000
    edit_class_sizes: tuple = (300, 600, 1200, 2400, 4800)
    # self-test hook: flip the first expected verdict
    flip_first_answer: bool = False


FULL = Settings()
TINY = Settings(
    corpus_sizes=(40, 160), oracle_workers=0,
    serve_sizes=(20, 40), serve_rate=40.0, serve_cold_every=8,
    serve_cold_probes=2, serve_rounds=2, serve_layer_seconds=2.0,
    edit_target=200, edit_ops=120, edit_windows=2, edit_open_target=60,
    edit_class_sizes=(30, 90),
)

SERVE_WORKERS = 2
SERVE_CONNECTIONS = 2
SERVE_LATENCY_LIMIT_MS = 1000.0
"""A serve-mix answer later than this (from its due time) fails."""
SERVE_OPEN_SHARE = 0.7
"""Share of the timed serve-mix phases spent in the open loop."""
EDIT_CHECKS = 2
"""Storm checkpoints compared with the oracle (plus the end)."""

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("validate.repetitive_el_per_s", "el/s", "higher", 0.25),
    ("validate.unique_el_per_s", "el/s", "higher", 0.25),
    ("validate.rich_el_per_s", "el/s", "higher", 0.25),
    ("validate.invalid_el_per_s", "el/s", "higher", 0.25),
    ("validate.unordered_el_per_s", "el/s", "higher", 0.25),
    ("op.p50_ms", "ms", "lower", 0.25),
    ("op.p99_ms", "ms", "lower", 0.25),
    ("cold_ms", "ms", "lower", 0.25),
)

_CORPUS_DENSE = ("validate.repetitive_el_per_s, validate.unique_el_per_s "
                 "on corpus")
_CORPUS_SLOW = ("validate.rich_el_per_s, validate.invalid_el_per_s, "
                "validate.unordered_el_per_s on corpus")
_SERVE_P50 = "op.p50_ms on serve-mix"
_SERVE_TAIL = "op.p99_ms on serve-mix"

PER_LAYER = (
    # name, unit, better, the end-to-end metric and workload it should move
    ("tokenizer.split_ns_per_el", "ns/el", "lower", _CORPUS_DENSE),
    ("tokenizer.tokens_ns_per_el", "ns/el", "lower", _CORPUS_DENSE),
    *((f"tokenizer.memo_hit_ratio.{c}", "ratio", "higher",
       f"validate.{c}_el_per_s on corpus") for c in CLASSES),
    ("parser.events_ns_per_el", "ns/el", "lower",
     _CORPUS_SLOW + "; " + _SERVE_P50),
    ("parser.tree_ns_per_el", "ns/el", "lower",
     "cold_ms and validate.*_el_per_s on edit-storm"),
    ("streaming.steps_ns_per_el", "ns/el", "lower",
     "validate.repetitive_el_per_s on corpus"),
    ("streaming.compat_ns_per_el", "ns/el", "lower", _CORPUS_SLOW),
    ("streaming.wasted_ns_per_el", "ns/el", "lower",
     "validate.rich_el_per_s, validate.invalid_el_per_s on corpus"),
    *((f"streaming.fallback_ratio.{c}", "ratio", "lower",
       f"validate.{c}_el_per_s on corpus") for c in CLASSES),
    ("compiler.compile_xsd_ms", "ms", "lower", "cold_ms on corpus"),
    ("compiler.to_dfa_ms", "ms", "lower", "cold_ms on corpus"),
    ("compiler.minimize_ms", "ms", "lower", "cold_ms on corpus"),
    ("compiler.dfa_states_max", "states", "lower",
     "validate.unordered_el_per_s on corpus"),
    ("compiler.dense_schema_ratio", "ratio", "higher",
     "validate.unordered_el_per_s on corpus"),
    ("compile.ordered_ms", "ms", "lower", "cold_ms on corpus"),
    ("compile.unordered_ms", "ms", "lower", "cold_ms on corpus"),
    ("schema.parse_ms", "ms", "lower", "cold_ms on corpus and serve-mix"),
    ("bonxai.compile_ms", "ms", "lower", "cold_ms on corpus and serve-mix"),
    ("translation.alg2_ms", "ms", "lower",
     "cold_ms on corpus and serve-mix"),
    ("translation.alg4_ms", "ms", "lower",
     "cold_ms on corpus and serve-mix"),
    ("cache.fingerprint_us", "us", "lower", _SERVE_P50),
    ("cache.identity_hit_us", "us", "lower", _SERVE_P50),
    ("cache.hit_ratio", "ratio", "higher", _SERVE_P50),
    ("batch.isolate_overhead_us", "us", "lower",
     _SERVE_P50 + " and validate.*_el_per_s on serve-mix"),
    ("batch.dense_share", "ratio", "higher",
     "validate.repetitive_el_per_s, validate.unique_el_per_s on serve-mix"),
    ("serve.server_p50_ms", "ms", "lower", _SERVE_P50),
    ("serve.server_p99_ms", "ms", "lower", _SERVE_TAIL),
    ("serve.edge_ms", "ms", "lower", _SERVE_P50),
    ("serve.queue_wait_p99_ms", "ms", "lower", _SERVE_TAIL),
    ("serve.worker_hot_ms", "ms", "lower", _SERVE_P50),
    ("serve.worker_cold_ms", "ms", "lower", "cold_ms on serve-mix"),
    ("serve.shed", "count", "lower", _SERVE_TAIL),
    ("serve.gen_late_ms", "ms", "lower",
     "none (load-generator health; must stay near 0)"),
    ("serve.closed_rps", "1/s", "higher",
     "validate.*_el_per_s on serve-mix"),
    ("incremental.build_ns_per_el", "ns/el", "lower",
     "cold_ms on edit-storm"),
    ("patch.resolve_us", "us", "lower", "op.p50_ms on edit-storm"),
    *((f"incremental.{op}_p50_us", "us", "lower",
       "op.p50_ms, op.p99_ms on edit-storm") for op in EDIT_OPS),
    ("incremental.content_replays", "count", "lower",
     "op.p50_ms, op.p99_ms on edit-storm"),
    ("incremental.memo_hits", "count", "higher", "op.p50_ms on edit-storm"),
    ("failed_ratio", "ratio", "lower", "none (share of failed operations)"),
    ("tracing.overhead_ratio", "ratio", "lower",
     "none (traced vs untraced end-to-end figures of the same run)"),
)

UNITS = {name: unit for name, unit, *__ in END_TO_END + PER_LAYER}

DIFFERENCES = ("streaming.steps_ns_per_el", "streaming.wasted_ns_per_el",
               "batch.isolate_overhead_us", "serve.edge_ms")
"""Per-layer metrics taken as one timing minus another: a negative value
is below the probes' noise and is reported as 0."""
