"""What every workload shares: the outcome record and the run skeleton."""

from __future__ import annotations

import gc
import json
import os

from perfbench.config import DIFFERENCES, END_TO_END, PER_LAYER, UNITS
from perfbench.hostspeed import HostSpeed

TIME_UNITS = {"s", "ms", "us", "ns/el"}
RATE_UNITS = {"el/s", "1/s"}


class Outcome:
    """Operation counts, figures and report lines of one run.

    Use it as a context manager: leaving it stops the host-speed helper.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.e2e = {}
        self.layers = {}
        self.lines = []
        self.host = HostSpeed()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.host.close()

    def check(self, ok, count=1):
        """Count ``count`` attempted operations, failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count

    def summary(self, trace):
        """The result object: every end-to-end metric (``trace`` off) or
        every per-layer metric (``trace`` on), timings at the reference
        host speed (see :mod:`perfbench.hostspeed`).  The workloads store
        end-to-end figures at that speed already; layer figures are scaled
        here by the run's fastest kernel.  A layer this workload does not
        reach reads 0."""
        names = [row[0] for row in (PER_LAYER if trace else END_TO_END)]
        figures = scaled(self.layers, self.host.scale()) if trace \
            else self.e2e
        return {
            "correct": self.failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": float(figures.get(name, 0.0)),
                       "unit": UNITS[name]}
                for name in names
            },
        }


def scaled(figures, scale):
    """``figures`` with timings multiplied and rates divided by ``scale``
    (a :meth:`HostSpeed.scale` factor)."""
    out = {}
    for name, value in figures.items():
        unit = UNITS.get(name)
        if unit in TIME_UNITS:
            value *= scale
        elif unit in RATE_UNITS:
            value /= scale
        out[name] = value
    return out


def quiesce():
    """Collect garbage and freeze what survives (the generated inputs and
    whatever earlier phases left), so the collections during the next
    timed item scan only the objects that item makes."""
    gc.collect()
    gc.freeze()


def overhead(untraced, traced):
    """Median relative gap, traced vs untraced, over the end-to-end
    figures both passes produced (positive: tracing made it worse).
    Both are at the reference host speed, so host drift between the
    passes cancels."""
    gaps = []
    for name, __, better, ___ in END_TO_END:
        if name == "setup_s" or name not in untraced or name not in traced:
            continue
        base, value = untraced[name], traced[name]
        if not base:
            continue
        gap = (value - base) / base
        gaps.append(-gap if better == "higher" else gap)
    gaps.sort()
    return gaps[len(gaps) // 2] if gaps else 0.0


def finish_trace(outcome, workload, seed, ledger, untraced, traced, out_dir,
                 extra=None):
    """Fill the run-level layer figures, write the ledger, add the report.

    ``untraced`` and ``traced`` are the end-to-end figures of the two
    passes, at the reference host speed.
    """
    outcome.layers["failed_ratio"] = (
        outcome.failed / outcome.attempted if outcome.attempted else 0.0
    )
    unmeasurable = []
    for name in DIFFERENCES:
        value = outcome.layers.get(name, 0.0)
        if value < 0:
            unmeasurable.append(f"{name}: difference {value:.6g} is below "
                                "the probes' noise; reported as 0")
            outcome.layers[name] = 0.0
    outcome.lines.extend(f"  unmeasurable: {note}" for note in unmeasurable)
    outcome.layers["tracing.overhead_ratio"] = overhead(untraced, traced)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}")
    ledger.write(stem + ".spans.jsonl")
    self_times = ledger.self_times()
    record = {
        "workload": workload,
        "seed": seed,
        "untraced": untraced,
        "traced": traced,
        "layers": {
            name: {"value": outcome.layers.get(name, 0.0), "unit": unit,
                   "should_move": moves}
            for name, unit, __, moves in PER_LAYER
        },
        "unmeasurable_metrics": unmeasurable,
        "self_times": {
            name: {"count": count, "total_ms": total / 1e6,
                   "self_ms": own / 1e6}
            for name, (count, total, own) in sorted(self_times.items())
        },
    }
    if extra:
        record.update(extra)
    with open(stem + ".ledger.json", "w", encoding="utf-8") as sink:
        json.dump(record, sink, indent=2, sort_keys=True)
    lines = outcome.lines
    lines.append(f"ledger: {stem}.ledger.json ({len(ledger.spans)} spans)")
    lines.append("layer metric | value | should move")
    for name, unit, __, moves in PER_LAYER:
        value = outcome.layers.get(name, 0.0)
        lines.append(f"  {name} = {value:.6g} {unit} | {moves}")
    lines.append("span self time (ms): " + ", ".join(
        f"{name} {own / 1e6:.1f}"
        for name, (__, ___, own) in sorted(
            self_times.items(), key=lambda item: -item[1][2]
        )[:12]
    ))
    for name in untraced:
        if name in traced:
            lines.append(f"  tracing gap {name}: untraced {untraced[name]:.6g}"
                         f" traced {traced[name]:.6g}")
