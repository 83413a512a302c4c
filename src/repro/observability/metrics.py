"""A dependency-free, thread-safe metrics registry.

Serving the validator under heavy traffic needs visibility into the hot
paths (cache behaviour, DFA sizes, per-document latency) without pulling
in a metrics client.  This module provides the three standard instrument
kinds — :class:`Counter`, :class:`Gauge`, :class:`Histogram` — owned by a
:class:`MetricsRegistry` that snapshots to a plain dict (and from there to
JSON).  Timers use ``time.perf_counter_ns`` so latency histograms keep
nanosecond resolution.

Design constraints:

* **Thread safety.**  Every instrument guards its state with one lock;
  hot loops should aggregate locally and publish once per unit of work
  (the streaming validator counts the elements it typed once per
  document, not per element).  The locks stay even where the GIL would
  make an update atomic: :meth:`MetricsRegistry.snapshot` holds every
  instrument's lock to take its point-in-time cut.
* **Stable names.**  Instruments are keyed by dotted names
  (``engine.cache.hits``); asking the registry for an existing name
  returns the existing instrument, so modules never need to coordinate
  creation order.
* **Bind hot-path instruments once.**  A lookup by name takes the
  registry lock and may build the name, so code that counts per
  document, per edit or per parse binds its instruments once: at
  import from :func:`default_registry` (one module global that nothing
  replaces), or when an object that takes a ``registry`` is made.
  Binding registers an instrument at 0, so snapshots list it before its
  first use.  Labeled series, whose names depend on the call, stay
  lookups.
* **No global coupling.**  Instrumented code resolves its registry through
  :func:`default_registry` but accepts an explicit one, so tests can use a
  private registry.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import deque


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name="", help=None):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value

    def _read_locked(self):
        """The snapshot value; the caller must hold ``self._lock``."""
        return self._value

    def __repr__(self):
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can go up and down (pool sizes, cache occupancy).

    :meth:`release` is the one write that waits on no lock.  It is for
    finalizers: the collector runs them inside whatever allocation freed
    their object, on a thread that may hold another instrument's lock or
    this one, as a registry snapshot does.  What they release is folded
    into the value by the next read or write, under the lock.
    """

    __slots__ = ("name", "help", "_value", "_released", "_lock")

    def __init__(self, name="", help=None):
        self.name = name
        self.help = help
        self._value = 0
        self._released = deque()
        self._lock = threading.Lock()

    def set(self, value):
        with self._lock:
            self._released.clear()  # a set overrides earlier releases
            self._value = value

    def add(self, amount=1):
        with self._lock:
            self._settle()
            self._value += amount

    def release(self, amount):
        """Take ``amount`` off the value without taking the lock."""
        self._released.append(amount)

    def _settle(self):
        """Fold the released amounts in; the caller holds ``self._lock``."""
        released = self._released
        while released:
            self._value -= released.popleft()

    @property
    def value(self):
        with self._lock:
            return self._read_locked()

    def snapshot(self):
        return self.value

    def _read_locked(self):
        """The snapshot value; the caller must hold ``self._lock``."""
        self._settle()
        return self._value

    def __repr__(self):
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Streaming summary of observed values: count/total/min/max + buckets.

    Buckets are powers of two over the observed value (dense enough for
    both DFA state counts and nanosecond latencies without configuration);
    ``snapshot`` reports them as ``{"<=2^k": count}`` plus the scalar
    summary and interpolated p50/p95/p99 estimates — ask
    :meth:`percentile` for any other quantile.

    An observation may carry an **exemplar**: a small label dict (in
    practice ``{"trace_id": ...}``) tying the bucket the value landed in
    to one concrete event.  The latest exemplar per bucket is retained
    and rendered in OpenMetrics exemplar syntax by the Prometheus
    exporter, so a latency bucket links straight to a retained trace.
    """

    __slots__ = ("name", "help", "_count", "_total", "_min", "_max",
                 "_buckets", "_exemplars", "_lock")

    def __init__(self, name="", help=None):
        self.name = name
        self.help = help
        self._count = 0
        self._total = 0
        self._min = None
        self._max = None
        self._buckets = {}
        self._exemplars = {}
        self._lock = threading.Lock()

    def observe(self, value, exemplar=None):
        """Record ``value``: the bucket of a positive value ``v`` is the
        bit length of ``int(v) - 1``, and of any other value 0; the
        first observation seeds the min and the max."""
        bucket = (int(value) - 1).bit_length() if value > 0 else 0
        with self._lock:
            count = self._count
            self._count = count + 1
            self._total += value
            if not count:
                self._min = self._max = value
            elif value < self._min:
                self._min = value
            elif value > self._max:
                self._max = value
            buckets = self._buckets
            buckets[bucket] = buckets.get(bucket, 0) + 1
            if exemplar:
                self._exemplars[bucket] = {
                    "labels": dict(exemplar),
                    "value": value,
                    "ts": time.time(),
                }

    def percentile(self, q):
        """An interpolated estimate of the ``q``-quantile (``0 <= q <= 1``).

        The estimate walks the cumulative power-of-two buckets to the one
        holding the target rank and interpolates linearly inside it
        (clamped to the observed min/max), so it is never below the true
        quantile's bucket lower bound nor above its upper bound.  Callers
        that used to "derive rough percentiles" from the snapshot by hand
        (benchmarks, perfguard) should use this instead.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q):
        if not self._count:
            return 0.0
        target = q * self._count
        cumulative = 0
        for exponent, hits in sorted(self._buckets.items()):
            previous = cumulative
            cumulative += hits
            if cumulative >= target:
                low = 0 if exponent == 0 else 2 ** (exponent - 1)
                high = 2 ** exponent
                low = max(low, self._min)
                high = min(high, self._max)
                if high <= low:
                    return float(low)
                fraction = (max(target, previous) - previous) / hits
                return float(low + fraction * (high - low))
        return float(self._max)

    def time(self):
        """Context manager observing the elapsed wall time in nanoseconds."""
        return _HistogramTimer(self)

    @property
    def count(self):
        with self._lock:
            return self._count

    @property
    def total(self):
        with self._lock:
            return self._total

    def snapshot(self):
        """A consistent point-in-time summary.

        Guarantee: all fields come from one instant under the instrument
        lock, so ``sum(buckets.values()) == count`` and
        ``mean == total / count`` hold exactly, even under concurrent
        :meth:`observe` calls.
        """
        with self._lock:
            return self._read_locked()

    def _read_locked(self):
        """The snapshot summary; the caller must hold ``self._lock``."""
        mean = self._total / self._count if self._count else 0
        summary = {
            "count": self._count,
            "total": self._total,
            "min": self._min,
            "max": self._max,
            "mean": mean,
            "p50": self._percentile_locked(0.50),
            "p95": self._percentile_locked(0.95),
            "p99": self._percentile_locked(0.99),
            "buckets": {
                f"<=2^{exponent}": hits
                for exponent, hits in sorted(self._buckets.items())
            },
        }
        if self._exemplars:
            summary["exemplars"] = {
                f"<=2^{exponent}": dict(exemplar)
                for exponent, exemplar in sorted(self._exemplars.items())
            }
        return summary

    def __repr__(self):
        return f"Histogram({self.name}, n={self.count})"


class _HistogramTimer:
    """``with histogram.time():`` — records elapsed nanoseconds."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram):
        self._histogram = histogram
        self._start = None

    def __enter__(self):
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info):
        self._histogram.observe(time.perf_counter_ns() - self._start)
        return False


class MetricsRegistry:
    """A named collection of instruments, snapshot-able as one document.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call with a name creates the instrument, later calls return it.  A
    name may only ever denote one instrument kind.

    A registration may carry a ``help=`` string — one line describing the
    *family* (labelled series registered through
    :func:`~repro.observability.export.labeled` share it, keyed by the
    name before the label block).  The Prometheus exporter renders it as
    the family's ``# HELP`` line; the first non-``None`` help for a
    family wins, so hot paths can keep calling without the string.
    """

    def __init__(self):
        self._instruments = {}
        self._help = {}
        self._lock = threading.Lock()

    def _get(self, name, factory, help=None):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory(name, help=help)
                self._instruments[name] = instrument
            elif not isinstance(instrument, factory):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {factory.__name__}"
                )
            if help is not None:
                family = name.partition("{")[0]
                self._help.setdefault(family, help)
            return instrument

    def counter(self, name, help=None):
        return self._get(name, Counter, help=help)

    def gauge(self, name, help=None):
        return self._get(name, Gauge, help=help)

    def histogram(self, name, help=None):
        return self._get(name, Histogram, help=help)

    def timer(self, name):
        """Alias: a context manager timing into histogram ``name``."""
        return self.histogram(name).time()

    def help_texts(self):
        """``{family dotted name: help}`` for every family that has one."""
        with self._lock:
            return dict(self._help)

    def snapshot(self):
        """A plain-dict view: {kind: {name: value-or-summary}}.

        Consistency guarantee: the snapshot is a single point-in-time cut
        across *all* instruments — every instrument lock is held (in
        sorted-name order, so concurrent snapshots cannot deadlock; hot
        paths only ever hold one instrument lock at a time) while the raw
        values are read.  Two counters always incremented back-to-back by
        one thread therefore differ by at most the one in-flight
        increment in any snapshot, and each histogram summary satisfies
        ``sum(buckets.values()) == count`` and ``mean == total / count``.
        """
        with self._lock:
            instruments = sorted(self._instruments.items())
        kinds = {Counter: "counters", Gauge: "gauges", Histogram: "histograms"}
        result = {"counters": {}, "gauges": {}, "histograms": {}}
        with contextlib.ExitStack() as stack:
            for __, instrument in instruments:
                stack.enter_context(instrument._lock)
            for name, instrument in instruments:
                result[kinds[type(instrument)]][name] = (
                    instrument._read_locked()
                )
        return result

    def to_json(self, indent=2):
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def __len__(self):
        with self._lock:
            return len(self._instruments)


_default = MetricsRegistry()


def default_registry():
    """The process-wide registry used by the engine, CLI, and benchmarks."""
    return _default


def resolve_registry(registry=None):
    """``registry`` if given, else the process-wide default."""
    return registry if registry is not None else _default
