"""The traced run's span ledger.

One span per layer call -- name, start, end and the span that caused it --
recorded by the benchmark around its own calls into the program's public
functions (the program itself carries no spans for this).  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager


class Ledger:
    """Spans of one traced run; safe to record from several threads."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, start_ns, end_ns, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, **attrs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, attrs))

    def self_times(self):
        """``{name: (count, total_ns, self_ns)}``.

        A span's self time is its duration minus the time its child spans
        cover (children run inside their parent, one at a time per thread).
        """
        covered = {}
        for span_id, parent, __, start, end, ___ in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0) + (end - start)
        table = {}
        for span_id, __, name, start, end, ___ in self.spans:
            count, total, own = table.get(name, (0, 0, 0))
            duration = end - start
            table[name] = (count + 1, total + duration,
                           own + duration - covered.get(span_id, 0))
        return table

    def write(self, path):
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as sink:
            for span_id, parent, name, start, end, attrs in self.spans:
                record = {"id": span_id, "parent": parent, "name": name,
                          "start_ns": start, "end_ns": end}
                record.update(attrs)
                sink.write(json.dumps(record) + "\n")


def timed(ledger, name, function, *args, **attrs):
    """``(result, elapsed_ns)`` of one call, as a span when ``ledger`` is on.

    With tracing off (``ledger is None``) the call costs two clock reads.
    """
    if ledger is None:
        started = time.perf_counter_ns()
        result = function(*args)
        return result, time.perf_counter_ns() - started
    with ledger.span(name, **attrs):
        started = time.perf_counter_ns()
        result = function(*args)
        elapsed = time.perf_counter_ns() - started
    return result, elapsed
