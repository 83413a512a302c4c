"""The host's speed during a run, from a fixed calibration kernel.

The benchmark host is shared: neighbour load slows a core by up to 70%,
one core or both, for a second or for minutes.  So a run times a fixed
kernel -- the scan-slice-allocate work of a markup parser, the kind of
work the engine does -- between its timed samples, and takes each sample
at a reference speed: ``time * REFERENCE_NS / kernel time``, by the mean
of the kernel times just before and just after it
(:meth:`HostSpeed.at_reference`).  A slow moment moves the program and
the kernel alike and cancels out.  Figures without kernel samples of
their own (the daemon's, the traced run's layers) use the run's fastest
kernel instead (:meth:`HostSpeed.scale`), and set-up, too long a span for
one sample, the median kernel of the timed phase that follows it
(:meth:`HostSpeed.typical_scale`).

The kernel runs in a helper interpreter (``python -I -S`` on this file)
that never imports the program: whatever the program does to its own
process -- threads holding the GIL, garbage-collector settings, heap
growth -- slows the program's timings and not the kernel's, so it shows.
Neighbour load slows one core at a time, so each sample runs on the core
the benchmark's thread last ran on (Linux; elsewhere, where the helper
is scheduled); the benchmark blocks meanwhile, so the two never compete.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

REFERENCE_NS = 1_350_000
"""The kernel's time on the two-vCPU host the benchmark was defined on,
in a quiet moment."""

_WORDS = [f"w{index}x" for index in range(512)]
_MARKUP = "".join(f"<{word} id='{index}'>t{index}</{word}>"
                  for index, word in enumerate(_WORDS)) * 2


def kernel():
    """The calibration kernel: scan for tags, slice each out, split off
    its attributes and allocate a node per start tag."""
    nodes = []
    find = _MARKUP.find
    position = 0
    while True:
        start = find("<", position)
        if start < 0:
            return len(nodes)
        end = find(">", start)
        tag = _MARKUP[start + 1:end]
        if tag[0] != "/":
            name, __, attributes = tag.partition(" ")
            nodes.append({"name": name, "attributes": attributes,
                          "children": []})
        position = end + 1


def current_core():
    """The core this thread last ran on, or ``None`` where unknown."""
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            # Field 39; the command name (field 2) may contain spaces.
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def serve():
    """The helper's loop: for each request line, a core number (``-1``:
    anywhere), run the kernel once on that core and answer with its time
    in ns."""
    pinned = None
    for line in sys.stdin:
        core = int(line)
        if core >= 0 and core != pinned:
            try:
                os.sched_setaffinity(0, {core})
                pinned = core
            except (AttributeError, OSError):
                pass
        started = time.perf_counter_ns()
        kernel()
        sys.stdout.write(f"{time.perf_counter_ns() - started}\n")
        sys.stdout.flush()


class HostSpeed:
    """Kernel timings of one run, in passes (see :meth:`mark`)."""

    def __init__(self):
        self.samples = []
        self._pass_start = 0
        self._helper = None

    def sample(self):
        """Time the kernel once in the helper; record the time and return
        its index in :attr:`samples`."""
        if self._helper is None:
            self._helper = subprocess.Popen(
                [sys.executable, "-I", "-S", __file__],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        core = current_core()
        self._helper.stdin.write(f"{-1 if core is None else core}\n")
        self._helper.stdin.flush()
        self.samples.append(int(self._helper.stdout.readline()))
        return len(self.samples) - 1

    def at_reference(self, ns, index):
        """A time sample at the reference speed, by the mean of kernel
        sample ``index``, taken just before it, and the next one, taken
        just after it (when there is one).  Half the kernel's own noise
        cancels, and a slowdown that starts during the sample counts."""
        around = self.samples[index:index + 2]
        return ns * REFERENCE_NS * len(around) / sum(around)

    def mark(self):
        """Start a new pass (see :meth:`scale`)."""
        self._pass_start = len(self.samples)

    def scale(self, current=False):
        """Factor from raw timings to the reference speed, by the fastest
        kernel of the run or, with ``current``, of the current pass (below
        1 when the host ran slower than the reference)."""
        samples = self.samples[self._pass_start:] if current \
            else self.samples
        if not samples:
            return 1.0
        return REFERENCE_NS / min(samples)

    def typical_scale(self):
        """Factor from raw timings to the reference speed by the median
        kernel sample so far."""
        return REFERENCE_NS / statistics.median(self.samples)

    def close(self):
        """Stop the helper and wait for it."""
        if self._helper is not None:
            self._helper.stdin.close()
            self._helper.wait()
            self._helper.stdout.close()
            self._helper = None


if __name__ == "__main__":
    serve()
