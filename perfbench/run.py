"""Run one benchmark workload and print its figures.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads: ``corpus``, ``serve-mix`` and ``edit-storm`` (see README.md in
this directory).  The inputs are generated from ``--seed``; the timed
phases take about ``--seconds``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it repeats the measurement with a
span ledger on and reports the per-layer metrics, writing the ledger under
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Run it from the repository root: it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "corpus": "perfbench.corpus",
    "serve-mix": "perfbench.serve_mix",
    "edit-storm": "perfbench.edit_storm",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.config import FULL

    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(
        args.seed, args.seconds, FULL, bool(args.trace),
        os.path.join(HERE, "out"), STARTED,
    )
    for line in outcome.lines:
        print(line)
    print(f"host speed: fastest kernel {min(outcome.host.samples) / 1e3:.1f}"
          f" us (layer timings scaled by {outcome.host.scale():.4f})")
    print(json.dumps(outcome.summary(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
