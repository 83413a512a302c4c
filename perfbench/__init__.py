"""The repository benchmark: workloads, seeded inputs and the span ledger.

Run it with ``python3 perfbench/run.py`` (see ``run.py`` and README.md).
"""
