"""Smoke test for the CLI observability surface (``make metrics-smoke``).

Runs ``bonxai validate --engine streaming --metrics`` on the paper's
running example (Figure 3 XSD, Figure 1 document) and checks that the
snapshot written to stderr is valid JSON with nonzero cache and DFA-size
metrics and an ``engine.stream.elements`` count equal to Figure 1's
element count; runs ``bonxai patch --metrics`` with an add, a
set-attribute and a set-text on Figure 1 and checks that the edit
counters agree (``engine.incremental.edits`` is the sum of its per-op
counters and the ``edit_ns`` count) and that the step opened exactly one
document; and checks that ``--budget-states`` refuses a Theorem-9
instance.
Exits nonzero (with a diagnostic) on any failure, so it can gate
``make check``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import pathlib

from repro.cli import main
from repro.observability import default_registry
from repro.paperdata import FIGURE1_XML, figure3_xsd
from repro.xmlmodel import parse_document
from repro.xsd import write_xsd


def run_cli(argv):
    stderr = io.StringIO()
    stdout = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(
        stdout
    ):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def check(condition, message):
    if not condition:
        print(f"metrics-smoke FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def main_smoke():
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        schema = root / "figure3.xsd"
        document = root / "figure1.xml"
        schema.write_text(write_xsd(figure3_xsd()))
        document.write_text(FIGURE1_XML)

        code, out, err = run_cli(
            [
                "validate",
                str(schema),
                str(document),
                "--engine",
                "streaming",
                "--metrics",
            ]
        )
        check(code == 0, f"validate exited {code}; stderr:\n{err}")
        check("VALID" in out, f"unexpected stdout: {out!r}")
        snapshot = json.loads(err)  # raises (fails the smoke) if not JSON
        counters = snapshot.get("counters", {})
        histograms = snapshot.get("histograms", {})
        cache_traffic = counters.get("engine.cache.hits", 0) + counters.get(
            "engine.cache.misses", 0
        )
        check(cache_traffic > 0, f"no cache traffic in snapshot: {counters}")
        dfa_sizes = histograms.get("engine.compile.dfa_states", {})
        check(
            dfa_sizes.get("count", 0) > 0 and dfa_sizes.get("max", 0) > 0,
            f"no DFA-size metrics in snapshot: {histograms}",
        )
        check(
            counters.get("engine.stream.docs", 0) > 0,
            f"no streaming metrics in snapshot: {counters}",
        )
        elements = parse_document(FIGURE1_XML).size()
        check(
            counters.get("engine.stream.elements") == elements,
            f"engine.stream.elements is not Figure 1's {elements} "
            f"elements: {counters}",
        )

        # The CLI runs share this process and its registry: compare the
        # patch step's snapshot with the registry's before it.
        patch = root / "edits.xml"
        patch.write_text(
            "<patch>"
            '<add sel="2/0"><bold>added</bold></add>'
            '<replace sel="2/0" type="@title">Preface</replace>'
            '<replace sel="2/0" type="text()" index="0">Opening </replace>'
            "</patch>"
        )
        before = default_registry().snapshot()["counters"]
        code, out, err = run_cli(
            ["patch", str(document), str(patch), "--schema", str(schema),
             "--metrics"]
        )
        check(code == 0, f"patch exited {code}; stderr:\n{err}")
        check("VALID after 3 op(s)" in out, f"unexpected stdout: {out!r}")
        snapshot = json.loads(err)
        counters = snapshot["counters"]
        edits = counters.get("engine.incremental.edits", 0)
        by_op = sum(
            value for name, value in counters.items()
            if name.startswith("engine.incremental.edits.")
        )
        timed = snapshot["histograms"].get(
            "engine.incremental.edit_ns", {}).get("count", 0)
        check(
            edits - before.get("engine.incremental.edits", 0) == 3,
            f"the patch step counted {edits} edits in all: {counters}",
        )
        check(edits == by_op, f"edits {edits} != per-op sum {by_op}")
        check(edits == timed, f"edits {edits} != edit_ns count {timed}")
        opened = counters.get("engine.incremental.documents", 0) - before.get(
            "engine.incremental.documents", 0)
        check(opened == 1, f"the patch step opened {opened} documents")

        # The budget flags must refuse adversarial translation work.
        from repro.families.theorem9 import theorem9_bxsd
        from repro.bonxai.decompile import bxsd_to_schema
        from repro.bonxai.printer import print_schema

        hard = root / "theorem9.bonxai"
        hard.write_text(print_schema(bxsd_to_schema(theorem9_bxsd(8))))
        code, out, err = run_cli(
            ["analyze", str(hard), "--budget-states", "64", "--metrics"]
        )
        check(code == 2, f"budgeted analyze exited {code}, expected 2")
        check(
            "state budget exceeded" in err,
            f"expected a budget refusal on stderr, got:\n{err}",
        )
        # stderr carries the error line followed by the JSON snapshot.
        snapshot = json.loads(err.split("\n", 1)[1])
        check("counters" in snapshot, "snapshot missing after refusal")

    print("metrics-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main_smoke())
