"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import http.server
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

from perfbench import config, corpus, edit_storm, hostspeed, serve_mix
from perfbench.common import Outcome
from perfbench.config import END_TO_END, PER_LAYER, TINY
from perfbench.inputs import cross_check

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOADS = {"corpus": corpus, "serve-mix": serve_mix,
             "edit-storm": edit_storm}
GATED = ["corpus", "edit-storm"]
"""The workloads ``BENCHMARK.json`` lists; serve-mix runs on its own and
inside corpus's traced run (see README)."""


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_matches_the_metric_tables():
    bench = _benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == GATED
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == [row[:3] for row in PER_LAYER]
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert max(m["bound"] for m in bench["end_to_end"]) == \
        dict((m["name"], m["bound"]) for m in bench["end_to_end"])["setup_s"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_is_clean(name, tmp_path):
    outcome = WORKLOADS[name].run(5, 1.5, TINY, True, str(tmp_path),
                                  time.perf_counter())
    assert outcome.failed == 0 and outcome.attempted > 0
    untraced = outcome.summary(False)
    assert untraced["correct"] is True
    assert set(untraced["metrics"]) == {row[0] for row in END_TO_END}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    traced = outcome.summary(True)
    assert set(traced["metrics"]) == {row[0] for row in PER_LAYER}
    assert traced["metrics"]["failed_ratio"]["value"] == 0
    # Layer times, differences included, are never negative.
    negative = {name: m["value"] for name, m in traced["metrics"].items()
                if m["value"] < 0 and name != "tracing.overhead_ratio"}
    assert not negative
    assert any(p.name.endswith(".spans.jsonl") for p in tmp_path.iterdir())


def test_a_flipped_expected_verdict_counts_as_a_failure(tmp_path):
    settings = dataclasses.replace(TINY, flip_first_answer=True)
    outcome = corpus.run(5, 1.0, settings, False, str(tmp_path),
                         time.perf_counter())
    assert outcome.failed > 0
    assert outcome.summary(False)["correct"] is False


def test_a_verdict_the_formal_model_contradicts_counts_as_a_failure():
    with Outcome() as outcome:
        cross_check(outcome, [(True, []), (False, ["/a: bad"])],
                    [True, True])
    assert (outcome.attempted, outcome.failed) == (2, 1)


def _children():
    """PIDs of this process's children, from ``/proc`` (Linux)."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                # After the command name: state, then the parent's pid.
                parent = int(stat.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if parent == os.getpid():
            found.add(int(entry))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_the_oracle_pool_agrees_and_leaves_no_process_behind():
    from perfbench import gen

    families, __ = gen.catalog()
    before = _children()
    pooled = corpus.class_corpus(5, "corpus", (40,), families,
                                 dataclasses.replace(TINY, oracle_workers=2))
    assert _children() <= before
    serial = corpus.class_corpus(5, "corpus", (40,), families, TINY)
    assert pooled[1:] == serial[1:]


def test_the_host_speed_helper_runs_the_kernel_and_is_stopped():
    with Outcome() as outcome:
        first = outcome.host.sample()
        second = outcome.host.sample()
        helper = outcome.host._helper
        assert helper.poll() is None
    assert helper.poll() == 0
    kernels = outcome.host.samples
    assert (first, second) == (0, 1) and len(kernels) == 2 and min(kernels) > 0
    # A sample counts at the mean of the kernels before and after it.
    reference = outcome.host.at_reference(1000, first)
    assert reference == pytest.approx(
        1000 * hostspeed.REFERENCE_NS * 2 / sum(kernels))
    assert outcome.host.at_reference(1000, second) == pytest.approx(
        1000 * hostspeed.REFERENCE_NS / kernels[1])


class _StallingHandler(http.server.BaseHTTPRequestHandler):
    """Answers every POST after a shared lock; one request holds it long."""

    protocol_version = "HTTP/1.1"
    lock = threading.Lock()
    served = [0]
    stall_at = 10
    stall_seconds = 0.3

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.lock:
            self.served[0] += 1
            if self.served[0] == self.stall_at:
                time.sleep(self.stall_seconds)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_open_loop_charges_a_stall_to_every_request_due_during_it():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                             _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    clients = [serve_mix.Client(server.server_address[1]) for __ in range(2)]
    try:
        schedule = [index * 0.01 for index in range(60)]
        records = serve_mix.open_loop(
            schedule, lambda slot, index: clients[slot].post(b"{}"), 2
        )
    finally:
        for client in clients:
            client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    stalled = max(range(len(records)),
                  key=lambda i: records[i][2] - records[i][1])
    __, stall_sent, stall_done, ___ = records[stalled]
    assert stall_done - stall_sent >= 0.3
    during = [r for r in records if stall_sent < r[0] < stall_done - 0.02]
    assert len(during) >= 10
    for due, sent, done, result in during:
        # Counted from its due time, each waited out the rest of the stall.
        assert done - due >= (stall_done - due) - 0.005
    assert any(sent - due > 0.05 for due, sent, __, ___ in during)


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_settings_tables_are_consistent():
    assert set(config.UNITS) == {row[0] for row in END_TO_END + PER_LAYER}
    assert len(config.UNITS) == len(END_TO_END) + len(PER_LAYER)
