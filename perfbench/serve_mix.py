"""serve-mix: ``POST /validate`` traffic against a ``repro serve`` daemon.

Set-up generates the request pool (the corpus generators at request
sizes, against the schema catalog: the *hot* schemas) and fresh *cold*
schemas never shown to the daemon before, computes every expected answer
(each verdict cross-checked against the generator's formal model),
starts ``python -m repro.cli serve --workers 2`` as a subprocess, waits for
``/readyz`` and sends every hot request once.  The timed phases, from one
process over at most two keep-alive connections:

1. an open loop of seeded Poisson arrivals at ``Settings.serve_rate``,
   about half the closed-loop throughput measured on untraced runs;
   about one request in ``serve_cold_every`` carries a cold schema, so
   parse, translation and compile run on the request path.  Latency is
   counted from each request's due time, so a stall is charged to every
   request that was due during it;
2. a closed loop on two connections (per-class throughput);
3. ``serve_cold_probes`` cold requests, one at a time (``cold_ms``);

run as alternating rounds (see :class:`Phases`).

At the end the daemon is drained with SIGTERM and must exit 0.  A
request fails when it is not a 200, when its verdict or violations differ
from the oracle, or when it takes longer than the latency limit.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

from perfbench import gen, inputs, layers
from perfbench.common import Outcome, finish_trace, quiesce, scaled
from perfbench.config import (
    CLASSES,
    SERVE_CONNECTIONS,
    SERVE_LATENCY_LIMIT_MS,
    SERVE_OPEN_SHARE,
    SERVE_WORKERS,
)
from perfbench.corpus import class_corpus
from perfbench.ledger import Ledger
from perfbench.stats import geomean, quantile

HEADERS = {"Content-Type": "application/json"}
COLD_SIZE = 200


class Request:
    __slots__ = ("body", "expected", "cls", "elements", "cold", "schema",
                 "text")

    def __init__(self, schema, doc_text, cls, elements, expected, cold):
        self.body = json.dumps({
            "schema": schema.text, "schema_kind": schema.kind,
            "document": doc_text,
        }).encode("utf-8")
        self.schema = schema
        self.text = doc_text
        self.cls = cls
        self.elements = elements
        self.expected = expected
        self.cold = cold


class Daemon:
    """``python -m repro.cli serve`` on an ephemeral port."""

    def __init__(self, root, log_path, access_log=None):
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                   "--workers", str(SERVE_WORKERS)]
        if access_log is not None:
            command += ["--access-log", access_log]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        try:
            announce = self.process.stdout.readline().strip()
            if not announce.startswith("serving on http://"):
                raise RuntimeError(f"daemon did not start: {announce!r}")
            self.port = int(announce.rsplit(":", 1)[1])
            self._wait_ready()
        except BaseException:
            self.kill()
            raise

    def _wait_ready(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.get("/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.05)
        raise RuntimeError("daemon never answered /readyz with 200")

    def get(self, path):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def metrics(self):
        from repro.serve.top import parse_prometheus_text

        return parse_prometheus_text(self.get("/metrics")[1].decode())

    def drain(self, timeout=30.0):
        """SIGTERM, then wait; the exit code (``None`` if it had to be
        killed)."""
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return None
        self._log.close()
        return self.process.returncode

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()
        self._log.close()


class Client:
    """One keep-alive connection."""

    def __init__(self, port):
        self.connection = http.client.HTTPConnection("127.0.0.1", port,
                                                     timeout=60)

    def post(self, body):
        self.connection.request("POST", "/validate", body=body,
                                headers=HEADERS)
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self):
        self.connection.close()


def open_loop(schedule, send, connections):
    """Send request ``i`` at ``start + schedule[i]`` seconds, over
    ``connections`` sender threads.

    A request waits for a free connection if every connection is busy, so
    the sender may run late; its latency still counts from the due time.
    Returns ``[(due, sent, done, result)]`` in schedule order.
    """
    records = [None] * len(schedule)
    lock = threading.Lock()
    next_index = [0]
    start = time.perf_counter() + 0.05

    def sender(slot):
        while True:
            with lock:
                index = next_index[0]
                next_index[0] += 1
            if index >= len(schedule):
                return
            due = start + schedule[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            result = send(slot, index)
            records[index] = (due, sent, time.perf_counter(), result)

    threads = [threading.Thread(target=sender, args=(slot,))
               for slot in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def closed_loop(duration, sequences, send):
    """Each connection sends its sequence back to back for ``duration``
    seconds; returns ``[(index, latency_s, result)]``."""
    records = []
    lock = threading.Lock()
    stop_at = time.perf_counter() + duration

    def sender(slot):
        position = 0
        sequence = sequences[slot]
        while time.perf_counter() < stop_at:
            index = sequence[position % len(sequence)]
            position += 1
            started = time.perf_counter()
            result = send(slot, index)
            latency = time.perf_counter() - started
            with lock:
                records.append((index, latency, result))

    threads = [threading.Thread(target=sender, args=(slot,))
               for slot in range(len(sequences))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def prepare(seed, settings):
    """The seeded stream, the schema catalog, the hot requests and their
    formal models' verdicts."""
    rng = gen.seeded(seed, "serve-mix")
    families, schemas = gen.catalog()
    docs, expected, verdicts = class_corpus(seed, "serve-mix-docs",
                                            settings.serve_sizes, families,
                                            settings)
    hot = [Request(d.schema, d.text, d.cls, d.elements, e, False)
           for d, e in zip(docs, expected)]
    return rng, schemas, hot, verdicts


def cold_requests(rng, count):
    """``count`` requests, each with a schema never generated before, and
    their formal models' verdicts."""
    kinds = ("xsd", "bonxai", "dtd")
    requests, verdicts = [], []
    for index in range(count):
        schema = gen.ordered_schema(rng, f"cold-{index}", kinds[index % 3])
        doc = gen.repetitive_doc(schema, rng, COLD_SIZE)
        expected, verdict = inputs.answer(schema.kind, schema.text, doc.text,
                                          schema.model)
        requests.append(Request(schema, doc.text, "cold", doc.elements,
                                expected, True))
        verdicts.append(verdict)
    return requests, verdicts


def schedule_for(rng, rate, seconds, hot_count, cold_every):
    """Poisson arrival offsets and, per arrival, ``("hot", i)`` or
    ``("cold", k)``."""
    offsets, picks = [], []
    now = rng.expovariate(rate)
    cold = 0
    while now < seconds:
        offsets.append(now)
        if len(offsets) % cold_every == cold_every // 2:
            picks.append(("cold", cold))
            cold += 1
        else:
            picks.append(("hot", rng.randrange(hot_count)))
        now += rng.expovariate(rate)
    return offsets, picks, cold


class Phases:
    """The timed phases against one daemon, and their figures.

    The open and closed loops run in ``rounds`` alternating segments, with
    the cold probes spread over them.  A round's slowdown is the median,
    over its closed-loop requests, of latency over that request's fastest
    latency in the run; the quieter half of the rounds gives the latency
    percentiles and ``cold_ms``, and each hot request's fastest closed-loop
    latency gives the per-class throughput.  Neighbour load on a shared
    host only adds time, in bursts of seconds; this keeps the figures on
    the program.
    """

    def __init__(self, hot, open_cold, probe_cold, offsets, picks,
                 sequences, open_seconds, closed_seconds):
        self.hot = hot
        self.open_cold = open_cold
        self.probe_cold = probe_cold
        self.offsets = offsets
        self.picks = picks
        self.sequences = sequences
        self.open_seconds = open_seconds
        self.closed_seconds = closed_seconds

    def run(self, port, outcome, rounds, ledger=None):
        clients = [Client(port) for __ in range(SERVE_CONNECTIONS)]
        try:
            return self._run(clients, outcome, rounds, ledger)
        finally:
            for client in clients:
                client.close()

    def _send(self, clients, ledger, request):
        def send(slot, index):
            item = request(index)
            try:
                if ledger is None:
                    return clients[slot].post(item.body)
                with ledger.span("serve.request", cls=item.cls,
                                 cold=item.cold):
                    return clients[slot].post(item.body)
            except (OSError, http.client.HTTPException) as error:
                port = clients[slot].connection.port
                clients[slot].close()
                clients[slot] = Client(port)
                return (0, repr(error).encode())
        return send

    def _check(self, outcome, item, result, latency_ms):
        status, raw = result
        ok = status == 200 and latency_ms <= SERVE_LATENCY_LIMIT_MS
        if ok:
            payload = json.loads(raw)
            ok = (payload.get("valid") == item.expected[0]
                  and sorted(payload.get("violations", []))
                  == item.expected[1])
        outcome.check(ok)
        return status

    def _open_item(self, index):
        kind, which = self.picks[index]
        return self.hot[which] if kind == "hot" else self.open_cold[which]

    def _run(self, clients, outcome, rounds, ledger):
        segment = self.open_seconds / rounds
        opened = []  # (round, latency ms from due, ms on the wire, late ms)
        closed = []  # (round, hot index, latency s)
        probes = []  # (round, latency ms)
        statuses = []
        good = 0
        send_open = self._send(clients, ledger, self._open_item)
        send_hot = self._send(clients, ledger, lambda i: self.hot[i])
        send_probe = self._send(clients, ledger, lambda i: self.probe_cold[i])
        for number in range(rounds):
            outcome.host.sample()
            low, high = number * segment, (number + 1) * segment
            chosen = [i for i, at in enumerate(self.offsets)
                      if low <= at < high]
            records = open_loop(
                [self.offsets[i] - low for i in chosen],
                lambda slot, k: send_open(slot, chosen[k]),
                SERVE_CONNECTIONS,
            )
            for k, (due, sent, done, result) in enumerate(records):
                latency = (done - due) * 1e3
                statuses.append(self._check(
                    outcome, self._open_item(chosen[k]), result, latency))
                opened.append((number, latency, (done - sent) * 1e3,
                               (sent - due) * 1e3))
            shift = number * 97
            sequences = [seq[shift:] + seq[:shift] for seq in self.sequences]
            for index, latency, result in closed_loop(
                    self.closed_seconds / rounds, sequences, send_hot):
                status = self._check(outcome, self.hot[index], result,
                                     latency * 1e3)
                closed.append((number, index, latency))
                good += status == 200
            for k in range(len(self.probe_cold)):
                if k * rounds // len(self.probe_cold) == number:
                    started = time.perf_counter()
                    result = send_probe(0, k)
                    latency = (time.perf_counter() - started) * 1e3
                    self._check(outcome, self.probe_cold[k], result, latency)
                    probes.append((number, latency))

        fastest = {}
        for __, index, latency in closed:
            fastest[index] = min(latency, fastest.get(index, latency))
        slowdown = {}
        for number in range(rounds):
            ratios = [latency / fastest[index]
                      for n, index, latency in closed if n == number]
            slowdown[number] = quantile(ratios, 0.5) if ratios else 1.0
        calm = quantile(list(slowdown.values()), 0.5)
        quiet_rounds = {n for n, value in slowdown.items() if value <= calm}

        figures = {}
        for cls in CLASSES:
            rates = [self.hot[i].elements / latency
                     for i, latency in fastest.items()
                     if self.hot[i].cls == cls]
            figures[f"validate.{cls}_el_per_s"] = geomean(rates) \
                if rates else 0.0
        quiet_open = [r[1] for r in opened if r[0] in quiet_rounds]
        figures["op.p50_ms"] = quantile(quiet_open, 0.5)
        figures["op.p99_ms"] = quantile(quiet_open, 0.99)
        quiet_probes = [ms for n, ms in probes if n in quiet_rounds] or \
            [ms for __, ms in probes]
        figures["cold_ms"] = quantile(quiet_probes, 0.5)
        # Client time on the wire of every timed request, in send order.
        self.wire_ms = ([r[2] for r in opened]
                        + [latency * 1e3 for __, ___, latency in closed]
                        + [ms for __, ms in probes])
        self.lateness_p99 = quantile([r[3] for r in opened], 0.99)
        self.shed = statuses.count(429)
        self.closed_rps = good / self.closed_seconds
        self.quiet_rounds = len(quiet_rounds)
        return figures


def _histogram_ms(before, after, name, q):
    """``q``-quantile (ms) of a nanosecond histogram between two scrapes."""
    from repro.serve.top import histogram_quantile

    def buckets(samples):
        found = {}
        for (sample, labels), value in samples.items():
            bound = dict(labels).get("le")
            if sample == name + "_bucket" and bound is not None:
                found[float(bound)] = value
        return found

    now, then = buckets(after), buckets(before)
    deltas = sorted((bound, now[bound] - then.get(bound, 0.0))
                    for bound in now)
    return histogram_quantile(deltas, q) / 1e6


def _delta(before, after, name):
    for key in (name, name + "_total"):
        if (key, ()) in after:
            return after[(key, ())] - before.get((key, ()), 0.0)
    return 0.0


def run(seed, seconds, settings, trace, out_dir, started):
    with Outcome() as outcome:
        _run(outcome, seed, seconds, settings, trace, out_dir, started)
    return outcome


def _run(outcome, seed, seconds, settings, trace, out_dir, started):
    plan = Plan(seed, seconds, settings, outcome)
    untraced, phases = plan.execute(out_dir, outcome, started=started)
    outcome.e2e.update(untraced)
    outcome.lines.append(
        f"serve-mix: {len(plan.hot)} hot requests, {len(plan.offsets)} "
        f"open-loop arrivals ({plan.cold_count} cold) at "
        f"{settings.serve_rate:g} req/s, closed loop {phases.closed_rps:.1f} "
        f"req/s, {phases.quiet_rounds} quiet rounds"
    )
    if not trace:
        return
    ledger = Ledger()
    outcome.host.mark()
    traced = serve_layers(plan, outcome, ledger, out_dir)
    compiled = {s.label: inputs.compile_text(s.kind, s.text)[1]
                for s in plan.schemas}
    items = [(r.cls, r.text, compiled[r.schema.label], r.elements)
             for r in plan.hot]
    doc_metrics, shares, notes = layers.document_layers(items, ledger)
    outcome.layers.update(doc_metrics)
    outcome.layers.update(layers.schema_layers(
        plan.schemas + [r.schema for r in plan.cold[:8]], ledger
    ))
    small = min(plan.hot, key=lambda r: abs(r.elements - 500))
    outcome.layers["batch.isolate_overhead_us"] = \
        layers.batch_overhead_us(compiled[small.schema.label],
                                 small.text, ledger)
    outcome.lines.extend(f"  unmeasurable: {note}" for note in notes)
    finish_trace(outcome, "serve-mix", seed, ledger, untraced, traced,
                 out_dir, extra={"class_shares": shares,
                                 "unmeasurable_shares": notes})


class Plan:
    """The seeded inputs and schedules of one serve-mix run.

    Set-up cross-checks every expected verdict against the formal models
    into ``outcome`` (see :func:`perfbench.inputs.cross_check`).
    """

    def __init__(self, seed, seconds, settings, outcome):
        self.seed = seed
        self.settings = settings
        rng, self.schemas, self.hot, verdicts = prepare(seed, settings)
        open_seconds = seconds * SERVE_OPEN_SHARE
        self.offsets, self.picks, self.cold_count = schedule_for(
            rng, settings.serve_rate, open_seconds, len(self.hot),
            settings.serve_cold_every,
        )
        # Each run starts a fresh daemon, so these are cold every time.
        self.cold, cold_verdicts = cold_requests(
            rng, self.cold_count + settings.serve_cold_probes
        )
        inputs.cross_check(outcome,
                           [r.expected for r in self.hot + self.cold],
                           verdicts + cold_verdicts)
        self.sequences = [[rng.randrange(len(self.hot)) for __ in range(4096)]
                          for __ in range(SERVE_CONNECTIONS)]
        self.open_seconds = open_seconds
        self.closed_seconds = max(seconds - open_seconds - 1.0, 1.0)

    def phases(self):
        return Phases(self.hot, self.cold[:self.cold_count],
                      self.cold[self.cold_count:], self.offsets, self.picks,
                      self.sequences, self.open_seconds, self.closed_seconds)

    def execute(self, out_dir, outcome, access_log=None, ledger=None,
                started=None):
        """One daemon, warmed, through the phases, drained."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        os.makedirs(out_dir, exist_ok=True)
        suffix = ".traced" if access_log else ""
        log = os.path.join(out_dir,
                           f"serve-mix-seed{self.seed}{suffix}.daemon.log")
        return _with_daemon(root, log, access_log, self.phases(), self.hot,
                            outcome, self.settings, started=started,
                            ledger=ledger)


def serve_layers(plan, outcome, ledger, out_dir):
    """Run ``plan`` against a daemon with ``--access-log`` and record the
    serve-side layer figures; returns the traced end-to-end figures."""
    access_log = os.path.join(out_dir,
                              f"serve-mix-seed{plan.seed}.access.jsonl")
    if os.path.exists(access_log):
        os.remove(access_log)
    traced, phases = plan.execute(out_dir, outcome, access_log, ledger)
    _serve_layers(outcome, phases, access_log, plan.cold, len(plan.hot))
    return traced


def _with_daemon(root, log_path, access_log, phases, hot, outcome, settings,
                 started=None, ledger=None):
    """Start a daemon, warm it, run the phases, drain it."""
    daemon = Daemon(root, log_path, access_log)
    try:
        warm = Client(daemon.port)
        try:
            for item in hot:
                status, raw = warm.post(item.body)
                outcome.check(status == 200)
        finally:
            warm.close()
        quiesce()
        setup = time.perf_counter() - started if started is not None \
            else None
        before = daemon.metrics()
        # The daemon's time cannot be sampled item by item: scale the
        # pass by its fastest kernel (one sample per round).
        figures = scaled(phases.run(daemon.port, outcome,
                                    settings.serve_rounds, ledger),
                         outcome.host.scale(current=True))
        phases.scrapes = (before, daemon.metrics())
        if setup is not None:
            outcome.e2e["setup_s"] = setup * outcome.host.typical_scale()
    except BaseException:
        daemon.kill()
        raise
    code = daemon.drain()
    outcome.check(code == 0)
    if code != 0:
        outcome.lines.append(f"daemon exited {code} after SIGTERM")
    return figures, phases


def _serve_layers(outcome, phases, access_log, cold, warmed):
    before, after = phases.scrapes
    figures = outcome.layers
    figures["serve.server_p50_ms"] = _histogram_ms(
        before, after, "serve_request_latency", 0.5)
    figures["serve.server_p99_ms"] = _histogram_ms(
        before, after, "serve_request_latency", 0.99)
    figures["serve.queue_wait_p99_ms"] = _histogram_ms(
        before, after, "serve_queue_wait_ns", 0.99)
    figures["serve.shed"] = float(phases.shed)
    figures["serve.gen_late_ms"] = phases.lateness_p99
    figures["serve.closed_rps"] = phases.closed_rps
    hits = _delta(before, after, "engine_cache_hits")
    misses = _delta(before, after, "engine_cache_misses")
    figures["cache.hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    dense = _delta(before, after, "engine_dense_docs")
    streamed = _delta(before, after, "engine_stream_docs")
    figures["batch.dense_share"] = dense / streamed if streamed else 0.0

    from repro.serve.accesslog import read_access_log
    from repro.serve.service import schema_key

    cold_hashes = {schema_key(r.schema.kind, r.schema.text)[:12]
                   for r in cold}
    records = [r for r in read_access_log(access_log)
               if r.get("route") == "validate" and "worker_ms" in r]
    hot_ms = [r["worker_ms"] for r in records
              if r.get("schema_hash") not in cold_hashes]
    cold_ms = [r["worker_ms"] for r in records
               if r.get("schema_hash") in cold_hashes]
    figures["serve.worker_hot_ms"] = quantile(hot_ms, 0.5) if hot_ms else 0.0
    figures["serve.worker_cold_ms"] = quantile(cold_ms, 0.5) if cold_ms \
        else 0.0
    # Every line after the warm-up's (one per hot request) is a timed
    # request: edge = client time on the wire minus queue + worker time.
    inside = [r.get("queue_wait_ms", 0.0) + r["worker_ms"]
              for r in records[warmed:]]
    figures["serve.edge_ms"] = (
        quantile(phases.wire_ms, 0.5) - quantile(inside, 0.5)
        if inside else 0.0
    )
