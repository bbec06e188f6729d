"""The ``service-mix`` workload: a live ``serve`` process under a
closed loop of exploration clients.

Each session starts ``python -m repro.experiments serve`` (default
admission window, ``--jobs 2``) on a fresh cache directory, answers
the hot cells once so they sit in the engine's memo, and pre-writes a
slice of cells into its result cache.  That is the session's set-up.
Then :data:`CLIENTS` threads of this process each send one
single-cell query, wait for the answer and send the next, until the
session's seeded stream is used up.  The stream mixes:

* ``memo`` (~65%): hot real-workload cells, answered from the memo;
* ``cache`` (~5%): cells pre-written to the result cache, each read once;
* ``simulated`` (~15%): never-seen synth cells, simulated on demand and
  written to the result cache;
* ``estimate`` (~15%): analytic ``estimate`` queries over the hot
  workloads and the same spec set, ``superscalar`` included.

Every answer is checked byte for byte, through ``canonical_json``,
against the serial ``ExperimentRunner`` (or ``estimate_speedup`` for
estimates) computed in this process after the session.
"""

import collections
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time

from perfbench import measure, reference

SCALE = 0.2
#: Spec set of every query kind: the synth sweep's, baseline included.
SPECS = reference.SYNTH_SPECS
MEMO, CACHE, SIMULATED, ESTIMATE = "memo", "cache", "simulated", "estimate"
MIX = ((MEMO, 0.65), (CACHE, 0.05), (SIMULATED, 0.15), (ESTIMATE, 0.15))
#: Stream positions per shuffled block holding the exact MIX.
BLOCK = 20
#: Closed-loop client threads.
CLIENTS = 2
#: 429 retries a client honours before the query counts as failed.
RETRIES = 3
#: Queries per second of run length: a run answers ``--seconds`` times
#: this many queries, so every run answers the same stream.  The seed
#: code sustains ~57/s on a 2-CPU host, so a 25 s run spends ~17 s on
#: its 950 queries.  Staying under 1000 queries makes the tail latency
#: p95: the slowest ~1% of queries wait out the server's full garbage
#: collections, and a p99 on that knee moved +-30% between runs.
NOMINAL_QPS = 38.0
#: Untraced runs split their queries over this many sessions.
SESSIONS = 2
#: A session stops sending after this multiple of its nominal length.
SESSION_CAP = 4.0
SERVER_TIMEOUT = 30.0


def hot_cells():
    from repro.workloads import WORKLOAD_NAMES

    return [(name, spec) for name in WORKLOAD_NAMES for spec in SPECS]


def query_stream(seed, session, count):
    """The seeded query stream of one session: ``[(kind, workload, spec)]``.

    Kinds come in shuffled blocks with the exact :data:`MIX`
    proportions.  Each kind other than ``memo`` cycles through
    :data:`SPECS`, so every block holds exactly one ``superscalar``
    estimate.  The cache and simulated cells take distinct scenarios of
    one seeded ``stratified_sample``.  Two seeds differ in which cells
    they ask for, not in how much of each kind of work.
    """
    from repro.workloads import WORKLOAD_NAMES
    from repro.workloads.synth import stratified_sample

    token = "perfbench-service-{}-{}".format(seed, session)
    rng = random.Random(token)
    block = [kind for kind, share in MIX for _ in range(round(share * BLOCK))]
    kinds = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds.extend(block)
    kinds = kinds[:count]
    fresh = iter(
        stratified_sample(
            sum(1 for kind in kinds if kind in (CACHE, SIMULATED)), token=token
        )
    )
    hot = hot_cells()
    seen = collections.Counter()
    stream = []
    for kind in kinds:
        spec = SPECS[seen[kind] % len(SPECS)]
        seen[kind] += 1
        if kind == MEMO:
            workload, spec = rng.choice(hot)
        elif kind == ESTIMATE:
            workload = rng.choice(WORKLOAD_NAMES)
        else:
            workload = next(fresh)
        stream.append((kind, workload, spec))
    return stream


class Record:
    """One query as the client saw it."""

    __slots__ = ("kind", "workload", "spec", "latency_s", "status", "result")

    def __init__(self, kind, workload, spec, latency_s, status, result=None):
        self.kind = kind
        self.workload = workload
        self.spec = spec
        self.latency_s = latency_s
        #: ``answered``, ``saturated`` (429 after retries) or ``failed``.
        self.status = status
        self.result = result

    @property
    def source(self):
        return self.result["source"] if self.result else self.status


def closed_loop(port, stream, cap_s):
    """Drive ``stream`` through :data:`CLIENTS` closed-loop threads."""
    from repro.service import ServiceClient, ServiceResponseError, ServiceSaturated

    client = ServiceClient(port=port)
    lock = threading.Lock()
    position = [0]
    records = []
    deadline = time.perf_counter() + cap_s

    def loop():
        while True:
            with lock:
                index = position[0]
                if index >= len(stream) or time.perf_counter() > deadline:
                    return
                position[0] += 1
            kind, workload, spec = stream[index]
            started = time.perf_counter()
            status, result = "answered", None
            try:
                response = client.query(
                    [(workload, spec)],
                    scale=SCALE,
                    retries=RETRIES,
                    allow_errors=True,
                    estimate=kind == ESTIMATE,
                )
            except ServiceSaturated:
                status = "saturated"
            except (ServiceResponseError, OSError, ValueError):
                status = "failed"
            else:
                result = response["results"][0]
            record = Record(
                kind, workload, spec, time.perf_counter() - started, status, result
            )
            with lock:
                records.append(record)

    threads = [threading.Thread(target=loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


class Session:
    """One server lifetime: set-up, a measured stream, its telemetry."""

    def __init__(self, seed, index, count, workdir, trace_path=None):
        self.workdir = workdir
        self.trace_path = trace_path
        self.stream = query_stream(seed, index, count)
        self.setup_s = None
        self.wall_s = None
        self.cpu_s = None
        self.peak_rss_mb = None
        self.records = []
        self.health = None
        self.layers = None

    def _command(self, cache_dir):
        serve = [
            "serve", "--port", "0", "--jobs", "2", "--cache-dir", cache_dir,
        ]
        if self.trace_path:
            return ["perfbench.serve", self.trace_path] + serve
        return ["repro.experiments"] + serve

    def _snapshot(self, process, number):
        """Ask the traced server for a tracer snapshot and read it."""
        path = "{}.{}".format(self.trace_path, number)
        process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + SERVER_TIMEOUT
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise RuntimeError("the traced server wrote no snapshot")
            time.sleep(0.01)
        with open(path) as handle:
            return json.load(handle)

    def run(self):
        """Set up a fresh server, drive the stream, stop the server."""
        from repro.analysis.pipeline import configure_disk_cache
        from repro.experiments.parallel import ParallelExperimentRunner
        from repro.service import ServiceClient

        cache_dir = os.path.join(self.workdir, "service-cache")
        shutil.rmtree(cache_dir, ignore_errors=True)
        os.makedirs(cache_dir)
        started = time.perf_counter()
        with open(os.path.join(self.workdir, "serve.log"), "w") as log:
            process = subprocess.Popen(
                [sys.executable, "-m"] + self._command(cache_dir),
                cwd=measure.ROOT,
                env=measure.child_environment(),
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        watchdog = threading.Timer(measure.CHILD_TIMEOUT, process.kill)
        watchdog.start()
        try:
            port = json.loads(process.stdout.readline())["serving"]["port"]
            client = ServiceClient(port=port)
            client.wait_ready(timeout=SERVER_TIMEOUT)
            client.query(hot_cells(), scale=SCALE)
            cache_cells = [(w, s) for kind, w, s in self.stream if kind == CACHE]
            if cache_cells:
                ParallelExperimentRunner(scale=SCALE, cache_dir=cache_dir).prefetch(
                    cache_cells
                )
                configure_disk_cache(None)
            self.setup_s = time.perf_counter() - started

            start = self._snapshot(process, 0) if self.trace_path else None
            before = client.healthz()
            cpu_before = measure.tree_cpu_s(process.pid) + measure.self_cpu_s()
            window = time.perf_counter()
            self.records = closed_loop(
                port, self.stream, SESSION_CAP * len(self.stream) / NOMINAL_QPS
            )
            self.wall_s = time.perf_counter() - window
            self.cpu_s = (
                measure.tree_cpu_s(process.pid) + measure.self_cpu_s() - cpu_before
            )
            self.peak_rss_mb = measure.tree_peak_rss_mb(process.pid)
            self.health = _health_delta(before, client.healthz())
            if self.trace_path:
                from perfbench import layers

                self.layers = layers.layer_metrics(
                    start, self._snapshot(process, 1)
                )
            client.shutdown()
            process.wait(timeout=SERVER_TIMEOUT)
        finally:
            watchdog.cancel()
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        return self


def _health_delta(before, after):
    """Window-only engine telemetry from two ``/healthz`` payloads."""
    first, last = before["engine"], after["engine"]
    by_source = {
        source: count - first["cells"]["by_source"].get(source, 0)
        for source, count in last["cells"]["by_source"].items()
    }
    batches = last["batches"]["executed"] - first["batches"]["executed"]
    queries = last["queries"]["served"] - first["queries"]["served"]
    return {
        "by_source": by_source,
        "queries_per_batch": queries / batches if batches else 0.0,
        "cells_inline": last["summary"].get("inline_jobs", 0)
        - first["summary"].get("inline_jobs", 0),
        "chunks": last["summary"].get("chunks_shipped", 0)
        - first["summary"].get("chunks_shipped", 0),
    }


class References:
    """Serial answers the service's answers must equal byte for byte."""

    def __init__(self):
        from repro.experiments.runner import ExperimentRunner

        self.runner = ExperimentRunner(scale=SCALE)
        self._estimates = {}

    def stats(self, workload, spec):
        from repro.service import canonical_json, encode_stats

        return canonical_json(encode_stats(self.runner.run_policy(workload, spec)))

    def estimate(self, workload, spec):
        """``("estimated", canonical bytes)`` or ``("error", message)``."""
        from repro.analysis.estimate import estimate_speedup
        from repro.polyflow import PAPER_CONFIG
        from repro.service import canonical_json
        from repro.service.wire import encode_estimate

        key = (workload, spec)
        if key not in self._estimates:
            try:
                estimate = estimate_speedup(workload, spec, SCALE, PAPER_CONFIG)
            except Exception as error:  # the service reports any error as text
                self._estimates[key] = ("error", str(error))
            else:
                self._estimates[key] = (
                    "estimated",
                    canonical_json(encode_estimate(estimate)),
                )
        return self._estimates[key]


def check(records, references, outcome):
    """Count every query once: answered and equal to the serial answer,
    or failed (error answer, 429 after retries, transport failure,
    wrong answer)."""
    from repro.service import canonical_json

    for record in records:
        cell = "{}/{}".format(record.workload, record.spec)
        if record.status != "answered":
            outcome.fail("{}: {}".format(cell, record.status))
            continue
        result = record.result
        if record.kind == ESTIMATE:
            expected = references.estimate(record.workload, record.spec)
            if result["source"] == "error":
                outcome.fail(
                    "{} estimate: {}".format(cell, result["error"]),
                    wrong=expected != ("error", result["error"]),
                )
            elif canonical_json(result["estimate"]) == expected[1]:
                outcome.ok()
            else:
                outcome.fail("{} estimate differs from serial".format(cell), wrong=True)
        elif result["source"] == "error":
            outcome.fail("{}: {}".format(cell, result["error"]))
        elif canonical_json(result["stats"]) == references.stats(
            record.workload, record.spec
        ):
            outcome.ok()
        else:
            outcome.fail("{} stats differ from serial".format(cell), wrong=True)


def simulated_instructions(records):
    return sum(
        record.result["stats"]["retired_instructions"]
        for record in records
        if record.result and record.result["source"] == SIMULATED
    )


def queries_per_run(seconds):
    return max(1, int(round(seconds * NOMINAL_QPS)))


def measure_untraced(seed, seconds, workdir):
    """End-to-end metrics over :data:`SESSIONS` fresh servers."""
    count = queries_per_run(seconds)
    outcome = measure.Outcome()
    references = References()
    sessions = []
    for index in range(SESSIONS):
        session = Session(seed, index, count // SESSIONS, workdir).run()
        check(session.records, references, outcome)
        sessions.append(session)
    return outcome, sessions


def end_to_end(sessions):
    records = [record for session in sessions for record in session.records]
    latencies_ms = [record.latency_s * 1000.0 for record in records]
    answered = sum(1 for record in records if record.status == "answered")
    wall = sum(session.wall_s for session in sessions)
    cpu = sum(session.cpu_s for session in sessions)
    percent, tail = measure.tail_percentile(latencies_ms)
    metrics = {
        "wall_s": wall,
        "cpu_s": cpu,
        "sim_ips": simulated_instructions(records) / cpu,
        "query_p50_ms": measure.median(latencies_ms),
        "query_p99_ms": tail,
        "queries_per_s": answered / wall,
        "setup_s": measure.median([session.setup_s for session in sessions]),
        "peak_rss_mb": max(session.peak_rss_mb for session in sessions),
    }
    samples = {
        "sessions": len(sessions),
        "query_samples": len(latencies_ms),
        "query_tail_percentile": percent,
    }
    return metrics, samples


def measure_traced(seed, seconds, workdir):
    """Per-layer metrics: the same stream against an untraced and a
    traced server (the difference in wall time is the tracing cost)."""
    count = queries_per_run(seconds) // SESSIONS
    outcome = measure.Outcome()
    references = References()
    plain = Session(seed, 0, count, workdir).run()
    check(plain.records, references, outcome)
    traced = Session(
        seed, 0, count, workdir, trace_path=os.path.join(workdir, "server-trace")
    ).run()
    check(traced.records, references, outcome)

    metrics = dict(traced.layers)
    for source in (MEMO, CACHE, SIMULATED, "estimated"):
        latencies = [
            record.latency_s * 1000.0
            for record in plain.records
            if record.source == source
        ]
        metrics["service.{}_p50_ms".format(source)] = (
            measure.median(latencies) if latencies else 0.0
        )
    metrics["service.queries_per_batch"] = plain.health["queries_per_batch"]
    for source, cells in plain.health["by_source"].items():
        metrics["service.cells_{}".format(source)] = cells
    metrics["experiments.cells_inline"] = plain.health["cells_inline"]
    metrics["experiments.chunks"] = plain.health["chunks"]
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return outcome, metrics
