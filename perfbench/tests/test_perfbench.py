"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

import collections
import http.server
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from perfbench import batch, layers, measure, run, service_mix

ROOT = measure.ROOT


# -- the tail-percentile rule ------------------------------------------------------


@pytest.mark.parametrize(
    "count, percent",
    [
        (1000, 99.0),  # 10 samples beyond rank 990
        (999, 95.0),  # p99 would leave only 9 beyond
        (10000, 99.9),
        (200, 95.0),
        (100, 90.0),
        (40, 75.0),
        (20, 50.0),
        (19, 100.0),  # nothing qualifies: the maximum
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(count, percent):
    samples = list(range(count, 0, -1))  # unsorted on purpose
    chosen, value = measure.tail_percentile(samples)
    assert chosen == percent
    beyond = sum(1 for sample in samples if sample > value)
    if percent < 100.0:
        assert beyond >= measure.MIN_BEYOND
    else:
        assert value == count


def test_tail_percentile_is_nearest_rank():
    assert measure.tail_percentile(list(range(1, 1001))) == (99.0, 990)


# -- seeded inputs -------------------------------------------------------------------


def test_synth_sample_is_seeded_and_deterministic():
    from repro.workloads.synth import stratified_sample

    first = stratified_sample(batch.SYNTH_SAMPLE, token=batch.synth_token(3, 0))
    again = stratified_sample(batch.SYNTH_SAMPLE, token=batch.synth_token(3, 0))
    other_seed = stratified_sample(batch.SYNTH_SAMPLE, token=batch.synth_token(4, 0))
    other_rep = stratified_sample(batch.SYNTH_SAMPLE, token=batch.synth_token(3, 1))
    assert first == again
    assert len(first) == len(set(first)) == batch.SYNTH_SAMPLE
    assert first != other_seed
    assert first != other_rep


def test_query_stream_is_seeded_with_the_exact_mix():
    stream = service_mix.query_stream(7, 0, 400)
    assert stream == service_mix.query_stream(7, 0, 400)
    assert stream != service_mix.query_stream(8, 0, 400)
    assert stream != service_mix.query_stream(7, 1, 400)
    kinds = collections.Counter(kind for kind, _, _ in stream)
    assert kinds == {
        kind: round(share * 400) for kind, share in service_mix.MIX
    }
    fresh = [w for kind, w, _ in stream if kind in ("cache", "simulated")]
    assert len(fresh) == len(set(fresh))
    assert all(name.startswith("synth/") for name in fresh)
    hot = set(service_mix.hot_cells())
    assert all((w, s) in hot for kind, w, s in stream if kind == "memo")
    estimates = [s for kind, _, s in stream if kind == "estimate"]
    assert estimates.count("superscalar") == 400 // service_mix.BLOCK


# -- failure accounting ------------------------------------------------------------


class _FakeService(http.server.BaseHTTPRequestHandler):
    """Answers ``saturate`` cells with 429 and others with a cell error."""

    posts = collections.Counter()

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        cell = body["cells"][0]
        self.posts[cell["workload"]] += 1
        if cell["workload"] == "saturate":
            status, extra = 429, {"Retry-After": "0"}
            payload = {"error": "admission queue full", "retry_after": 0}
        else:
            status, extra = 200, {}
            payload = {
                "results": [dict(cell, source="error", error="boom")],
                "batch": {},
            }
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        for key, value in extra.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_cell_error_and_429_after_retries_each_count_once():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _FakeService)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        stream = [
            ("memo", "saturate", "postdoms"),
            ("simulated", "synth/L0H0C0I0P0S0V0", "postdoms"),
        ]
        records = service_mix.closed_loop(server.server_address[1], stream, 30.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert _FakeService.posts["saturate"] == 1 + service_mix.RETRIES
    outcome = measure.Outcome()
    service_mix.check(records, references=None, outcome=outcome)
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (2, 2, 0)
    assert sorted(record.status for record in records) == ["answered", "saturated"]


class _StubReferences:
    def stats(self, workload, spec):
        return b'{"cycles":1}'

    def estimate(self, workload, spec):
        return ("error", "unknown spawn policy spec 'superscalar'")


def _answered(kind, source, **fields):
    result = dict(source=source, **fields)
    return service_mix.Record(kind, "gzip", "superscalar", 0.01, "answered", result)


def test_wrong_answers_and_known_defect_are_counted_apart():
    records = [
        _answered("memo", "memo", stats={"cycles": 1}),
        _answered("memo", "memo", stats={"cycles": 2}),
        _answered(
            "estimate", "error", error="unknown spawn policy spec 'superscalar'"
        ),
    ]
    outcome = measure.Outcome()
    service_mix.check(records, _StubReferences(), outcome)
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (3, 2, 1)


# -- the tracer ----------------------------------------------------------------------


def _burn(seconds):
    deadline = time.thread_time() + seconds
    while time.thread_time() < deadline:
        pass


def test_tracer_self_times_partition_the_process_cpu():
    tracer = layers.Tracer()
    inner = tracer.wrap("isa.assemble_s", lambda: _burn(0.05))

    def outer_body():
        _burn(0.05)
        inner()

    outer = tracer.wrap("analysis.pipeline_s", outer_body)
    start = tracer.snapshot()
    outer()
    _burn(0.02)
    metrics = layers.layer_metrics(start, tracer.snapshot())
    assert metrics["analysis.pipeline_s"] >= metrics["isa.assemble_s"] + 0.04
    assert metrics["self.analysis_s"] == pytest.approx(
        metrics["analysis.pipeline_s"] - metrics["isa.assemble_s"]
    )
    parts = sum(metrics["self.{}_s".format(layer)] for layer in layers.LAYERS)
    assert parts + metrics["self.unattributed_s"] == pytest.approx(
        metrics["trace.cpu_s"]
    )
    assert metrics["self.unattributed_s"] >= 0.015


def test_tracer_skips_entry_points_that_are_gone():
    assert layers._lookup("repro.no_such_module", "run") == (None, None)
    script = (
        "from perfbench import layers\n"
        "layers.FUNCTIONS += (('sim.blocks_s', 'repro.sim.blocks', 'gone', None),)\n"
        "layers.METHODS += (('polyflow.kernel_s', 'repro.no_such_module',"
        " 'Core', 'run', None),)\n"
        "layers.install()\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=measure.child_environment(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr


# -- the benchmark contract ------------------------------------------------------------


def test_benchmark_json_matches_the_metric_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _run(workload, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert [name for name in result["metrics"]] == [n for n, _ in run.END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    if workload == "service-mix":
        assert result["failed"] > 0  # the estimate-mode defect
    else:
        assert result["failed"] == 0


def test_traced_smoke_run_reports_every_per_layer_metric():
    result = _run("synth-sweep", trace=1)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert list(metrics) == [n for n, _ in run.PER_LAYER]
    assert metrics["polyflow.sim_cycles"] > 0
    assert metrics["experiments.cells_inline"] == 3 * batch.SYNTH_SAMPLE
    assert not os.path.exists(os.path.join(ROOT, ".perfbench-work"))


def test_refuses_to_run_without_the_product(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name)) as handle:
                (bench / name).write_text(handle.read())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig9-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
