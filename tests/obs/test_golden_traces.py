"""Golden-trace regression tests.

Three small workloads have their lifecycle event traces (task starts,
spawns, violations, squashes, task commits) committed to the repo as
compact JSONL.  A simulator change that alters *when* tasks spawn,
squash, or commit shows up as a byte diff against these files —
deliberate changes regenerate them with ``pytest --update-golden``.

The traces must be byte-identical run to run, and identical again when
produced by the parallel runner's worker processes (``--jobs 4``),
because figure reproduction relies on that determinism.
"""

import hashlib
import io
import os

import pytest

from tests.helpers import as_staged

from repro.experiments.parallel import (
    ParallelExperimentRunner,
    job_digest,
    trace_path,
)
from repro.experiments.runner import build_core
from repro.obs import LIFECYCLE_KINDS, EventBus, JsonlTraceWriter
from repro.polyflow import PAPER_CONFIG
from repro.spawn import canonical_spec

_SCALE = 0.1

#: (workload, policy spec) pairs with committed golden traces.  mcf is
#: included because its run contains a dependence violation and the
#: resulting squash chain, so the squash/violation wire format is
#: pinned too; crafty and parser pin the deepest-nesting and the most
#: call-heavy control-flow shapes in the suite.
_CASES = (
    ("gzip", "control-equivalent"),
    ("vortex", "control-equivalent"),
    ("mcf", "control-equivalent"),
    ("crafty", "control-equivalent"),
    ("parser", "control-equivalent"),
)

#: SHA-256 of gzip's *full verbose* event stream (every per-instruction
#: fetch/commit/hint event, not just lifecycle events) under
#: control-equivalent spawning at scale 0.1.  This pins the fused
#: fast-engine + pre-decoded-trace kernel to the exact cycle-for-cycle
#: behaviour of the original staged attribute-walking implementation —
#: it was recorded before the kernel rewrite and must never drift.
_GZIP_VERBOSE_SHA256 = (
    "82160555fb58c67c464d85eed371a63a553623bb6941dc589d9ab9cc2a9698ed"
)

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _golden_path(name, spec):
    return os.path.join(
        _GOLDEN_DIR, "{}.{}.events.jsonl".format(name, canonical_spec(spec))
    )


def _render_trace(name, spec, staged=False):
    """The lifecycle JSONL trace of one run, as a string."""
    buffer = io.StringIO()
    bus = EventBus()
    writer = bus.attach(
        JsonlTraceWriter(buffer, kinds=LIFECYCLE_KINDS), verbose=False
    )
    core = build_core(name, spec, _SCALE, PAPER_CONFIG, bus=bus)
    if staged:
        as_staged(core)
    core.run()
    writer.close()
    return buffer.getvalue()


@pytest.mark.parametrize("name,spec", _CASES)
def test_trace_matches_golden(name, spec, request):
    rendered = _render_trace(name, spec)
    path = _golden_path(name, spec)
    if request.config.getoption("--update-golden"):
        os.makedirs(_GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(rendered)
        pytest.skip("golden trace regenerated")
    with open(path) as handle:
        assert rendered == handle.read()


@pytest.mark.parametrize("name,spec", _CASES)
def test_trace_byte_identical_across_runs(name, spec):
    assert _render_trace(name, spec) == _render_trace(name, spec)


@pytest.mark.parametrize("name,spec", _CASES)
def test_trace_matches_golden_with_staged_engine(name, spec):
    """The staged reference engine writes the same golden bytes the
    default fused loop does."""
    with open(_golden_path(name, spec)) as handle:
        assert _render_trace(name, spec, staged=True) == handle.read()


def _gzip_verbose_digest(staged=False):
    buffer = io.StringIO()
    bus = EventBus()
    writer = bus.attach(JsonlTraceWriter(buffer), verbose=True)
    core = build_core("gzip", "control-equivalent", _SCALE, PAPER_CONFIG, bus=bus)
    if staged:
        as_staged(core)
    core.run()
    writer.close()
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def test_gzip_verbose_stream_pinned_across_kernel_rewrites():
    """The verbose event stream is byte-identical to the pre-predecode
    simulator's (see :data:`_GZIP_VERBOSE_SHA256`) — under the default
    fused loop and under the staged reference engine."""
    assert _gzip_verbose_digest() == _GZIP_VERBOSE_SHA256
    assert _gzip_verbose_digest(staged=True) == _GZIP_VERBOSE_SHA256


def test_traces_byte_identical_under_parallel_jobs(tmp_path, request):
    """``--jobs 4`` worker processes write the same bytes the serial
    in-process run does."""
    runner = ParallelExperimentRunner(
        scale=_SCALE,
        workload_names=tuple(name for name, _ in _CASES),
        jobs=4,
        trace_dir=str(tmp_path),
    )
    runner.prefetch([(name, spec) for name, spec in _CASES])
    for name, spec in _CASES:
        digest = job_digest(
            name, spec, _SCALE, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance
        )
        worker_file = trace_path(str(tmp_path), name, spec, digest)
        with open(worker_file) as handle:
            worker_bytes = handle.read()
        if request.config.getoption("--update-golden"):
            continue
        with open(_golden_path(name, spec)) as handle:
            assert worker_bytes == handle.read()
