"""Measurement plumbing shared by the workloads.

Statistics (medians and the tail-percentile rule), child processes
started with a ready/go handshake and reaped with ``wait4`` so their
CPU time and peak RSS include every process they started, ``/proc``
readings for long-lived process trees, and the provenance stamped on
every result.
"""

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Percentiles tried, highest first, for a tail latency.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

#: Environment prefix of the product's engine and dispatch toggles.
TOGGLE_PREFIX = "REPRO_"

#: A child that has not finished after this long is killed.
CHILD_TIMEOUT = 150.0


class Outcome:
    """Operation accounting shared by all workloads."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def ok(self, count=1):
        self.attempted += count

    def fail(self, note, count=1, wrong=False):
        self.attempted += count
        self.failed += count
        if wrong:
            self.wrong += count
        if len(self.notes) < 20:
            self.notes.append(note)

    @property
    def error_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


def median(values):
    return statistics.median(values)


def tail_percentile(samples, min_beyond=MIN_BEYOND):
    """``(percent, value)`` of the highest percentile in
    :data:`TAIL_PERCENTILES` that has at least ``min_beyond`` samples
    strictly beyond its nearest-rank position.

    With too few samples for any of them the maximum is returned as
    percent 100.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if not count:
        raise ValueError("no samples")
    for percent in TAIL_PERCENTILES:
        # Nearest rank, ceil(percent/100 * count), in exact integers.
        rank = max(1, -(-round(percent * 10) * count // 1000))
        if count - rank >= min_beyond:
            return percent, ordered[rank - 1]
    return 100.0, ordered[-1]


def child_environment():
    """This process's environment minus the product's ``REPRO_*``
    toggles, with the source tree and the benchmark importable."""
    environment = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(TOGGLE_PREFIX)
    }
    environment["PYTHONPATH"] = os.pathsep.join((SRC, ROOT))
    return environment


def clear_toggles():
    """Drop the ``REPRO_*`` toggles from this process's environment."""
    for key in [key for key in os.environ if key.startswith(TOGGLE_PREFIX)]:
        del os.environ[key]


class ChildRun:
    """One measured child process.

    ``setup_s`` runs from launch until the child prints ``ready``
    (interpreter start, imports, input preparation).  The timed region
    starts when ``go`` is written and ends when the child is reaped.
    ``cpu_s`` is user+sys of the child and every process it reaped,
    minus what the child had spent before ``go``; ``peak_rss_mb`` is
    the largest RSS among them.
    """

    def __init__(self, module_args, log_path):
        self.module_args = list(module_args)
        self.log_path = log_path
        self.setup_s = None
        self.go_epoch = None
        self.wall_s = None
        self.cpu_total_s = None
        self.peak_rss_mb = None
        self.returncode = None
        self.stdout = ""

    def run(self):
        launched = time.perf_counter()
        with open(self.log_path, "w") as log:
            process = subprocess.Popen(
                [sys.executable, "-m"] + self.module_args,
                cwd=ROOT,
                env=child_environment(),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        watchdog = threading.Timer(CHILD_TIMEOUT, process.kill)
        watchdog.start()
        try:
            ready = process.stdout.readline()
            self.setup_s = time.perf_counter() - launched
            if ready.strip() == "ready":
                self.go_epoch = time.time()
                started = time.perf_counter()
                try:
                    process.stdin.write("go\n")
                    process.stdin.close()
                except BrokenPipeError:
                    pass  # the child died; its exit status tells why
                self.stdout = process.stdout.read()
            else:
                started = time.perf_counter()
            _, status, usage = os.wait4(process.pid, 0)
            self.wall_s = time.perf_counter() - started
            process.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if process.returncode is None:
                process.kill()
                process.wait()
            process.stdout.close()
            if not process.stdin.closed:
                process.stdin.close()
        self.returncode = process.returncode
        self.cpu_total_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return self

    def log_tail(self, lines=20):
        try:
            with open(self.log_path) as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return ""


# -- /proc readings for a live process tree ------------------------------------


_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid):
    with open("/proc/{}/stat".format(pid)) as handle:
        data = handle.read()
    return data[data.rindex(")") + 2:].split()


def descendants(pid):
    """Live descendants of ``pid`` (via ``/proc/*/task/*/children``)."""
    found = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir("/proc/{}/task".format(parent))
        except OSError:
            continue
        for task in tasks:
            try:
                with open("/proc/{}/task/{}/children".format(parent, task)) as handle:
                    children = [int(value) for value in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def tree_cpu_s(pid):
    """User+sys seconds of ``pid`` and its descendants, including the
    children each of them has already reaped."""
    total = 0
    for member in [pid] + descendants(pid):
        try:
            fields = _stat_fields(member)
        except OSError:
            continue
        # utime, stime, cutime, cstime are fields 14-17 of stat(5).
        total += sum(int(value) for value in fields[11:15])
    return total / _TICKS


def tree_peak_rss_mb(pid):
    """Largest peak RSS (``VmHWM``) in ``pid``'s live process tree."""
    peak = 0
    for member in [pid] + descendants(pid):
        try:
            with open("/proc/{}/status".format(member)) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


def self_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# -- provenance ------------------------------------------------------------------


def source_tree_digest():
    """SHA-256 over the product's source files (path and content)."""
    digest = hashlib.sha256()
    for directory, subdirectories, files in os.walk(SRC):
        subdirectories[:] = sorted(
            name for name in subdirectories if name != "__pycache__"
        )
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


#: ``(label, module, function or constant)`` of the product's engine
#: and dispatch defaults; one a later change removes reads ``None``.
ENGINE_DEFAULTS = (
    ("block_engine", "repro.sim.blocks", "engine_enabled_default"),
    ("event_kernel", "repro.polyflow.event_kernel", "kernel_enabled_default"),
    ("gridbatch", "repro.sim.gridbatch", "gridbatch_enabled"),
    ("numpy", "repro.accel", "numpy_enabled"),
    ("inline_cost_threshold", "repro.experiments.scheduler", "INLINE_COST_THRESHOLD"),
    ("usable_cpus", "repro.experiments.scheduler", "usable_cpus"),
    ("wire_schema", "repro.service.wire", "WIRE_SCHEMA_VERSION"),
)


def provenance():
    """Commit, interpreter, CPU count and the product's engine defaults,
    as this (toggle-free) process sees them."""
    import importlib

    defaults = {}
    for label, module_name, attribute in ENGINE_DEFAULTS:
        try:
            value = getattr(importlib.import_module(module_name), attribute, None)
        except ImportError:
            value = None
        defaults[label] = value() if callable(value) else value
    return {
        "commit": git_commit(),
        "source_sha256": source_tree_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "engine_defaults": defaults,
    }
