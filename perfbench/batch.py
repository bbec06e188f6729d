"""The two cold batch workloads: ``fig9-cold`` and ``synth-sweep``.

Each repetition is one fresh process (:mod:`perfbench.cold`) with a
fresh cache directory.  An operation is one grid cell, plus the
rendered output (the Figure 9 table or the coverage map) as one more.
After the process exits, every cell's stats are read back from the
result cache it wrote and checked against the recorded references; a
cell's latency is the time from ``go`` until its cache entry was
written, which is when a user of the run could first read it.
"""

import json
import os
import shutil
import types

from perfbench import measure, reference

FIG9 = "fig9-cold"
SYNTH = "synth-sweep"

#: Pool workers for every workload (the benchmark host has 2 CPUs).
JOBS = 2
#: Catalog scenarios per synth-sweep repetition (x3 specs = 288 cells).
SYNTH_SAMPLE = 96
#: Seconds one repetition takes on a 2-CPU host; ``--seconds`` divided
#: by this fixes the repetition count, so every run does the same work.
NOMINAL_REP_S = {FIG9: 6.0, SYNTH: 4.0}


def synth_token(seed, repetition):
    """The ``stratified_sample`` token of one repetition of a seed.

    Each repetition sweeps its own sample, so a run's median spans
    several samples and depends less on how big one seed's draw is.
    """
    return "perfbench-{}-{}".format(seed, repetition)


class Repetition:
    """One cold repetition: its measurements and its checked cells."""

    def __init__(self, child, payload, cells, latencies_s, instructions):
        self.child = child
        self.payload = payload
        #: ``{(workload, spec): SimStats}`` read back from the cache.
        self.cells = cells
        self.latencies_s = latencies_s
        self.instructions = instructions

    @property
    def cpu_s(self):
        return self.child.cpu_total_s - self.payload["cpu_at_go_s"]


def _cell_list(workload, names):
    if workload == FIG9:
        return reference.fig9_cells()
    return [(name, spec) for name in names for spec in reference.SYNTH_SPECS]


def run_repetition(
    workload, seed, workdir, outcome, repetition=0, jobs=JOBS, trace=False, pack_cells=0
):
    """Run one cold repetition and check its outputs into ``outcome``."""
    from repro.experiments.parallel import ResultCache, job_digest
    from repro.polyflow import PAPER_CONFIG
    from repro.workloads.synth import stratified_sample

    cache_dir = os.path.join(workdir, "cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    if workload == FIG9:
        scale = reference.FIG9_SCALE
        arguments = ["fig9"]
        names = ()
    else:
        scale = reference.SYNTH_SCALE
        token = synth_token(seed, repetition)
        arguments = ["synth", "--sample", str(SYNTH_SAMPLE), "--token", token]
        names = tuple(stratified_sample(SYNTH_SAMPLE, token=token))
    arguments = ["perfbench.cold"] + arguments + [
        "--scale", repr(scale), "--jobs", str(jobs), "--cache-dir", cache_dir,
    ]
    if trace:
        arguments += ["--trace", "--pack-cells", str(pack_cells)]
    child = measure.ChildRun(arguments, os.path.join(workdir, "child.log")).run()

    cell_list = _cell_list(workload, names)
    payload = None
    if child.returncode == 0:
        try:
            payload = json.loads(child.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            payload = None
    if payload is None:
        outcome.fail(
            "{} child exited {}: {}".format(workload, child.returncode, child.log_tail()),
            count=len(cell_list) + 1,
        )
        shutil.rmtree(cache_dir, ignore_errors=True)
        return None

    store = ResultCache(cache_dir)
    cells = {}
    latencies = []
    instructions = 0
    profile_distance = PAPER_CONFIG.max_spawn_distance
    for name, spec in cell_list:
        digest = job_digest(name, spec, scale, PAPER_CONFIG, profile_distance)
        entry = store.load(digest)
        if entry is None:
            outcome.fail("{}/{}: no result in the cache".format(name, spec))
            continue
        stats = entry[0]
        cells[(name, spec)] = stats
        latencies.append(os.stat(store.path(digest)).st_mtime - child.go_epoch)
        instructions += stats.retired_instructions
    _check_cells(workload, cells, outcome)
    _check_output(workload, names, payload["output"], outcome)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return Repetition(child, payload, cells, latencies, instructions)


def _check_cells(workload, cells, outcome):
    expected = reference.expected_digests(workload == FIG9)
    for (name, spec), stats in cells.items():
        if reference.stats_digest(stats) == expected[(name, spec)]:
            outcome.ok()
        else:
            outcome.fail("{}/{}: stats differ from the reference".format(name, spec), wrong=True)


def expected_coverage_map(names):
    """The coverage map of ``names`` rebuilt from reference cycles."""
    from repro.experiments import synth_sweep
    from repro.polyflow.stats import speedup_percent
    from repro.workloads.synth import scenario_dials

    table = reference.load_synth()
    rows = []
    for name in names:
        cycles = {
            spec: types.SimpleNamespace(cycles=entry[0])
            for spec, entry in zip(reference.SYNTH_SPECS, table[name])
        }
        speedups = {
            spec: speedup_percent(cycles[spec], cycles["superscalar"])
            for spec in synth_sweep.DEFAULT_SPECS
        }
        rows.append(synth_sweep.SweepRow(name, scenario_dials(name), speedups))
    return synth_sweep.coverage_map(rows, synth_sweep.DEFAULT_SPECS).render()


def _check_output(workload, names, output, outcome):
    if workload == FIG9:
        good = reference.text_digest(output) == reference.load_fig9()["table_sha256"]
        label = "Figure 9 table"
    else:
        good = output == expected_coverage_map(names)
        label = "coverage map"
    if good:
        outcome.ok()
    else:
        outcome.fail("{} differs from the reference".format(label), wrong=True)


def model_metrics(cells):
    """Fig. 9 model accuracy against the paper's bar readings."""
    from repro.experiments import paper_data
    from repro.experiments.figures import FIGURE9_SPECS
    from repro.polyflow.stats import speedup_percent
    from repro.workloads import WORKLOAD_NAMES

    metrics = {}
    spec_gaps = []
    cell_gaps = []
    for spec in FIGURE9_SPECS:
        speedups = []
        for name in WORKLOAD_NAMES:
            stats = cells.get((name, spec))
            baseline = cells.get((name, "superscalar"))
            if stats is None or baseline is None:
                continue
            speedup = speedup_percent(stats, baseline)
            speedups.append(speedup)
            cell_gaps.append(abs(speedup - paper_data.FIGURE9_SPEEDUPS[name][spec]))
        mean = sum(speedups) / len(speedups) if speedups else 0.0
        metrics["model.speedup_{}_pct".format(spec)] = mean
        spec_gaps.append(abs(mean - paper_data.figure9_average(spec)))
    metrics["model.mean_abs_diff_pts"] = sum(spec_gaps) / len(spec_gaps)
    metrics["model.cell_mean_abs_diff_pts"] = (
        sum(cell_gaps) / len(cell_gaps) if cell_gaps else 0.0
    )
    return metrics


def repetitions_for(workload, seconds):
    return max(1, int(round(seconds / NOMINAL_REP_S[workload])))


def measure_untraced(workload, seed, seconds, workdir):
    """The end-to-end metrics of ``repetitions_for`` cold repetitions."""
    outcome = measure.Outcome()
    repetitions = []
    for index in range(repetitions_for(workload, seconds)):
        repetition = run_repetition(workload, seed, workdir, outcome, index)
        if repetition is not None:
            repetitions.append(repetition)
    return outcome, repetitions


def end_to_end(repetitions):
    """End-to-end metrics and the sample counts behind them."""
    walls = [rep.child.wall_s for rep in repetitions]
    cpus = [rep.cpu_s for rep in repetitions]
    latencies_ms = [value * 1000.0 for rep in repetitions for value in rep.latencies_s]
    percent, tail = measure.tail_percentile(latencies_ms)
    metrics = {
        "wall_s": measure.median(walls),
        "cpu_s": measure.median(cpus),
        "sim_ips": measure.median(
            [rep.instructions / rep.cpu_s for rep in repetitions]
        ),
        "query_p50_ms": measure.median(latencies_ms),
        "query_p99_ms": tail,
        "queries_per_s": measure.median(
            [len(rep.cells) / rep.child.wall_s for rep in repetitions]
        ),
        "setup_s": measure.median([rep.child.setup_s for rep in repetitions]),
        "peak_rss_mb": max(rep.child.peak_rss_mb for rep in repetitions),
    }
    samples = {
        "repetitions": len(repetitions),
        "query_samples": len(latencies_ms),
        "query_tail_percentile": percent,
    }
    return metrics, samples


def measure_traced(workload, seed, workdir):
    """Per-layer metrics: one product run (``jobs=2``), one untraced
    and one traced serial in-process run of the same grid."""
    outcome = measure.Outcome()
    product = run_repetition(workload, seed, workdir, outcome)
    serial = run_repetition(workload, seed, workdir, outcome, jobs=1)
    shipped = 0
    if product is not None:
        summary = product.payload["summary"]
        shipped = summary["jobs_run"] - summary.get("inline_jobs", 0)
    traced = run_repetition(
        workload, seed, workdir, outcome, jobs=1, trace=True, pack_cells=shipped
    )
    if product is None or serial is None or traced is None:
        return outcome, None
    metrics = dict(traced.payload["layers"])
    summary = product.payload["summary"]
    metrics["experiments.dispatch_cpu_s"] = product.cpu_s - serial.cpu_s
    metrics["experiments.cells_inline"] = summary.get("inline_jobs", 0)
    metrics["experiments.chunks"] = summary.get("chunks_shipped", 0)
    metrics["experiments.pack_s"] = traced.payload["pack_s"]
    metrics["trace.overhead_s"] = traced.child.wall_s - serial.child.wall_s
    if workload == FIG9:
        metrics.update(model_metrics(product.cells))
    return outcome, metrics
