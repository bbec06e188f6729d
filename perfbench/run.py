"""End-to-end benchmark of the PolyFlow reproduction, with per-layer
attribution.

Run from the repository root::

    python3 perfbench/run.py --workload fig9-cold --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each exists):

* ``fig9-cold``   — the Figure 9 grid (84 cells) at scale 0.5, cold;
* ``synth-sweep`` — a seeded 96-scenario synth sweep at scale 1.0, cold;
* ``service-mix`` — a live ``serve`` process under two closed-loop
  clients.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes the separate traced run that gives the per-layer
metrics.  Human-readable lines (with sample counts and provenance)
come first; the last stdout line is the JSON result.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import batch, measure, service_mix  # noqa: E402

SERVICE = "service-mix"
WORKLOADS = (batch.FIG9, batch.SYNTH, SERVICE)

#: ``(name, unit)`` of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_ips", "instr/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Every per-layer metric (``--trace 1``); a layer the workload does
#: not exercise reads 0.
PER_LAYER = (
    ("workloads.source_s", "s"),
    ("isa.assemble_s", "s"),
    ("sim.functional_s", "s"),
    ("sim.trace_instructions", "count"),
    ("sim.blocks_s", "s"),
    ("cfg.build_s", "s"),
    ("analysis.pipeline_s", "s"),
    ("analysis.cache_s", "s"),
    ("analysis.estimate_s", "s"),
    ("spawn.classify_s", "s"),
    ("spawn.profile_s", "s"),
    ("spawn.points", "count"),
    ("polyflow.core_build_s", "s"),
    ("polyflow.kernel_s", "s"),
    ("polyflow.kernel_ips", "instr/s"),
    ("polyflow.host_ns_per_sim_cycle", "ns"),
    ("polyflow.sim_cycles", "count"),
    ("polyflow.sim_instructions", "count"),
    ("polyflow.tasks_created", "count"),
    ("polyflow.violation_squashes", "count"),
    ("polyflow.branch_mispredicts", "count"),
    ("polyflow.icache_stall_cycles", "count"),
    ("experiments.dispatch_cpu_s", "s"),
    ("experiments.cells_inline", "count"),
    ("experiments.chunks", "count"),
    ("experiments.cache_store_s", "s"),
    ("experiments.cache_load_s", "s"),
    ("experiments.pack_s", "s"),
    ("service.memo_p50_ms", "ms"),
    ("service.cache_p50_ms", "ms"),
    ("service.simulated_p50_ms", "ms"),
    ("service.estimated_p50_ms", "ms"),
    ("service.batch_s", "s"),
    ("service.queries_per_batch", "count"),
    ("service.cells_memo", "count"),
    ("service.cells_cache", "count"),
    ("service.cells_simulated", "count"),
    ("service.cells_estimated", "count"),
    ("service.cells_error", "count"),
    ("self.workloads_s", "s"),
    ("self.isa_s", "s"),
    ("self.sim_s", "s"),
    ("self.cfg_s", "s"),
    ("self.analysis_s", "s"),
    ("self.spawn_s", "s"),
    ("self.polyflow_s", "s"),
    ("self.experiments_s", "s"),
    ("self.service_s", "s"),
    ("self.unattributed_s", "s"),
    ("gc.collections", "count"),
    ("gc.pause_s", "s"),
    ("trace.cpu_s", "s"),
    ("trace.overhead_s", "s"),
    ("error_ratio", "ratio"),
    ("model.speedup_loop_pct", "%"),
    ("model.speedup_loopFT_pct", "%"),
    ("model.speedup_procFT_pct", "%"),
    ("model.speedup_hammock_pct", "%"),
    ("model.speedup_other_pct", "%"),
    ("model.speedup_postdoms_pct", "%"),
    ("model.mean_abs_diff_pts", "pts"),
    ("model.cell_mean_abs_diff_pts", "pts"),
)


def _describe(workload, samples):
    """Per-metric sample-count notes for the human-readable report."""
    tail = "p{:g} of {} {}".format(
        samples["query_tail_percentile"],
        samples["query_samples"],
        "queries" if workload == SERVICE else "cells",
    )
    queries = "median of {} {}".format(
        samples["query_samples"], "queries" if workload == SERVICE else "cells"
    )
    if workload == SERVICE:
        runs = "sum over {} sessions".format(samples["sessions"])
        return {
            "wall_s": runs,
            "cpu_s": runs + ", server tree + client",
            "sim_ips": runs,
            "query_p50_ms": queries,
            "query_p99_ms": tail,
            "queries_per_s": runs,
            "setup_s": "median of {} sessions".format(samples["sessions"]),
            "peak_rss_mb": "max over {} serve trees".format(samples["sessions"]),
        }
    runs = "median of {} cold runs".format(samples["repetitions"])
    return {
        "wall_s": runs,
        "cpu_s": runs + ", incl. pool workers",
        "sim_ips": runs,
        "query_p50_ms": queries + ", time to result",
        "query_p99_ms": tail + ", time to result",
        "queries_per_s": runs + ", cells/s",
        "setup_s": runs,
        "peak_rss_mb": "max of {} cold runs".format(samples["repetitions"]),
    }


def _measure(workload, seed, seconds, trace, workdir):
    """``(outcome, metrics, notes)`` of one run; metrics are ``None``
    when no run of the product completed."""
    if trace:
        if workload == SERVICE:
            outcome, metrics = service_mix.measure_traced(seed, seconds, workdir)
        else:
            outcome, metrics = batch.measure_traced(workload, seed, workdir)
        if metrics is not None:
            metrics["error_ratio"] = outcome.error_ratio
        return outcome, metrics, {}
    if workload == SERVICE:
        module = service_mix
        outcome, runs = service_mix.measure_untraced(seed, seconds, workdir)
    else:
        module = batch
        outcome, runs = batch.measure_untraced(workload, seed, seconds, workdir)
    if not runs:
        return outcome, None, {}
    metrics, samples = module.end_to_end(runs)
    return outcome, metrics, _describe(workload, samples)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(measure.SRC, "repro")):
        print(
            "perfbench: no product sources at {}".format(measure.SRC),
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, measure.SRC)
    measure.clear_toggles()

    workdir = os.path.join(measure.ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(os.path.join(workdir, "tmp"))
    os.environ["TMPDIR"] = os.path.join(workdir, "tmp")
    try:
        provenance = measure.provenance()
        outcome, values, notes = _measure(
            arguments.workload,
            arguments.seed,
            arguments.seconds,
            arguments.trace,
            workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    print("perfbench {} seed={} seconds={} trace={}".format(
        arguments.workload, arguments.seed, arguments.seconds, arguments.trace
    ))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("operations: {} attempted, {} failed ({} wrong answers), "
          "error_ratio {:.6f}".format(
              outcome.attempted, outcome.failed, outcome.wrong,
              outcome.error_ratio))
    for note in outcome.notes:
        print("  failure: " + note.strip().replace("\n", " | ")[:300])
    if values is None:
        print("perfbench: no run completed; no metrics to report", file=sys.stderr)
        return 1

    catalog = PER_LAYER if arguments.trace else END_TO_END
    metrics = {}
    for name, unit in catalog:
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        detail = notes.get(name)
        print("  {} = {!r} {}{}".format(
            name, value, unit, " ({})".format(detail) if detail else ""
        ))
    result = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
