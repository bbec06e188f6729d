#!/usr/bin/env python
"""Timing-kernel throughput benchmark and regression gate.

Measures committed-instructions/sec of the PolyFlow cycle-level kernel
on the gzip/mcf/vortex trio — serially on the fused fast loop (the
``serial`` channel), end-to-end under a ``--jobs 4`` grid-scheduler
fan-out, and on the fully warm result-cache replay path — and emits the results as ``BENCH_polyflow.json``.  The
checked-in copy of that file at the repository root is the performance
baseline: CI re-runs this harness with ``--check BENCH_polyflow.json``
and fails when throughput regresses more than the gate tolerance
(default 15%).

The gates run under ``--check``:

* the **schema gate** — the reference report must carry every channel
  the current schema produces; a baseline regenerated under an older
  schema fails with a message naming the missing channel rather than a
  ``KeyError`` deep inside a comparison;
* the **throughput gate** — normalized serial/jobs4/cache-hit/fabric
  throughput must not trail the reference by more than
  ``--tolerance``;
* the **estimator gate** — the analytic estimator's mean
  absolute speedup error over a fixed stratified sample must stay
  under ``DEFAULT_ESTIMATOR_MAE_CEILING`` points, the estimate-first
  triage must stay within its simulation budget, and every stratum
  verdict it *certifies* must agree with the full exact sweep's
  verdict (the certificate guarantee, checked empirically here);
* the **fabric gate** — a stratified synth sweep shipped to two
  subprocess fabric workers with a cold shared artifact store must
  produce stats byte-identical to the same sweep run serially
  (placement invariance, gated in every mode), and on a multi-core
  machine its wall clock must beat serial by ``--fabric-floor``
  (default 1.5×; single-core runs record the ratio without gating
  it — two workers timesharing one core cannot win);
* the **parallel-efficiency gate** — on a multi-core machine the
  ``--jobs 4`` wall clock must beat the serial wall clock by at least
  ``--efficiency-floor`` (default 1.2×).  On a single-core machine the
  scheduler short-circuits the pool (parallelism cannot help), so the
  gate instead bounds the scheduler's overhead: jobs4 may not run more
  than 25% slower than serial.

Cross-machine comparability: every run also measures a fixed
pure-Python calibration loop (``machine_index``).  The ``--check`` gate
compares *normalized* throughput (ips / machine_index), so a slower CI
runner does not read as a kernel regression.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py --output BENCH_polyflow.json
    PYTHONPATH=src python benchmarks/bench_kernel.py --baseline old.json \
        --output BENCH_polyflow.json
    PYTHONPATH=src python benchmarks/bench_kernel.py --check BENCH_polyflow.json
"""

import argparse
import json
import os
import sys
import tempfile
import time

#: Schema version of the emitted JSON.  v2: jobs4 grew ``cpus``/``mode``,
#: and reports carry ``cache_hit`` and ``efficiency`` sections.  v3-v5
#: added one section per optional engine layer (block engine, event
#: kernel, grid-batch lockstep) and, in v5, the ``estimator`` section
#: (analytic estimator error plus estimate-first triage
#: budget/certificate telemetry).
#: v6: reports carry a ``fabric`` section — a stratified synth sweep
#: shipped to subprocess fabric workers with a shared artifact store,
#: measured against the same sweep run serially, with a stats
#: byte-identity check.  The speedup floor applies in multi-core mode
#: only (two worker processes timesharing one core cannot beat serial);
#: identity is gated in every mode.
#: v7: the three engine-layer sections are gone with the code they
#: measured; ``serial`` times the fused loop, the only fast engine
#: (the same engine the v3-v6 ``serial`` channel pinned).
SCHEMA = 7

#: The benchmark trio (chosen in the ISSUE: one branchy compressor, one
#: pointer-chasing workload with violation squashes, one call-heavy OO
#: workload).
WORKLOADS = ("gzip", "mcf", "vortex")

#: Policy under which throughput is measured.
POLICY = "control-equivalent"

DEFAULT_SCALE = 0.5
DEFAULT_REPEATS = 5
DEFAULT_JOBS = 4
DEFAULT_TOLERANCE = 0.15
#: jobs4 must beat serial wall-clock by this factor on multi-core
#: machines (env BENCH_EFFICIENCY_FLOOR overrides).
DEFAULT_EFFICIENCY_FLOOR = 1.2
#: On a single core the pool is short-circuited; jobs4 overhead over
#: the serial kernel must stay within this factor.
SINGLE_CORE_EFFICIENCY_FLOOR = 0.8
#: Estimator channel: sampled cells, rotation token, and the error
#: ceiling.  The 96-cell stratified sample measures ~25 points of mean
#: absolute speedup error (the full catalog measures 27.9/23.1 points
#: for postdoms/loop-combo); the ceiling leaves headroom for sample
#: rotation, not for model regressions.  Env
#: ``BENCH_ESTIMATOR_MAE_CEILING`` overrides.
ESTIMATOR_CELLS = 96
ESTIMATOR_TOKEN = "bench-estimator-v1"
DEFAULT_ESTIMATOR_MAE_CEILING = 35.0

#: Fabric channel: a stratified synth grid (scenarios crossed with the
#: sweep's champion/challenger specs) shipped to subprocess fabric
#: workers against a cold shared store, vs the same grid swept
#: serially.  Worker spawn/handshake happens outside the timed region
#: (the steady state a long sweep experiences — the jobs4 channel
#: treats pool spin-up the same way).
FABRIC_WORKERS = 2
FABRIC_NAMES = 24
FABRIC_SPECS = ("postdoms", "loop+procFT+loopFT")
FABRIC_TOKEN = "bench-fabric-v1"
#: Minimum fabric/serial wall speedup on a multi-core machine (the
#: ISSUE's acceptance floor).  In single-core mode the floor is
#: skipped — two worker processes timesharing one core cannot beat the
#: serial sweep — and the channel's teeth are the byte-identity check.
#: Env ``BENCH_FABRIC_FLOOR`` overrides.
DEFAULT_FABRIC_FLOOR = 1.5

#: Iterations of the calibration loop.
_CALIBRATION_N = 2_000_000


def machine_index(repeats=3):
    """Operations/sec of a fixed pure-Python loop (best of ``repeats``).

    Used to normalize committed-instructions/sec across machines of
    different single-core speed before applying the regression gate.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(_CALIBRATION_N):
            total += i * i
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return _CALIBRATION_N / best


def measure_serial(scale, repeats):
    """The ``serial`` channel: best-of-``repeats`` fused-loop kernel
    throughput per workload, in-process.

    Workload preparation (functional execution + static analyses) is
    warmed outside the timed region: the benchmark isolates the
    cycle-level timing kernel.
    """
    from repro.experiments.runner import build_core
    from repro.polyflow import PAPER_CONFIG
    from repro.workloads import prepare_workload

    results = {}
    for name in WORKLOADS:
        prepared = prepare_workload(name, scale)
        instructions = len(prepared.trace)
        best = float("inf")
        for _ in range(repeats):
            core = build_core(name, POLICY, scale, PAPER_CONFIG)
            started = time.perf_counter()
            stats = core.run()
            elapsed = time.perf_counter() - started
            if stats.retired_instructions != instructions:
                raise AssertionError(
                    "retired {} != trace length {}".format(
                        stats.retired_instructions, instructions
                    )
                )
            best = min(best, elapsed)
        results[name] = {
            "instructions": instructions,
            "seconds": best,
            "ips": instructions / best,
        }
    total_instructions = sum(entry["instructions"] for entry in results.values())
    total_seconds = sum(entry["seconds"] for entry in results.values())
    return {
        "per_workload": results,
        "instructions": total_instructions,
        "seconds": total_seconds,
        "aggregate_ips": total_instructions / total_seconds,
    }


def measure_jobs(scale, jobs, repeats):
    """Best-of-``repeats`` end-to-end wall throughput under a fan-out.

    Each repeat builds a fresh :class:`ParallelExperimentRunner` (no
    disk cache) and prefetches the trio through the grid scheduler, so
    the measurement includes chunk planning and result transport.  The
    worker pool is the module-level warm pool: the first repeat pays
    any spin-up, later repeats reuse warm workers — the steady state a
    figure-generation run experiences.  On a single-core machine the
    scheduler short-circuits the pool and runs inline; the reported
    ``mode`` records which path was measured.
    """
    from repro.experiments import scheduler
    from repro.experiments.parallel import ParallelExperimentRunner
    from repro.workloads import prepare_workload

    total_instructions = sum(
        len(prepare_workload(name, scale).trace) for name in WORKLOADS
    )
    best = float("inf")
    mode = "inline"
    for _ in range(repeats):
        runner = ParallelExperimentRunner(
            scale=scale, workload_names=WORKLOADS, jobs=jobs
        )
        started = time.perf_counter()
        simulated = runner.prefetch([(name, POLICY) for name in WORKLOADS])
        elapsed = time.perf_counter() - started
        if simulated != len(WORKLOADS):
            raise AssertionError(
                "expected {} simulations, ran {}".format(len(WORKLOADS), simulated)
            )
        if runner.summary.chunks_shipped:
            mode = "pool"
        best = min(best, elapsed)
    return {
        "jobs": jobs,
        "cpus": scheduler.usable_cpus(),
        "mode": mode,
        "instructions": total_instructions,
        "wall_seconds": best,
        "ips": total_instructions / best,
    }


def measure_cache_hits(scale, repeats):
    """Best-of-``repeats`` wall time of a fully warm result-cache replay.

    Seeds a disk cache with the trio once, then measures fresh runners
    replaying the same grid entirely from cache (0 simulations).  This
    is the path every repeated figure-generation and CI smoke run
    takes; gating it keeps cache-load regressions from hiding behind a
    fast cold kernel.
    """
    from repro.experiments.parallel import ParallelExperimentRunner

    grid = [(name, POLICY) for name in WORKLOADS]
    with tempfile.TemporaryDirectory(prefix="polyflow-bench-cache-") as cache_dir:
        seed = ParallelExperimentRunner(
            scale=scale, workload_names=WORKLOADS, jobs=1, cache_dir=cache_dir
        )
        if seed.prefetch(grid) != len(WORKLOADS):
            raise AssertionError("cache seeding expected a cold run")
        best = float("inf")
        for _ in range(repeats):
            runner = ParallelExperimentRunner(
                scale=scale, workload_names=WORKLOADS, jobs=1, cache_dir=cache_dir
            )
            started = time.perf_counter()
            simulated = runner.prefetch(grid)
            elapsed = time.perf_counter() - started
            if simulated != 0:
                raise AssertionError(
                    "warm cache replay ran {} simulations".format(simulated)
                )
            if runner.summary.cache_hits != len(WORKLOADS):
                raise AssertionError(
                    "expected {} cache hits, saw {}".format(
                        len(WORKLOADS), runner.summary.cache_hits
                    )
                )
            best = min(best, elapsed)
    return {
        "entries": len(WORKLOADS),
        "wall_seconds": best,
        "loads_per_second": len(WORKLOADS) / best,
    }


def measure_estimator(scale, cells=ESTIMATOR_CELLS):
    """The ``estimator`` channel: analytic error + triage telemetry.

    Sweeps a fixed stratified synth sample exactly, then scores the
    analytic estimator against it — per-spec mean absolute speedup
    error and champion-vs-challenger delta error — and runs the
    estimate-first triage over the same sample (its simulations replay
    from the runner's memo, so the triage itself costs nothing extra).
    Every stratum verdict the triage *certifies* is compared against
    the full exact sweep's verdict; any disagreement is a certificate
    bug and fails the gate.
    """
    from repro.analysis.estimate import estimate_row, mean_absolute_error
    from repro.experiments import synth_sweep
    from repro.experiments.parallel import ParallelExperimentRunner
    from repro.workloads.synth import stratified_sample, stratum_key

    names = stratified_sample(cells, ESTIMATOR_TOKEN)
    specs = synth_sweep.DEFAULT_SPECS
    runner = ParallelExperimentRunner(scale=scale, jobs=1)
    exact_rows = {
        row.name: row for row in synth_sweep.sweep(runner, names, specs)
    }

    mae = {}
    delta_pairs = []
    predictions = {}
    for name in names:
        predictions[name] = {
            spec: estimate.predicted_speedup
            for spec, estimate in estimate_row(
                name, specs, scale, runner.config
            ).items()
        }
    for spec in specs:
        mae[spec] = mean_absolute_error(
            (predictions[name][spec], exact_rows[name].speedups[spec])
            for name in names
        )
    for name in names:
        predicted_delta = predictions[name][specs[0]] - max(
            predictions[name][spec] for spec in specs[1:]
        )
        delta_pairs.append((predicted_delta, exact_rows[name].delta(specs)))

    report = synth_sweep.estimate_first_sweep(runner, names, specs)
    full_counts = {}
    for row in exact_rows.values():
        counts = full_counts.setdefault(
            stratum_key(row.name),
            {outcome: 0 for outcome in synth_sweep.OUTCOMES},
        )
        counts[row.outcome(specs)] += 1
    confirmed = [
        verdict
        for verdict in report.strata.values()
        if verdict.status == synth_sweep.CONFIRMED
    ]
    agreements = sum(
        1
        for verdict in confirmed
        if synth_sweep._dominant(full_counts[verdict.key]) == verdict.verdict
    )
    return {
        "cells": len(names),
        "specs": list(specs),
        "token": ESTIMATOR_TOKEN,
        "mae": mae,
        "mean_mae": sum(mae.values()) / len(mae),
        "delta_mae": mean_absolute_error(delta_pairs),
        "triage": {
            "simulated_cells": report.simulated_cells,
            "estimated_cells": report.estimated_cells,
            "budget_cells": report.budget_cells,
            "simulated_fraction": report.simulated_cells / len(names),
            "strata": len(report.strata),
            "confirmed_strata": len(confirmed),
            "confirmed_agreement": (
                agreements / len(confirmed) if confirmed else 1.0
            ),
        },
    }


def measure_fabric(
    scale, repeats=3, workers=FABRIC_WORKERS, names=FABRIC_NAMES
):
    """The ``fabric`` channel: sharded subprocess sweep vs serial.

    Runs the same stratified synth grid serially (``jobs=1``, no
    cache) and through ``workers`` subprocess fabric workers with a
    cold shared store, best-of-``repeats`` each, and verifies the two
    paths' stats cell for cell.  Every fabric repeat gets a fresh
    store (so no repeat is answered from a warm store) and a fresh
    fleet, warmed *before* the timed region — the measurement is
    steady-state dispatch + simulation + store publish, not Python
    interpreter startup.
    """
    from repro.experiments import scheduler
    from repro.experiments.parallel import ParallelExperimentRunner
    from repro.workloads.synth import stratified_sample

    grid = [
        (name, spec)
        for name in stratified_sample(names, FABRIC_TOKEN)
        for spec in FABRIC_SPECS
    ]
    cells = len(grid)

    serial_seconds = float("inf")
    serial_runner = None
    for _ in range(repeats):
        runner = ParallelExperimentRunner(scale=scale, jobs=1)
        started = time.perf_counter()
        if runner.prefetch(grid) != cells:
            raise AssertionError("serial fabric baseline expected a cold run")
        serial_seconds = min(serial_seconds, time.perf_counter() - started)
        serial_runner = runner

    fabric_seconds = float("inf")
    identical = True
    published = 0
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(
            prefix="polyflow-bench-fabric-"
        ) as store_parent:
            runner = ParallelExperimentRunner(
                scale=scale,
                fabric_workers=workers,
                fabric_store=os.path.join(store_parent, "store"),
            )
            try:
                runner.warm_fabric()
                started = time.perf_counter()
                simulated = runner.prefetch(grid)
                elapsed = time.perf_counter() - started
            finally:
                runner.shutdown_fabric()
            if simulated != cells:
                raise AssertionError(
                    "fabric sweep expected {} simulations, ran {}".format(
                        cells, simulated
                    )
                )
            fabric_seconds = min(fabric_seconds, elapsed)
            identical = identical and all(
                scheduler.pack_stats(runner.run_policy(name, spec))
                == scheduler.pack_stats(serial_runner.run_policy(name, spec))
                for name, spec in grid
            )
            published = runner.summary.fabric.get("worker_store_publishes", 0)

    cpus = scheduler.usable_cpus()
    return {
        "workers": workers,
        "cells": cells,
        "specs": list(FABRIC_SPECS),
        "token": FABRIC_TOKEN,
        "cpus": cpus,
        "mode": "multi-core" if cpus >= 2 else "single-core",
        "serial_seconds": serial_seconds,
        "fabric_seconds": fabric_seconds,
        "cells_per_second": cells / fabric_seconds,
        "speedup_vs_serial": serial_seconds / fabric_seconds,
        "stats_identical": identical,
        "store_published": published,
    }


def run_benchmark(
    scale, repeats, jobs, jobs_repeats=3, skip_jobs=False, skip_cache=False
):
    """One full measurement: calibration, serial trio, estimator,
    fabric sweep, jobs fan-out, warm-cache replay, and the derived
    parallel-efficiency ratio."""
    report = {
        "schema": SCHEMA,
        "workloads": list(WORKLOADS),
        "policy": POLICY,
        "scale": scale,
        "repeats": repeats,
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "machine_index": machine_index(),
        "serial": measure_serial(scale, repeats),
    }
    report["estimator"] = measure_estimator(scale)
    report["fabric"] = measure_fabric(scale, jobs_repeats)
    if not skip_jobs:
        report["jobs4"] = measure_jobs(scale, jobs, jobs_repeats)
        report["efficiency"] = {
            "ratio": report["serial"]["seconds"]
            / report["jobs4"]["wall_seconds"],
            "mode": report["jobs4"]["mode"],
            "cpus": report["jobs4"]["cpus"],
        }
    if not skip_cache:
        report["cache_hit"] = measure_cache_hits(scale, jobs_repeats)
    return report


def speedup_vs_baseline(report, baseline):
    """Normalized serial/jobs4 speedups of ``report`` over ``baseline``."""
    speedups = {}
    ratio = report["machine_index"] / baseline["machine_index"]
    speedups["serial"] = (
        report["serial"]["aggregate_ips"]
        / baseline["serial"]["aggregate_ips"]
        / ratio
    )
    if "jobs4" in report and "jobs4" in baseline:
        speedups["jobs4"] = (
            report["jobs4"]["ips"] / baseline["jobs4"]["ips"] / ratio
        )
    if "cache_hit" in report and "cache_hit" in baseline:
        speedups["cache_hit"] = (
            report["cache_hit"]["loads_per_second"]
            / baseline["cache_hit"]["loads_per_second"]
            / ratio
        )
    if (
        "fabric" in report
        and "fabric" in baseline
        and report["fabric"].get("mode") == baseline["fabric"].get("mode")
    ):
        speedups["fabric"] = (
            report["fabric"]["cells_per_second"]
            / baseline["fabric"]["cells_per_second"]
            / ratio
        )
    return speedups


def check_schema(report, reference, reference_path):
    """Baseline-freshness gate.  Returns failure strings (empty = pass).

    A baseline emitted by an older harness is missing whole channels;
    comparing against it would either KeyError or silently skip gates.
    Name each missing channel and how to fix it instead.
    """
    failures = []
    reference_schema = reference.get("schema", 0)
    for channel in ("serial", "estimator", "fabric"):
        if channel in report and channel not in reference:
            failures.append(
                "baseline {} (schema {}) predates schema {}: it has no "
                "'{}' channel — regenerate it with "
                "'bench_kernel.py --output {}'".format(
                    reference_path,
                    reference_schema,
                    report["schema"],
                    channel,
                    reference_path,
                )
            )
    return failures


def check_regression(report, reference, tolerance):
    """Gate: normalized throughput must not trail ``reference`` by more
    than ``tolerance``.  Returns a list of failure strings (empty = pass).
    """
    failures = []
    ratio = report["machine_index"] / reference["machine_index"]
    checks = [
        (
            "serial",
            report["serial"]["aggregate_ips"],
            reference["serial"]["aggregate_ips"],
        )
    ]
    if "jobs4" in report and "jobs4" in reference:
        checks.append(("jobs4", report["jobs4"]["ips"], reference["jobs4"]["ips"]))
    if "cache_hit" in report and "cache_hit" in reference:
        checks.append(
            (
                "cache_hit",
                report["cache_hit"]["loads_per_second"],
                reference["cache_hit"]["loads_per_second"],
            )
        )
    if (
        "fabric" in report
        and "fabric" in reference
        and report["fabric"].get("mode") == reference["fabric"].get("mode")
    ):
        # Fabric cells/sec depends on how many cores the fleet spans;
        # the machine index measures single-core speed only, so the
        # channel is comparable only between same-mode reports.
        checks.append(
            (
                "fabric",
                report["fabric"]["cells_per_second"],
                reference["fabric"]["cells_per_second"],
            )
        )
    for label, measured, expected in checks:
        normalized = measured / ratio
        floor = expected * (1.0 - tolerance)
        if normalized < floor:
            failures.append(
                "{}: normalized {:.0f} ips < floor {:.0f} ips "
                "(reference {:.0f}, tolerance {:.0%}, machine ratio {:.2f})".format(
                    label, normalized, floor, expected, tolerance, ratio
                )
            )
    return failures


def check_efficiency(
    report,
    floor=DEFAULT_EFFICIENCY_FLOOR,
    single_core_floor=SINGLE_CORE_EFFICIENCY_FLOOR,
):
    """Parallel-efficiency gate.  Returns failure strings (empty = pass).

    ``efficiency.ratio`` is serial wall / jobs4 wall.  In ``pool`` mode
    (≥2 usable CPUs) the fan-out must beat serial by ``floor``; in
    ``inline`` mode (single core — the pool is short-circuited because
    parallelism cannot help) the scheduler's bookkeeping overhead is
    bounded by ``single_core_floor`` instead.
    """
    efficiency = report.get("efficiency")
    if efficiency is None:
        return []
    ratio = efficiency["ratio"]
    if efficiency["mode"] == "pool":
        if ratio < floor:
            return [
                "parallel efficiency: jobs4 is only {:.2f}x serial wall-clock "
                "on {} CPUs (floor {:.2f}x)".format(
                    ratio, efficiency["cpus"], floor
                )
            ]
    elif ratio < single_core_floor:
        return [
            "parallel efficiency: inline short-circuit ran {:.2f}x serial "
            "on a single core (overhead floor {:.2f}x)".format(
                ratio, single_core_floor
            )
        ]
    return []


def check_fabric(report, floor=None):
    """Fabric gate: placement invariance plus a multi-core speedup floor.

    The byte-identity check applies in every mode — sharded execution
    must reproduce the serial sweep exactly, wherever the cells landed.
    The wall-clock floor applies only in multi-core mode: two worker
    processes timesharing a single core cannot beat the serial sweep,
    so single-core runs record their ratio without gating it.
    """
    measured = report.get("fabric")
    if measured is None:
        return []
    if floor is None:
        floor = DEFAULT_FABRIC_FLOOR
    failures = []
    if not measured.get("stats_identical", False):
        failures.append(
            "fabric: sharded worker results diverged from the serial "
            "sweep (placement invariance is the fabric's core claim)"
        )
    if (
        measured.get("mode") == "multi-core"
        and measured["speedup_vs_serial"] < floor
    ):
        failures.append(
            "fabric: {}-worker sweep ran {:.2f}x serial wall-clock over "
            "{} cells on {} CPUs (floor {:.2f}x)".format(
                measured["workers"],
                measured["speedup_vs_serial"],
                measured["cells"],
                measured["cpus"],
                floor,
            )
        )
    return failures


def check_estimator(report, mae_ceiling=None):
    """Estimator gate: error ceiling, triage budget, certificates."""
    measured = report.get("estimator")
    if measured is None:
        return []
    if mae_ceiling is None:
        mae_ceiling = DEFAULT_ESTIMATOR_MAE_CEILING
    failures = []
    if measured["mean_mae"] > mae_ceiling:
        failures.append(
            "estimator: mean absolute speedup error {:.1f} points > "
            "ceiling {:.1f} over {} cells".format(
                measured["mean_mae"], mae_ceiling, measured["cells"]
            )
        )
    triage = measured.get("triage", {})
    if triage.get("simulated_cells", 0) > triage.get("budget_cells", 0):
        failures.append(
            "estimator: triage simulated {} cells over its budget of "
            "{}".format(triage["simulated_cells"], triage["budget_cells"])
        )
    if triage.get("confirmed_agreement", 1.0) < 1.0:
        failures.append(
            "estimator: a certified stratum verdict disagreed with the "
            "full exact sweep ({}% agreement) — the certificate "
            "guarantee is broken".format(
                round(100 * triage["confirmed_agreement"])
            )
        )
    return failures


def render(report):
    lines = [
        "kernel throughput (scale {}, policy {}):".format(
            report["scale"], report["policy"]
        )
    ]
    for name, entry in report["serial"]["per_workload"].items():
        lines.append(
            "  {:>8}  {:>8} instr  {:>7.3f}s  {:>9.0f} ips".format(
                name, entry["instructions"], entry["seconds"], entry["ips"]
            )
        )
    lines.append(
        "  {:>8}  {:>8} instr  {:>7.3f}s  {:>9.0f} ips".format(
            "serial",
            report["serial"]["instructions"],
            report["serial"]["seconds"],
            report["serial"]["aggregate_ips"],
        )
    )
    if "jobs4" in report:
        jobs = report["jobs4"]
        lines.append(
            "  {:>8}  {:>8} instr  {:>7.3f}s  {:>9.0f} ips "
            "(end-to-end, --jobs {}, {} mode on {} CPUs)".format(
                "jobs4",
                jobs["instructions"],
                jobs["wall_seconds"],
                jobs["ips"],
                jobs["jobs"],
                jobs.get("mode", "pool"),
                jobs.get("cpus", "?"),
            )
        )
    if "efficiency" in report:
        lines.append(
            "  parallel efficiency: {:.2f}x serial wall-clock ({} mode)".format(
                report["efficiency"]["ratio"], report["efficiency"]["mode"]
            )
        )
    if "cache_hit" in report:
        cache = report["cache_hit"]
        lines.append(
            "  cache-hit replay: {} entries in {:.4f}s ({:.0f} loads/s)".format(
                cache["entries"], cache["wall_seconds"], cache["loads_per_second"]
            )
        )
    if "estimator" in report:
        est = report["estimator"]
        triage = est["triage"]
        lines.append(
            "  estimator: {:.1f} points mean |error| over {} cells "
            "(delta error {:.1f}); triage simulated {}/{} cells "
            "(budget {}), certified {}/{} strata at {:.0%} agreement".format(
                est["mean_mae"],
                est["cells"],
                est["delta_mae"],
                triage["simulated_cells"],
                est["cells"],
                triage["budget_cells"],
                triage["confirmed_strata"],
                triage["strata"],
                triage["confirmed_agreement"],
            )
        )
    if "fabric" in report:
        fabric = report["fabric"]
        lines.append(
            "  fabric: {} cells across {} workers in {:.3f}s vs {:.3f}s "
            "serial ({:.2f}x, {} mode, stats {}, {} published)".format(
                fabric["cells"],
                fabric["workers"],
                fabric["fabric_seconds"],
                fabric["serial_seconds"],
                fabric["speedup_vs_serial"],
                fabric["mode"],
                "identical" if fabric["stats_identical"] else "DIVERGED",
                fabric["store_published"],
            )
        )
    if "speedup_vs_baseline" in report:
        lines.append(
            "  vs baseline: "
            + ", ".join(
                "{} {:.2f}x".format(label, value)
                for label, value in report["speedup_vs_baseline"].items()
            )
        )
    lines.append("  machine index: {:.0f}".format(report["machine_index"]))
    return "\n".join(lines)


def render_markdown_summary(report):
    """Machine-index-normalized throughput as a Markdown table.

    Written to ``--summary-md`` (CI points it at ``$GITHUB_STEP_SUMMARY``)
    so every benchmark run surfaces serial and jobs4 throughput plus the
    efficiency ratio without downloading the artifact.
    """
    index = report["machine_index"]
    lines = [
        "### PolyFlow kernel benchmark (scale {}, policy {})".format(
            report["scale"], report["policy"]
        ),
        "",
        "| metric | raw | normalized (ips / machine index) |",
        "|---|---:|---:|",
        "| serial throughput (fused loop) | {:.0f} ips | {:.6f} |".format(
            report["serial"]["aggregate_ips"],
            report["serial"]["aggregate_ips"] / index,
        ),
    ]
    if "jobs4" in report:
        jobs = report["jobs4"]
        lines.append(
            "| `--jobs {}` throughput ({} mode, {} CPUs) | {:.0f} ips | {:.6f} |".format(
                jobs["jobs"], jobs["mode"], jobs["cpus"], jobs["ips"], jobs["ips"] / index
            )
        )
    if "efficiency" in report:
        lines.append(
            "| parallel efficiency (serial wall / jobs4 wall) | {:.2f}x | — |".format(
                report["efficiency"]["ratio"]
            )
        )
    if "cache_hit" in report:
        cache = report["cache_hit"]
        lines.append(
            "| warm cache replay | {:.0f} loads/s | {:.6f} |".format(
                cache["loads_per_second"], cache["loads_per_second"] / index
            )
        )
    if "fabric" in report:
        fabric = report["fabric"]
        lines.append(
            "| fabric sweep ({} workers, {} mode, {:.2f}x serial) "
            "| {:.1f} cells/s | {:.6f} |".format(
                fabric["workers"],
                fabric["mode"],
                fabric["speedup_vs_serial"],
                fabric["cells_per_second"],
                fabric["cells_per_second"] / index,
            )
        )
    if "estimator" in report:
        est = report["estimator"]
        lines.append(
            "| estimator error ({} cells) | {:.1f} points | — |".format(
                est["cells"], est["mean_mae"]
            )
        )
        lines.append(
            "| estimate-first triage | {}/{} cells simulated, "
            "{}/{} strata certified | — |".format(
                est["triage"]["simulated_cells"],
                est["cells"],
                est["triage"]["confirmed_strata"],
                est["triage"]["strata"],
            )
        )
    lines.append(
        "| machine index | {:.0f} ops/s | 1 |".format(index)
    )
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    parser.add_argument(
        "--skip-jobs", action="store_true", help="skip the --jobs fan-out measurement"
    )
    parser.add_argument(
        "--skip-cache",
        action="store_true",
        help="skip the warm cache-hit replay measurement",
    )
    parser.add_argument("--output", help="write the report JSON here")
    parser.add_argument(
        "--summary-md",
        help="append a Markdown summary table here (CI: $GITHUB_STEP_SUMMARY)",
    )
    parser.add_argument(
        "--efficiency-output",
        help="write the parallel-efficiency section as JSON here "
        "(uploaded as a CI artifact next to the full report)",
    )
    parser.add_argument(
        "--baseline",
        help="a previous report; its numbers are embedded under 'baseline' "
        "and normalized speedups are computed",
    )
    parser.add_argument(
        "--check",
        help="a reference report (the checked-in BENCH_polyflow.json); "
        "exit non-zero when normalized throughput regresses beyond "
        "the tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_GATE_TOLERANCE", DEFAULT_TOLERANCE)),
        help="allowed fractional regression for --check (default 0.15; "
        "env BENCH_GATE_TOLERANCE overrides)",
    )
    parser.add_argument(
        "--efficiency-floor",
        type=float,
        default=float(
            os.environ.get("BENCH_EFFICIENCY_FLOOR", DEFAULT_EFFICIENCY_FLOOR)
        ),
        help="jobs4 must beat serial wall-clock by this factor on "
        "multi-core machines (default 1.2; env BENCH_EFFICIENCY_FLOOR "
        "overrides)",
    )
    parser.add_argument(
        "--fabric-floor",
        type=float,
        default=float(
            os.environ.get("BENCH_FABRIC_FLOOR", DEFAULT_FABRIC_FLOOR)
        ),
        help="minimum fabric/serial wall speedup on multi-core machines "
        "for --check (default {}; single-core runs gate byte-identity "
        "only; env BENCH_FABRIC_FLOOR overrides)".format(
            DEFAULT_FABRIC_FLOOR
        ),
    )
    parser.add_argument(
        "--estimator-mae-ceiling",
        type=float,
        default=float(
            os.environ.get(
                "BENCH_ESTIMATOR_MAE_CEILING", DEFAULT_ESTIMATOR_MAE_CEILING
            )
        ),
        help="maximum mean absolute estimator speedup error for --check "
        "(default {}; env BENCH_ESTIMATOR_MAE_CEILING overrides)".format(
            DEFAULT_ESTIMATOR_MAE_CEILING
        ),
    )
    arguments = parser.parse_args(argv)

    report = run_benchmark(
        arguments.scale,
        arguments.repeats,
        arguments.jobs,
        skip_jobs=arguments.skip_jobs,
        skip_cache=arguments.skip_cache,
    )

    if arguments.baseline:
        with open(arguments.baseline) as handle:
            baseline = json.load(handle)
        report["baseline"] = baseline
        report["speedup_vs_baseline"] = speedup_vs_baseline(report, baseline)

    print(render(report))

    if arguments.output:
        with open(arguments.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(arguments.output))

    if arguments.summary_md:
        with open(arguments.summary_md, "a") as handle:
            handle.write(render_markdown_summary(report))
        print("appended summary to {}".format(arguments.summary_md))

    if arguments.efficiency_output and "efficiency" in report:
        with open(arguments.efficiency_output, "w") as handle:
            json.dump(report["efficiency"], handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(arguments.efficiency_output))

    if arguments.check:
        with open(arguments.check) as handle:
            reference = json.load(handle)
        failures = check_schema(report, reference, arguments.check)
        if not failures:
            failures = check_regression(report, reference, arguments.tolerance)
            failures.extend(check_efficiency(report, arguments.efficiency_floor))
            failures.extend(
                check_estimator(report, arguments.estimator_mae_ceiling)
            )
            failures.extend(check_fabric(report, arguments.fabric_floor))
        if failures:
            for failure in failures:
                print("REGRESSION {}".format(failure), file=sys.stderr)
            return 1
        print(
            "gates passed (tolerance {:.0%}, efficiency floor {:.2f}x, "
            "estimator ceiling {:.1f}, fabric floor {:.2f}x vs {})".format(
                arguments.tolerance,
                arguments.efficiency_floor,
                arguments.estimator_mae_ceiling,
                arguments.fabric_floor,
                arguments.check,
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
