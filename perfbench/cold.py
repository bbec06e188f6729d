"""One cold batch job in a fresh process (``python -m perfbench.cold``).

Started by the benchmark with a fresh, empty cache directory.  The
process imports the product (and, with ``--trace``, wraps its layers),
prepares its inputs, prints ``ready`` and waits for ``go`` on stdin;
only what follows is timed.  It then runs the job exactly as the
``polyflow-experiments`` CLI does:

* ``fig9``: ``fig9 --scale S --jobs N --cache-dir D``;
* ``synth``: ``synth --jobs N --cache-dir D`` over a seeded
  ``stratified_sample`` (the CLI's ``--sample`` draws one fixed sample,
  so the library calls behind ``_run_synth`` are used directly).

The last stdout line is a JSON object: the rendered output, the run
summary, the CPU spent before ``go`` and, when traced, the layer
metrics.
"""

import argparse
import json
import pickle
import sys
import time

from perfbench import measure, reference


def _pack_seconds(stats_list):
    """CPU seconds of the pool path's result round trip for these
    stats: ``pack_stats`` in the worker, one pickle each way,
    ``unpack_stats`` in the parent (0 once that path is gone)."""
    from repro.experiments import scheduler

    if not hasattr(scheduler, "pack_stats"):
        return 0.0
    started = time.thread_time()
    for stats in stats_list:
        payload = pickle.loads(pickle.dumps(scheduler.pack_stats(stats)))
        scheduler.unpack_stats(payload)
    return time.thread_time() - started


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench.cold")
    parser.add_argument("job", choices=("fig9", "synth"))
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--sample", type=int, default=0)
    parser.add_argument("--token", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--pack-cells",
        type=int,
        default=0,
        help="(trace) time the pool result round trip for this many cells",
    )
    arguments = parser.parse_args(argv)

    from repro.experiments import figures, scheduler, synth_sweep
    from repro.experiments.parallel import ParallelExperimentRunner
    from repro.workloads.synth import stratified_sample

    tracer = None
    if arguments.trace:
        from perfbench import layers

        tracer = layers.install()
    names = ()
    if arguments.job == "synth":
        names = stratified_sample(arguments.sample, token=arguments.token)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 2

    cpu_at_go = measure.self_cpu_s()
    start = tracer.snapshot() if tracer else None
    runner = ParallelExperimentRunner(
        scale=arguments.scale, jobs=arguments.jobs, cache_dir=arguments.cache_dir
    )
    if arguments.job == "fig9":
        runner.prefetch(figures.figure_jobs_union(("fig9",), runner))
        output = figures.figure9(runner).render()
    else:
        rows = synth_sweep.sweep(runner, names, synth_sweep.DEFAULT_SPECS)
        output = synth_sweep.coverage_map(rows, synth_sweep.DEFAULT_SPECS).render()
    scheduler.shutdown_pool()
    end = tracer.snapshot() if tracer else None

    payload = {
        "output": output,
        "summary": runner.summary.as_dict(),
        "cpu_at_go_s": cpu_at_go,
    }
    if tracer:
        from perfbench import layers

        payload["layers"] = layers.layer_metrics(start, end)
        if arguments.job == "fig9":
            cells = figures.figure_jobs_union(("fig9",), runner)
        else:
            cells = [(name, spec) for name in names for spec in reference.SYNTH_SPECS]
        payload["pack_s"] = _pack_seconds(
            [
                runner.run_with_config(name, spec, runner.config)
                for name, spec in cells[: arguments.pack_cells]
            ]
        )
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
