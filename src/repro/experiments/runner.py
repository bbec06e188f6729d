"""Experiment runner: sweeps (workload, policy) pairs with caching.

One :class:`ExperimentRunner` prepares each workload once (program,
trace, CFGs, spawn analysis, profile) and then materializes any spawn
policy on demand.  The superscalar baseline and every policy run are
cached, so the per-figure generators share work.

All simulations funnel through the module-level :func:`simulate_job`,
which depends only on picklable inputs (workload name, policy spec,
scale, :class:`~repro.polyflow.config.MachineConfig`).  That makes the
same code path usable from worker processes — see
:mod:`repro.experiments.parallel` for the ``ProcessPoolExecutor``
fan-out and the on-disk result cache layered on top.
"""

from repro.polyflow import PAPER_CONFIG, PolyFlowCore, superscalar_config
from repro.polyflow.config import config_fingerprint
from repro.polyflow.stats import speedup_percent
from repro.spawn import canonical_spec
from repro.spawn.hints import HintTable
from repro.workloads import WORKLOAD_NAMES, prepare_workload

#: Policy spec used for the dynamic reconvergence predictor (Figure 12).
REC_PRED_SPEC = "rec_pred"

#: Pseudo-spec naming the superscalar baseline run.  ``simulate_job``
#: restricts the machine itself (``superscalar_config``), so callers
#: always pass the *PolyFlow* configuration alongside this spec.
SUPERSCALAR_SPEC = "superscalar"

def spawn_profile(name, scale, max_spawn_distance):
    """The spawn profile of one workload (memoized per program).

    The profile covers the union of postdominator and loop spawn
    points, so every policy's hint table can be derived from it.  The
    per-distance memo lives on the workload's shared
    :class:`~repro.analysis.pipeline.ProgramAnalyses`, so worker
    processes running several policy specs of the same workload — and
    runners at different scales that build identical program text —
    all share one profile.
    """
    return prepare_workload(name, scale).spawn_profile(max_spawn_distance)


def clear_profile_cache():
    """Drop all memoized spawn profiles (mainly for tests).

    Profiles are memoized on the shared program analyses, so this
    delegates to :func:`repro.workloads.clear_cache`.
    """
    from repro.workloads import clear_cache

    clear_cache()


def build_core(
    name,
    spec,
    scale,
    config,
    profile_distance=None,
    bus=None,
):
    """Construct the :class:`PolyFlowCore` for one (workload, policy) job.

    This is the single place the experiment harness turns a picklable
    job description into a runnable core, so every caller — the serial
    runner, the process-pool workers, and the ``trace`` CLI — gets the
    identical machine.  Pass ``bus`` to attach observability sinks
    before the run starts (see :mod:`repro.obs`).

    Args:
        name: Workload name (see :data:`~repro.workloads.WORKLOAD_NAMES`).
        spec: Policy spec (aliases like ``control-equivalent`` are
            resolved), :data:`REC_PRED_SPEC`, or
            :data:`SUPERSCALAR_SPEC` for the baseline.
        scale: Workload scale factor.
        config: The PolyFlow :class:`MachineConfig`
            (:func:`superscalar_config` is applied here for the
            baseline spec).
        profile_distance: Maximum spawn distance used when *profiling*
            spawn points (defaults to ``config.max_spawn_distance``).
            Ablations sweep the machine's distance cap while keeping
            the profile fixed; this keeps those runs reproducible.
        bus: Optional :class:`~repro.obs.EventBus` carrying trace or
            metrics sinks.
    """
    spec = canonical_spec(spec)
    prepared = prepare_workload(name, scale)
    if spec == SUPERSCALAR_SPEC:
        return PolyFlowCore(
            prepared.trace,
            superscalar_config(config),
            HintTable(),
            bus=bus,
        )
    if spec == REC_PRED_SPEC:
        from repro.reconvergence import build_reconvergence_spawner

        core = PolyFlowCore(
            prepared.trace,
            config,
            HintTable(),
            bus=bus,
        )
        core.spawn_unit = build_reconvergence_spawner(prepared, config)
        return core
    if profile_distance is None:
        profile_distance = config.max_spawn_distance
    profile = spawn_profile(name, scale, profile_distance)
    policy = prepared.spawn_analysis.policy(spec)
    return PolyFlowCore(
        prepared.trace,
        config,
        profile.hint_table(policy),
        bus=bus,
    )


def simulate_job(name, spec, scale, config, profile_distance=None):
    """Run one (workload, policy) cycle-level simulation.

    This is the single entry point for every simulation the experiment
    harness performs; serial and parallel execution differ only in
    where it runs.  All arguments and the returned
    :class:`~repro.polyflow.stats.SimStats` are picklable.  See
    :func:`build_core` for the argument semantics.
    """
    return build_core(name, spec, scale, config, profile_distance).run()


class ExperimentRunner:
    """Caches workload preparation and simulation runs.

    Simulation results live in an in-memory memo keyed by
    ``(workload, spec, config fingerprint, profile distance)``; the
    same key shape addresses the on-disk cache of
    :class:`~repro.experiments.parallel.ParallelExperimentRunner`.
    """

    def __init__(self, scale=1.0, config=PAPER_CONFIG, workload_names=WORKLOAD_NAMES):
        self.scale = scale
        self.config = config
        self.workload_names = tuple(workload_names)
        self._workloads = {}
        self._results = {}

    # -- preparation -----------------------------------------------------------

    def workload(self, name):
        """The :class:`~repro.workloads.suite.PreparedWorkload` (memoized)."""
        if name not in self._workloads:
            self._workloads[name] = prepare_workload(name, self.scale)
        return self._workloads[name]

    def profile(self, name):
        """The spawn profile over the union of all spawn points."""
        return spawn_profile(name, self.scale, self.config.max_spawn_distance)

    def hint_table(self, name, spec):
        """The hint table for one (workload, policy spec) pair."""
        prepared = self.workload(name)
        policy = prepared.spawn_analysis.policy(spec)
        return self.profile(name).hint_table(policy)

    # -- simulation ---------------------------------------------------------------

    def _result_key(self, name, spec, config, profile_distance):
        # Aliases collapse onto their canonical spec so "control-equivalent"
        # and "postdoms" share one memo (and one disk-cache) entry.
        return (name, canonical_spec(spec), config_fingerprint(config), profile_distance)

    def _simulate(self, name, spec, config, profile_distance):
        """Run one simulation in-process (overridden by the parallel
        runner to consult the on-disk cache)."""
        return simulate_job(name, spec, self.scale, config, profile_distance)

    def run_with_config(self, name, spec, config, profile_distance=None):
        """Stats for ``name`` under ``spec`` and an arbitrary machine
        configuration (cached).

        ``profile_distance`` defaults to the *runner's* configured
        ``max_spawn_distance`` so that configuration sweeps reuse one
        profile, matching the serial harness's historical behaviour.
        """
        if profile_distance is None:
            profile_distance = self.config.max_spawn_distance
        key = self._result_key(name, spec, config, profile_distance)
        if key not in self._results:
            self._results[key] = self._simulate(name, spec, config, profile_distance)
        return self._results[key]

    def baseline(self, name):
        """Superscalar stats for ``name`` (cached)."""
        return self.run_with_config(name, SUPERSCALAR_SPEC, self.config)

    def run_policy(self, name, spec):
        """PolyFlow stats for ``name`` under policy ``spec`` (cached)."""
        return self.run_with_config(name, spec, self.config)

    def speedup(self, name, spec):
        """Speedup (%) of policy ``spec`` over the superscalar baseline."""
        return speedup_percent(self.run_policy(name, spec), self.baseline(name))

    def speedups_for_specs(self, specs):
        """Mapping ``{workload: {spec: speedup%}}`` plus an Average row."""
        self.prefetch(
            [(name, spec) for name in self.workload_names for spec in specs]
            + [(name, SUPERSCALAR_SPEC) for name in self.workload_names]
        )
        table = {}
        for name in self.workload_names:
            table[name] = {spec: self.speedup(name, spec) for spec in specs}
        table["Average"] = {
            spec: sum(table[name][spec] for name in self.workload_names)
            / len(self.workload_names)
            for spec in specs
        }
        return table

    # -- batched execution --------------------------------------------------------

    def normalize_jobs(self, jobs):
        """Deduplicated, deterministically ordered job list.

        Accepts ``(name, spec)`` pairs (run under the runner's config)
        or ``(name, spec, config)`` triples, and returns
        ``(name, spec, config, profile_distance)`` tuples sorted by
        workload then spec, with already-memoized jobs removed.
        """
        normalized = {}
        for job in jobs:
            if len(job) == 2:
                name, spec = job
                config = self.config
            else:
                name, spec, config = job
            profile_distance = self.config.max_spawn_distance
            key = self._result_key(name, spec, config, profile_distance)
            if key in self._results or key in normalized:
                continue
            normalized[key] = (name, spec, config, profile_distance)
        return sorted(normalized.values(), key=lambda job: (job[0], job[1]))

    def prefetch(self, jobs):
        """Ensure every job's stats are memoized (serially, in order).

        The parallel runner overrides this with a process-pool fan-out;
        the serial implementation exists so call sites never need to
        care which runner they hold.  Returns the number of
        simulations actually run.
        """
        pending = self.normalize_jobs(jobs)
        for name, spec, config, profile_distance in pending:
            self.run_with_config(name, spec, config, profile_distance)
        return len(pending)
