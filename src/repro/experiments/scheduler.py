"""Batched grid scheduler: warm pools, job chunks, cost ordering.

PR 3's fast-path kernel made individual simulations cheap enough that
the original one-future-per-cell fan-out lost to serial execution: each
grid cell paid a pool ``submit``, a per-worker analysis load, and a
full pickled :class:`~repro.polyflow.stats.SimStats` round-trip.  This
module replaces that with a scheduler that treats the grid as a batch:

* **Warm worker pool** — one module-level
  :class:`~concurrent.futures.ProcessPoolExecutor` (fork start method
  where available) reused across ``prefetch`` calls within a process.
  Workers pre-materialize the analysis/predecode arenas once via the
  pool initializer (a fork start inherits the parent's arenas for
  free), not once per job.

* **Cost model** — a grid cell's estimated cost is its workload's
  committed-trace length, which the content-keyed
  :class:`~repro.analysis.pipeline.AnalysisCache` has already computed
  by the time the cell is scheduled (estimating the cost of a cache
  miss prepares the program the simulation needs anyway).

* **Chunking** — cells are grouped into chunks sized by estimated
  cost and shipped as *one* pickle per chunk; chunks are submitted
  longest-expected-first so the straggler tail collapses.

* **Cheap-cell short-circuit** — cells whose estimated cost falls
  below :data:`INLINE_COST_THRESHOLD` run inline in the parent, so
  tiny grids (and single-core machines, where a process pool can only
  add overhead) never pay pool spin-up at all.

* **Slim transport** — workers return compact stat tuples
  (:func:`pack_stats`) rather than full pickled ``SimStats`` objects;
  the parent reconstructs bit-identical stats with
  :func:`unpack_stats`.

Scheduling never changes results: every cell is a deterministic
simulation keyed by its job tuple, and the parent merges outcomes into
a keyed memo, so output is bit-identical to serial under every
``--jobs`` value, chunk size, and completion order.
"""

import atexit
import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro.analysis.pipeline import configure_disk_cache
from repro.errors import ConfigurationError

#: Cells whose estimated cost (committed-trace instructions) falls
#: below this run inline in the parent: at fast-path kernel speed such
#: a simulation finishes in tens of milliseconds, below what a pool
#: round-trip can amortize.
INLINE_COST_THRESHOLD = 5000

#: Chunks per worker the cost scheduler aims for.  Over-partitioning
#: keeps workers busy when chunk costs are estimates; the
#: longest-expected-first submission order does the actual balancing.
OVERPARTITION = 4

#: Cost-ordered chunking (longest-expected-first).  The default.
SCHEDULE_COST = "cost"
#: Fixed-size chunks in grid order (for comparison/debugging).
SCHEDULE_FIFO = "fifo"
SCHEDULES = (SCHEDULE_COST, SCHEDULE_FIFO)

#: Nominal cost of a grid cell the shared artifact store already
#: holds: a digest-verified fetch, not a simulation.  Non-zero so the
#: shard planner still spreads store-held cells across workers.
STORE_HELD_COST = 1


def usable_cpus():
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- cost model -------------------------------------------------------------------


def job_cost(name, scale, store=None, digest=None):
    """Estimated cost of one grid cell: its committed-trace length.

    Simulation time is linear in committed instructions (the kernel
    retires the whole trace), so the trace length is the cost unit.
    The policy spec does not enter: every policy retires the same
    trace.  Four tiers, cheapest sufficient one wins:

    1. a cached exact length (preparation memo, or the analysis
       cache's memory/disk layers) — free and exact;
    2. a shared-store probe: when ``store``/``digest`` name an
       artifact the fabric store already holds, the cell costs
       :data:`STORE_HELD_COST` — it will be *fetched*, not simulated,
       so estimating (let alone preparing) its workload would price
       work nobody is going to do;
    3. the closed-form structural estimate of
       :func:`repro.analysis.estimate.estimated_trace_length` for
       synthesized catalog scenarios — ~20% relative error, which the
       over-partitioned longest-first schedule absorbs, and it spares
       a cold sweep from preparing every cell up front just to cost
       it;
    4. preparing the workload (named workloads on a cold cache only —
       the handful of paper benchmarks, never the 2592-cell catalog).

    The store probe sits *above* the estimator so a store-held named
    workload on a cold cache never triggers the tier-4 ``prepare``
    fallback in fabric costing paths.
    """
    from repro.analysis.estimate import estimated_trace_length
    from repro.workloads.suite import (
        peek_workload_trace_length,
        workload_trace_length,
    )

    cached = peek_workload_trace_length(name, scale)
    if cached is not None:
        return cached
    if store is not None and digest is not None and store.contains(digest):
        return STORE_HELD_COST
    estimated = estimated_trace_length(name, scale)
    if estimated is not None:
        return estimated
    return workload_trace_length(name, scale)


# -- slim result transport --------------------------------------------------------

#: ``SimStats`` attributes that need container-aware packing.
_PACK_CONTAINERS = ("spawns_by_category", "cache_stats")


def pack_stats(stats):
    """Compact picklable payload of one ``SimStats`` (see ``unpack_stats``).

    Plain counters are shipped as a sorted attribute tuple and the two
    container attributes as item tuples — no class instance, no
    defaultdict machinery — one flat pickle per result.  Packing is
    attribute-generic, so counters added to ``SimStats.__init__`` are
    carried automatically.
    """
    plain = tuple(
        sorted(
            (
                (name, value)
                for name, value in vars(stats).items()
                if name not in _PACK_CONTAINERS
            ),
            key=lambda item: item[0],
        )
    )
    spawns = tuple(
        sorted(stats.spawns_by_category.items(), key=lambda item: str(item[0]))
    )
    cache = tuple(sorted(stats.cache_stats.items(), key=lambda item: str(item[0])))
    return plain, spawns, cache


def unpack_stats(payload):
    """Reconstruct the exact ``SimStats`` :func:`pack_stats` flattened."""
    from repro.polyflow.stats import SimStats

    plain, spawns, cache = payload
    stats = SimStats()
    for name, value in plain:
        setattr(stats, name, value)
    stats.spawns_by_category.update(dict(spawns))
    stats.cache_stats = dict(cache)
    return stats


# -- chunk planning ---------------------------------------------------------------


class GridSchedule:
    """The executable plan for one pending grid.

    ``inline`` cells run in the parent (cheap cells and any grid the
    pool cannot help); ``chunks`` is a longest-expected-first list of
    job lists for the worker pool.
    """

    __slots__ = ("inline", "chunks", "workers", "schedule", "cpus")

    def __init__(self, inline, chunks, workers, schedule, cpus):
        self.inline = inline
        self.chunks = chunks
        self.workers = workers
        self.schedule = schedule
        self.cpus = cpus

    @property
    def pooled_jobs(self):
        return sum(len(chunk) for chunk in self.chunks)

    def describe(self):
        if not self.chunks:
            return "{} inline".format(len(self.inline))
        return "{} inline, {} pooled in {} chunks across {} workers".format(
            len(self.inline), self.pooled_jobs, len(self.chunks), self.workers
        )


def split_inline(jobs, costs, workers, inline_threshold=INLINE_COST_THRESHOLD):
    """Partition cells into parent-inline and pool-worthy lists.

    Cells cheaper than ``inline_threshold`` stay in the parent.  When
    fewer than two cells remain for the pool — or fewer than two
    workers are available (a single-core machine, or ``--jobs 1``) —
    everything runs inline: a pool could only add overhead.

    Returns ``(inline_jobs, pooled_jobs, pooled_costs)``.
    """
    inline, pooled, pooled_costs = [], [], []
    for job, cost in zip(jobs, costs):
        if cost < inline_threshold:
            inline.append(job)
        else:
            pooled.append(job)
            pooled_costs.append(cost)
    if workers < 2 or len(pooled) < 2:
        return list(jobs), [], []
    return inline, pooled, pooled_costs


def plan_chunks(jobs, costs, workers, max_chunk_jobs=None, schedule=SCHEDULE_COST):
    """Group ``jobs`` into pool chunks, longest-expected-first.

    Under :data:`SCHEDULE_COST` the cells are ordered by descending
    estimated cost and greedily packed into chunks whose total cost
    targets ``sum(costs) / (workers * OVERPARTITION)`` — expensive
    cells become singleton chunks, cheap cells coalesce so each pool
    round-trip amortizes over several simulations.  The returned chunk
    list is ordered by descending total cost, which eliminates the
    straggler tail: the most expensive work is in flight first.

    ``max_chunk_jobs`` (the ``--chunk`` knob) caps cells per chunk; a
    cap at or above the grid size is vacuous and ignored, so an
    oversized ``--chunk`` never collapses the grid into one chunk on
    one worker.  :data:`SCHEDULE_FIFO` keeps grid order with fixed-size
    chunks.  The plan is a pure function of its inputs — same grid,
    same plan.
    """
    if schedule not in SCHEDULES:
        raise ConfigurationError(
            "unknown schedule {!r}; choose from {}".format(schedule, SCHEDULES)
        )
    if not jobs:
        return []
    cap = max_chunk_jobs if max_chunk_jobs and max_chunk_jobs > 0 else None
    if cap is not None and cap >= len(jobs):
        cap = None
    if schedule == SCHEDULE_FIFO:
        size = cap or max(1, -(-len(jobs) // max(1, workers * OVERPARTITION)))
        return [list(jobs[i : i + size]) for i in range(0, len(jobs), size)]
    order = sorted(range(len(jobs)), key=lambda i: (-costs[i], i))
    budget = sum(costs) / max(1, workers * OVERPARTITION)
    chunks = []
    current, current_cost = [], 0
    for i in order:
        if current and (
            current_cost + costs[i] > budget or (cap and len(current) == cap)
        ):
            chunks.append((current_cost, current))
            current, current_cost = [], 0
        current.append(jobs[i])
        current_cost += costs[i]
    if current:
        chunks.append((current_cost, current))
    chunks.sort(key=lambda entry: -entry[0])
    return [chunk for _, chunk in chunks]


def plan_grid(
    jobs,
    costs,
    jobs_requested,
    max_chunk_jobs=None,
    schedule=SCHEDULE_COST,
    inline_threshold=INLINE_COST_THRESHOLD,
    cpus=None,
):
    """Plan one pending grid: inline split plus cost-ordered chunks.

    ``cpus`` overrides CPU detection (tests force the pool path on
    single-core machines with it); by default the effective worker
    count is capped at the process's usable CPUs, so ``--jobs 4`` on a
    one-core container degrades to the inline path instead of forking
    workers that can only time-slice.  An empty grid yields an empty
    plan (no inline cells, no chunks, zero workers) without consulting
    the cost model.
    """
    cpus = usable_cpus() if cpus is None else cpus
    if not jobs:
        return GridSchedule([], [], 0, schedule, cpus)
    workers = max(1, min(jobs_requested, cpus))
    inline, pooled, pooled_costs = split_inline(
        jobs, costs, workers, inline_threshold
    )
    chunks = plan_chunks(pooled, pooled_costs, workers, max_chunk_jobs, schedule)
    if chunks:
        workers = min(workers, len(chunks))
    else:
        workers = 0
    return GridSchedule(inline, chunks, workers, schedule, cpus)


def plan_shards(costs, workers, throughputs=None):
    """Assign chunks to workers: greedy LPT, throughput-weighted.

    ``costs`` is the per-chunk total cost (already in
    longest-expected-first order from :func:`plan_chunks`);
    ``throughputs`` optionally weights workers by relative speed
    (default: homogeneous).  Each chunk goes to the worker whose
    *completion time* — accumulated cost divided by throughput — it
    increases least, so a 2x-faster worker receives roughly 2x the
    work.  Returns one chunk-index list per worker; the plan is a pure
    function of its inputs, so placement is deterministic (ties break
    toward the lower worker index).
    """
    workers = max(1, int(workers))
    if throughputs is None:
        throughputs = [1.0] * workers
    if len(throughputs) != workers or any(t <= 0 for t in throughputs):
        raise ConfigurationError(
            "throughputs must be {} positive weights, got {!r}".format(
                workers, throughputs
            )
        )
    shards = [[] for _ in range(workers)]
    loads = [0.0] * workers
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    for index in order:
        target = min(
            range(workers),
            key=lambda w: ((loads[w] + costs[index]) / throughputs[w], w),
        )
        shards[target].append(index)
        loads[target] += costs[index]
    for shard in shards:
        shard.sort()
    return shards


# -- the warm worker pool ---------------------------------------------------------

_POOL = None
_POOL_WORKERS = 0
_POOL_STARTS = 0


def _fork_context():
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None  # pragma: no cover - non-fork platforms


def _init_worker(analysis_dir, warmup):
    """Pool initializer: arenas once per worker, not once per job.

    Enables the on-disk analysis layer and pre-materializes the
    analyses/predecode arenas of every workload the first grid needs.
    Under a fork start the parent prepared them while estimating costs,
    so this is a memo hit; under spawn it loads them from disk.  A workload that fails to
    prepare is left for its chunk to report — an initializer exception
    would break the whole pool.
    """
    if analysis_dir is not None:
        configure_disk_cache(analysis_dir)
    from repro.workloads import prepare_workload

    for name, scale in warmup:
        try:
            prepare_workload(name, scale)
        except Exception:
            pass


def warm_pool(workers, analysis_dir=None, warmup=()):
    """The persistent worker pool, creating or growing it as needed.

    The pool is module-level and reused across ``run_grid``/``prefetch``
    calls (and across the benchmark harness's repeats): a pool with at
    least ``workers`` workers is returned as-is, a smaller one is
    replaced.  Worker state stays valid across grids because chunks
    re-assert their disk-cache configuration and workloads are
    content-keyed.
    """
    global _POOL, _POOL_WORKERS, _POOL_STARTS
    if _POOL is not None and _POOL_WORKERS >= workers:
        return _POOL
    shutdown_pool()
    keyword_arguments = {}
    context = _fork_context()
    if context is not None:
        keyword_arguments["mp_context"] = context
    _POOL = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(analysis_dir, tuple(warmup)),
        **keyword_arguments,
    )
    _POOL_WORKERS = workers
    _POOL_STARTS += 1
    return _POOL


def pool_starts():
    """How many pools this process has created (warm-reuse telemetry)."""
    return _POOL_STARTS


def pool_alive():
    """Whether a warm pool currently exists (lifecycle telemetry).

    The exploration service's tests use this to prove that cache-hit
    queries never spin a pool up, and that a broken pool was actually
    torn down before its replacement started.
    """
    return _POOL is not None


def shutdown_pool():
    """Tear down the warm pool (tests; registered atexit)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


# -- worker-side execution --------------------------------------------------------


def execute_job(
    name,
    spec,
    scale,
    config,
    profile_distance,
    emit_metrics=False,
    trace_file=None,
    bus=None,
):
    """Run one simulation, reporting ``(stats, metrics, seconds)``.

    With ``emit_metrics`` the run carries a verbose
    :class:`~repro.obs.MetricsAggregator` and its picklable snapshot is
    shipped back alongside the stats.  With ``trace_file`` a compact
    lifecycle-events JSONL trace is written there.  ``bus`` attaches a
    caller-provided :class:`~repro.obs.EventBus` (the exploration
    service bridges lifecycle events to its progress stream through
    one); it must be fresh per job.  Stats are identical in every mode
    — the bus sinks only observe.
    """
    from repro.experiments.runner import build_core, simulate_job

    started = time.perf_counter()
    if not emit_metrics and trace_file is None and bus is None:
        stats = simulate_job(name, spec, scale, config, profile_distance)
        return stats, None, time.perf_counter() - started

    from repro.obs import (
        LIFECYCLE_KINDS,
        EventBus,
        JsonlTraceWriter,
        MetricsAggregator,
    )

    if bus is None:
        bus = EventBus()
    aggregator = bus.attach(MetricsAggregator()) if emit_metrics else None
    writer = None
    if trace_file is not None:
        os.makedirs(os.path.dirname(trace_file) or ".", exist_ok=True)
        # Lifecycle kinds only: figure-scale runs stay compact, and the
        # filter needs no verbose (per-instruction) emission.
        writer = bus.attach(
            JsonlTraceWriter(trace_file, kinds=LIFECYCLE_KINDS), verbose=False
        )
    stats = build_core(name, spec, scale, config, profile_distance, bus=bus).run()
    if writer is not None:
        writer.close()
    metrics = aggregator.as_dict() if aggregator is not None else None
    return stats, metrics, time.perf_counter() - started


def execute_chunk(analysis_dir, scale, emit_metrics, chunk):
    """Worker entry point: run one chunk of cells, one pickle each way.

    ``chunk`` is a list of ``(name, spec, config, profile_distance,
    trace_file)`` tuples; the return value is the aligned list of
    ``(packed_stats, metrics, seconds)`` outcomes.  The disk-cache
    configuration is re-asserted per chunk because the warm pool
    outlives any single runner (whose cache directory may differ).
    """
    if analysis_dir is not None:
        configure_disk_cache(analysis_dir)
    results = []
    for name, spec, config, profile_distance, trace_file in chunk:
        stats, metrics, seconds = execute_job(
            name, spec, scale, config, profile_distance, emit_metrics, trace_file
        )
        results.append((pack_stats(stats), metrics, seconds))
    return results
