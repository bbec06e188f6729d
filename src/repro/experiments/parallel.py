"""Parallel experiment execution with an on-disk result cache.

The paper's evaluation sweeps 12 benchmarks across ~14 policy specs
plus a superscalar baseline — an embarrassingly parallel grid of
independent cycle-level simulations.  This module fans that grid out
through the batched grid scheduler of
:mod:`repro.experiments.scheduler`: grid cells are cost-estimated from
their committed-trace lengths, cheap cells run inline in the parent,
and the rest ship to a persistent warm worker pool as
longest-expected-first chunks (one pickle per chunk, compact stat
tuples back).

Results are also written to a content-addressed on-disk cache keyed by
``(workload, spec, scale, machine-config fingerprint, profile
distance)``, so repeated figure generation and CI smoke runs skip
simulations that already ran — under *any* runner, serial or parallel,
because both funnel through the same
:func:`~repro.experiments.runner.simulate_job`.

Parallel output is bit-identical to serial output: every simulation is
deterministic given its job key (workloads are built from seeded RNGs),
and results are merged into the same keyed memo the serial runner
reads, so table generation never depends on scheduling decisions or
completion order.
"""

import hashlib
import json
import os
import pickle
import tempfile
import time
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool

from repro.analysis.pipeline import configure_disk_cache
from repro.errors import ConfigurationError
from repro.experiments import scheduler
from repro.experiments.fabric.transport import (
    FabricWorkerDied,
    LocalPoolTransport,
    SubprocessWorkerTransport,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scheduler import execute_job
from repro.polyflow.config import config_fingerprint
from repro.spawn import canonical_spec

#: Bump to invalidate every existing cache entry (e.g. when the
#: simulator's timing model changes in a way the config cannot see).
#: v2: entries grew an optional per-spawn-point metrics snapshot.
#: v3: the block engine, event kernel and grid-batch runner were
#: removed; entries they wrote (some with wrong cycle counts) must
#: read as clean misses.
CACHE_FORMAT_VERSION = 3

#: Default cache directory used by the CLI (gitignored).
DEFAULT_CACHE_DIR = ".polyflow-cache"

#: Subdirectory of the cache directory holding persisted program
#: analyses (see :mod:`repro.analysis.pipeline`).
ANALYSIS_CACHE_SUBDIR = "analysis"


def job_digest(name, spec, scale, config, profile_distance):
    """Content address of one simulation job.

    Hashes every input that can change the resulting stats: workload
    name, policy spec, workload scale, the full machine configuration
    (via :func:`config_fingerprint`), the profiling distance, and the
    cache format version.
    """
    payload = json.dumps(
        {
            "version": CACHE_FORMAT_VERSION,
            "workload": name,
            "spec": canonical_spec(spec),
            "scale": repr(scale),
            "config": config_fingerprint(config),
            "profile_distance": profile_distance,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _pickle_loadable(data):
    try:
        pickle.loads(data)
    except Exception:
        return False
    return True


def sweep_entries(root, max_bytes=None, suffix=".pkl", verify=_pickle_loadable):
    """Size-capped LRU sweep of one sharded content-addressed tree.

    Walks the two-hex-character shard directories under ``root`` (the
    layout both :class:`ResultCache` and the fabric's shared store
    use), removing entries in two passes:

    1. **corrupt first** — every entry failing ``verify`` (an
       unreadable pickle, a store envelope with a digest mismatch) is
       pruned unconditionally;
    2. **oldest next** — while the surviving entries exceed
       ``max_bytes``, the least-recently-written (smallest mtime) are
       evicted.  ``max_bytes=None`` skips this pass.

    Emptied shard directories are removed.  Returns a report dict
    (``removed_corrupt``, ``removed_lru``, ``removed_bytes``,
    ``kept_entries``, ``kept_bytes``).
    """
    survivors = []
    removed_corrupt = removed_lru = removed_bytes = 0
    if os.path.isdir(root):
        for shard in sorted(os.listdir(root)):
            shard_path = os.path.join(root, shard)
            if len(shard) != 2 or not os.path.isdir(shard_path):
                continue
            for entry in sorted(os.listdir(shard_path)):
                if not entry.endswith(suffix):
                    continue
                path = os.path.join(shard_path, entry)
                try:
                    status = os.stat(path)
                    with open(path, "rb") as handle:
                        ok = verify(handle.read())
                except OSError:
                    continue
                if not ok:
                    os.unlink(path)
                    removed_corrupt += 1
                    removed_bytes += status.st_size
                else:
                    survivors.append((status.st_mtime, path, status.st_size))
    if max_bytes is not None:
        survivors.sort()
        total = sum(size for _, _, size in survivors)
        evicted = 0
        while survivors and total > max_bytes:
            _, path, size = survivors[evicted]
            try:
                os.unlink(path)
            except OSError:
                pass
            total -= size
            removed_lru += 1
            removed_bytes += size
            evicted += 1
        survivors = survivors[evicted:]
    if os.path.isdir(root):
        for shard in os.listdir(root):
            shard_path = os.path.join(root, shard)
            if len(shard) == 2 and os.path.isdir(shard_path):
                try:
                    os.rmdir(shard_path)
                except OSError:
                    pass
    return {
        "removed_corrupt": removed_corrupt,
        "removed_lru": removed_lru,
        "removed_bytes": removed_bytes,
        "kept_entries": len(survivors),
        "kept_bytes": sum(size for _, _, size in survivors),
    }


class ResultCache:
    """Content-addressed on-disk store of pickled simulation stats.

    Entries are sharded by the first two digest characters.  Writes go
    through a temporary file plus :func:`os.replace`, so concurrent
    runs sharing a cache directory never observe torn entries.

    Lookups distinguish a *clean* miss (no entry on disk, counted in
    ``misses``) from a *corrupt* one (present but unreadable, counted
    in ``corrupt`` and listed in ``corrupt_paths``): both re-simulate,
    but a corrupt entry means something damaged the cache and is
    surfaced in the run summary rather than silently absorbed.
    """

    def __init__(self, root):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.corrupt_paths = []
        self.stores = 0

    def path(self, digest):
        return os.path.join(self.root, digest[:2], digest + ".pkl")

    def load(self, digest):
        """The cached ``(stats, metrics)`` for ``digest``, or ``None``.

        ``metrics`` is the per-spawn-point aggregator snapshot if the
        entry was produced by a metrics-emitting run, else ``None``.
        A missing entry is a clean miss; an entry that exists but
        cannot be unpickled (truncated, garbage, or raising an
        arbitrary exception type) is counted as corrupt.  Either way
        the caller re-simulates and overwrites it.
        """
        path = self.path(digest)
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            self.misses += 1
            return None
        try:
            with handle:
                entry = pickle.load(handle)
            stats = entry["stats"]
            metrics = entry.get("metrics")
        except Exception:
            self.corrupt += 1
            self.corrupt_paths.append(path)
            return None
        self.hits += 1
        return stats, metrics

    def store(self, digest, stats, meta, metrics=None):
        """Atomically persist ``stats`` (with a metadata header and an
        optional metrics snapshot) under ``digest``."""
        path = self.path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        handle, temp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(
                    {"meta": meta, "stats": stats, "metrics": metrics}, stream
                )
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self.stores += 1

    def __len__(self):
        if not os.path.isdir(self.root):
            return 0
        count = 0
        for shard in os.listdir(self.root):
            shard_path = os.path.join(self.root, shard)
            if os.path.isdir(shard_path):
                count += sum(
                    1 for entry in os.listdir(shard_path) if entry.endswith(".pkl")
                )
        return count

    def gc(self, max_bytes=None):
        """Size-capped LRU sweep: corrupt entries first, oldest next.

        Caches grow unbounded across sweeps; long-lived fabric stores
        and CI caches call this (or the ``cache-gc`` CLI) to stay
        under a byte budget.  Eviction is mtime-based — entries are
        content-addressed and immutable, so write time is the recency
        signal.  Only the two-hex-shard entry tree is touched; the
        ``analysis/`` subdirectory living alongside it is not.
        """
        return sweep_entries(self.root, max_bytes)


class RunSummary:
    """Where the time went: jobs simulated, cache hits, wall clock.

    When metrics emission is enabled the per-job aggregator snapshots
    shipped back from the workers are collected here too, so one
    summary object carries everything a run produced besides the
    stats themselves.  Scheduling telemetry (inline cells, chunks
    shipped, pool workers) and corrupt cache entries accumulate here
    as well and show up in :meth:`render`.
    """

    def __init__(self):
        self.jobs_run = 0
        self.cache_hits = 0
        #: ``[(workload, spec, seconds), ...]`` for every simulation run.
        self.job_timings = []
        self.wall_seconds = 0.0
        #: ``{spec: [aggregator snapshot, ...]}`` from metrics-emitting runs.
        self.metrics_snapshots = {}
        #: Cells the scheduler ran inline in the parent.
        self.inline_jobs = 0
        #: Chunks shipped to the worker pool.
        self.chunks_shipped = 0
        #: Worker count of the largest pool this summary used.
        self.pool_workers = 0
        #: Corrupt cache entries encountered (re-simulated, but surfaced).
        self.corrupt_entries = []
        #: Warm-pool restarts after a ``BrokenProcessPool`` (each one is
        #: an incident: a worker died and the grid was retried).
        self.pool_restarts = 0
        #: Cells answered from the analytic estimator alone — no
        #: simulation ran, the consumer saw ``source=estimated``.
        self.estimated_cells = 0
        #: Fabric telemetry: placement, store traffic, incidents.
        #: Flat numerics only (the service merges summaries by summing
        #: one dict level); per-worker vectors live in
        #: :attr:`fabric_placement` for rendering and tests.
        self.fabric = {
            "workers": 0,
            "chunks": 0,
            "cells": 0,
            "store_cells": 0,
            "replanned_cells": 0,
            "restarts": 0,
            "straggler_seconds": 0.0,
            "store_fetches": 0,
            "store_hits": 0,
            "store_misses": 0,
            "store_publishes": 0,
            "store_local_hits": 0,
            "store_corrupt_rejected": 0,
        }
        #: The latest transport placement snapshot (per-worker cell and
        #: wall-clock vectors; not part of :meth:`as_dict`).
        self.fabric_placement = None

    def record_job(self, name, spec, seconds):
        self.jobs_run += 1
        self.job_timings.append((name, spec, seconds))

    def record_hit(self):
        self.cache_hits += 1

    def record_corrupt(self, path):
        """Note one unreadable cache entry (it will be re-simulated).

        The same entry can be probed twice before the re-simulation
        overwrites it (prefetch's parent-side load, then the serial
        fallback's), so paths are deduplicated.
        """
        if path not in self.corrupt_entries:
            self.corrupt_entries.append(path)

    def record_pool_restart(self):
        """Note one dead-pool incident (the pool was torn down)."""
        self.pool_restarts += 1

    def record_estimated(self, count=1):
        """Note cells served analytically (``source=estimated``)."""
        self.estimated_cells += count

    def record_fabric_schedule(self, workers, chunks, cells):
        """Accumulate one fabric dispatch's shape."""
        self.fabric["workers"] = max(self.fabric["workers"], workers)
        self.fabric["chunks"] += chunks
        self.fabric["cells"] += cells

    def record_fabric_store_cells(self, count):
        """Note ``count`` cells answered from the shared store."""
        self.fabric["store_cells"] += count

    def record_fabric_replan(self, cells):
        """Note one dead-worker incident and the cells it replanned."""
        self.fabric["restarts"] += 1
        self.fabric["replanned_cells"] += cells

    def record_fabric_placement(self, placement):
        """Absorb one transport placement snapshot (straggler wall,
        per-worker vectors for :meth:`render`)."""
        self.fabric_placement = placement
        self.fabric["straggler_seconds"] = max(
            self.fabric["straggler_seconds"],
            placement.get("straggler_seconds", 0.0),
        )

    def set_fabric_store(self, stats):
        """Overwrite the store counters with a cumulative snapshot.

        Store objects count cumulatively across a run, so the latest
        snapshot *is* the total — adding would double-book.
        """
        for key, value in stats.items():
            self.fabric["store_" + key] = value

    def record_schedule(self, plan):
        """Accumulate one :class:`~repro.experiments.scheduler.GridSchedule`."""
        self.inline_jobs += len(plan.inline)
        self.chunks_shipped += len(plan.chunks)
        self.pool_workers = max(self.pool_workers, plan.workers)

    def record_metrics(self, spec, snapshot):
        """Collect one worker's aggregator snapshot under its policy spec."""
        self.metrics_snapshots.setdefault(spec, []).append(snapshot)

    def merged_metrics(self):
        """Per-policy merged attribution metrics (``{spec: snapshot}``)."""
        from repro.obs import merge_metrics

        return {
            spec: merge_metrics(snapshots)
            for spec, snapshots in sorted(self.metrics_snapshots.items())
        }

    @property
    def total_sim_seconds(self):
        """Summed per-job simulation time (exceeds wall time when
        jobs overlap across workers)."""
        return sum(seconds for _, _, seconds in self.job_timings)

    def as_dict(self):
        """Every counter as structured fields (JSON-able).

        The stderr :meth:`render` is for humans; this is the machine
        surface the exploration service's ``/healthz`` endpoint and the
        fault-injection tests assert on.  Incidents — corrupt cache
        entries and pool restarts — are first-class fields here, not
        just lines in the rendered summary.
        """
        return {
            "jobs_run": self.jobs_run,
            "cache_hits": self.cache_hits,
            "inline_jobs": self.inline_jobs,
            "chunks_shipped": self.chunks_shipped,
            "pool_workers": self.pool_workers,
            "pool_restarts": self.pool_restarts,
            "corrupt_cache_entries": len(self.corrupt_entries),
            "corrupt_cache_paths": list(self.corrupt_entries),
            "estimated_cells": self.estimated_cells,
            "fabric": dict(self.fabric),
            "wall_seconds": self.wall_seconds,
            "total_sim_seconds": self.total_sim_seconds,
        }

    def slowest(self, count=5):
        """The ``count`` slowest jobs, slowest first."""
        return sorted(self.job_timings, key=lambda item: -item[2])[:count]

    def render(self):
        lines = [
            "run summary: {} simulated, {} cache hits, "
            "{:.1f}s total sim time, {:.1f}s wall".format(
                self.jobs_run,
                self.cache_hits,
                self.total_sim_seconds,
                self.wall_seconds,
            )
        ]
        if self.jobs_run:
            lines.append(
                "  schedule: {} inline, {} chunks across {} pool workers".format(
                    self.inline_jobs, self.chunks_shipped, self.pool_workers
                )
            )
        if self.estimated_cells:
            lines.append(
                "  estimator: {} cells served analytically (no simulation)".format(
                    self.estimated_cells
                )
            )
        if self.pool_restarts:
            lines.append(
                "  {} worker-pool restart(s) after dead workers".format(
                    self.pool_restarts
                )
            )
        if self.fabric["cells"]:
            lines.append(
                "  fabric: {} cells in {} chunks across {} workers "
                "({} from store), straggler {:.1f}s".format(
                    self.fabric["cells"],
                    self.fabric["chunks"],
                    self.fabric["workers"],
                    self.fabric["store_cells"],
                    self.fabric["straggler_seconds"],
                )
            )
            if self.fabric_placement:
                lines.append(
                    "    cells by worker: {}".format(
                        self.fabric_placement.get("cells_by_worker")
                    )
                )
        if self.fabric["store_fetches"] or self.fabric["store_publishes"]:
            lines.append(
                "  fabric store: {} hits / {} misses, {} published, "
                "{} local hits, {} corrupt rejected".format(
                    self.fabric["store_hits"],
                    self.fabric["store_misses"],
                    self.fabric["store_publishes"],
                    self.fabric["store_local_hits"],
                    self.fabric["store_corrupt_rejected"],
                )
            )
        if self.fabric.get("worker_store_fetches") or self.fabric.get(
            "worker_store_publishes"
        ):
            lines.append(
                "  worker store traffic: {} hits / {} misses, "
                "{} published".format(
                    self.fabric.get("worker_store_hits", 0),
                    self.fabric.get("worker_store_misses", 0),
                    self.fabric.get("worker_store_publishes", 0),
                )
            )
        if self.fabric["restarts"]:
            lines.append(
                "  {} fabric worker restart(s); {} cells replanned".format(
                    self.fabric["restarts"], self.fabric["replanned_cells"]
                )
            )
        if self.corrupt_entries:
            lines.append(
                "  {} corrupt cache entries re-simulated:".format(
                    len(self.corrupt_entries)
                )
            )
            for path in self.corrupt_entries[:5]:
                lines.append("    {}".format(path))
        for name, spec, seconds in self.slowest():
            lines.append("  {:>6.1f}s  {} / {}".format(seconds, name, spec))
        return "\n".join(lines)


def trace_path(trace_dir, name, spec, digest):
    """The lifecycle-trace filename for one job under ``--trace-dir``.

    The digest prefix disambiguates identical (workload, spec) pairs
    run under different machine configurations (the ablation sweeps).
    """
    filename = "{}.{}.{}.events.jsonl".format(
        name, canonical_spec(spec).replace("/", "_"), digest[:8]
    )
    return os.path.join(trace_dir, filename)


class ParallelExperimentRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` with a grid scheduler and disk cache.

    With ``jobs=1`` and no cache directory it behaves exactly like the
    serial runner (no pool is ever touched).  ``prefetch`` is where the
    parallelism lives; the individual accessors (``baseline``,
    ``run_policy`` …) stay serial but consult the disk cache.

    Scheduler knobs: ``chunk`` caps grid cells per pool chunk (``None``
    sizes chunks by estimated cost), ``schedule`` picks cost-ordered or
    FIFO chunking, ``inline_threshold`` is the trace-length floor below
    which a cell runs inline in the parent, and ``cpus`` overrides CPU
    detection (tests force the pool path on single-core machines).
    """

    def __init__(
        self,
        scale=1.0,
        config=None,
        workload_names=None,
        jobs=1,
        cache_dir=None,
        emit_metrics=False,
        trace_dir=None,
        chunk=None,
        schedule=scheduler.SCHEDULE_COST,
        inline_threshold=None,
        cpus=None,
        pool_retries=1,
        fabric_workers=0,
        fabric_store=None,
        fabric_transport="subprocess",
        fabric_command=None,
        fabric_chunk_timeout=None,
        fabric_throughputs=None,
        fabric_extra_env=None,
    ):
        keyword_arguments = {}
        if config is not None:
            keyword_arguments["config"] = config
        if workload_names is not None:
            keyword_arguments["workload_names"] = workload_names
        super().__init__(scale=scale, **keyword_arguments)
        if schedule not in scheduler.SCHEDULES:
            raise ConfigurationError(
                "unknown schedule {!r}; choose from {}".format(
                    schedule, scheduler.SCHEDULES
                )
            )
        self.jobs = max(1, int(jobs))
        self.chunk = chunk
        self.schedule = schedule
        self.inline_threshold = (
            scheduler.INLINE_COST_THRESHOLD
            if inline_threshold is None
            else inline_threshold
        )
        #: The fabric's inline floor.  The warm-pool threshold guards
        #: against fork/pickle overhead swamping cheap cells on *this*
        #: machine; fabric workers are explicitly provisioned capacity,
        #: so by default every pooled cell ships (callers that pass
        #: ``inline_threshold`` keep their floor on both paths).
        self.fabric_inline_threshold = (
            0 if inline_threshold is None else inline_threshold
        )
        self.cpus = cpus
        #: Times a grid is retried after a ``BrokenProcessPool`` (each
        #: retry starts a fresh pool and replans only unfinished cells).
        self.pool_retries = max(0, int(pool_retries))
        self.cache = ResultCache(cache_dir) if cache_dir else None
        #: Where persisted program analyses live; enables the shared
        #: analysis cache's disk layer in this process and in workers.
        self.analysis_dir = (
            os.path.join(cache_dir, ANALYSIS_CACHE_SUBDIR) if cache_dir else None
        )
        if self.analysis_dir is not None:
            configure_disk_cache(self.analysis_dir)
        self.summary = RunSummary()
        #: Attach a verbose MetricsAggregator to every simulation and
        #: collect the per-policy snapshots in :attr:`summary`.
        self.emit_metrics = bool(emit_metrics)
        #: Write a compact lifecycle-events JSONL per simulation here.
        self.trace_dir = trace_dir
        #: Fabric executors for pooled chunks (0 = the classic local
        #: warm-pool path).  Unlike ``jobs``, this is *not* capped at
        #: the local CPU count — fabric workers may be other machines.
        self.fabric_workers = max(0, int(fabric_workers))
        if fabric_transport not in ("subprocess", "local"):
            raise ConfigurationError(
                "unknown fabric transport {!r}; choose 'subprocess' or "
                "'local'".format(fabric_transport)
            )
        if self.fabric_workers and (self.emit_metrics or trace_dir is not None):
            raise ConfigurationError(
                "the fabric ships plain cells only; metrics emission and "
                "trace files keep the local warm-pool path (drop "
                "--fabric-workers or the instrumentation flag)"
            )
        self.fabric_transport = fabric_transport
        self.fabric_command = fabric_command
        self.fabric_chunk_timeout = fabric_chunk_timeout
        self.fabric_throughputs = fabric_throughputs
        self.fabric_extra_env = fabric_extra_env
        if isinstance(fabric_store, str):
            from repro.experiments.fabric.store import SharedStore

            fabric_store = SharedStore(fabric_store)
        #: The shared content-addressed artifact store (or ``None``).
        #: Read through in the parent (see :meth:`_load_cached`) and
        #: passed to fabric workers for fetch/publish.
        self.fabric_store = fabric_store
        self._fabric = None

    # -- cache plumbing -----------------------------------------------------------

    def _job_digest(self, name, spec, config, profile_distance):
        return job_digest(name, spec, self.scale, config, profile_distance)

    def _job_label(self, spec, config):
        """Spec label for the run summary; swept configurations (the
        ablations) are disambiguated by their fingerprint."""
        fingerprint = config_fingerprint(config)
        if fingerprint == config_fingerprint(self.config):
            return spec
        return "{} @{}".format(spec, fingerprint[:6])

    def _job_meta(self, name, spec, config, profile_distance):
        return {
            "workload": name,
            "spec": spec,
            "scale": self.scale,
            "config_fingerprint": config_fingerprint(config),
            "profile_distance": profile_distance,
            "version": CACHE_FORMAT_VERSION,
        }

    def _trace_file(self, name, spec, config, profile_distance):
        if self.trace_dir is None:
            return None
        digest = self._job_digest(name, spec, config, profile_distance)
        return trace_path(self.trace_dir, name, spec, digest)

    def _load_cached(self, name, spec, config, profile_distance):
        """Usable cached stats, or ``None`` when the job must run.

        A hit is unusable when the run must produce side channels the
        cache cannot replay: a requested trace file, or metrics the
        entry does not carry.  Metrics a usable hit *does* carry flow
        into the run summary exactly as a fresh simulation's would.
        """
        if self.trace_dir is not None:
            return None
        if self.cache is None and self.fabric_store is None:
            return None
        digest = self._job_digest(name, spec, config, profile_distance)
        if self.cache is not None:
            corrupt_before = self.cache.corrupt
            entry = self.cache.load(digest)
            if self.cache.corrupt > corrupt_before:
                self.summary.record_corrupt(self.cache.path(digest))
            if entry is not None:
                stats, metrics = entry
                if self.emit_metrics and not metrics:
                    return None
                self.summary.record_hit()
                if self.emit_metrics:
                    self.summary.record_metrics(
                        self._job_label(spec, config), metrics
                    )
                return stats
        # Shared-store read-through: a digest-verified artifact some
        # other fabric participant published.  Mirrored into the local
        # result cache so the next run hits tier 1.
        if self.fabric_store is not None and not self.emit_metrics:
            from repro.experiments.fabric.store import decode_entry

            body = self.fabric_store.fetch(digest)
            if body is not None:
                try:
                    stats, metrics = decode_entry(body)
                except Exception:
                    self.fabric_store.corrupt_rejected += 1
                    return None
                self.summary.record_fabric_store_cells(1)
                if self.cache is not None:
                    self.cache.store(
                        digest,
                        stats,
                        self._job_meta(name, spec, config, profile_distance),
                        metrics=metrics,
                    )
                return stats
        return None

    def _store_cached(self, name, spec, config, profile_distance, stats, metrics=None):
        if self.cache is None and self.fabric_store is None:
            return
        digest = self._job_digest(name, spec, config, profile_distance)
        meta = self._job_meta(name, spec, config, profile_distance)
        if self.cache is not None:
            self.cache.store(digest, stats, meta, metrics=metrics)
        # Publish fresh results to the shared store so other fabric
        # participants reuse them; subprocess workers already published
        # theirs, which the ``contains`` probe skips.
        if self.fabric_store is not None and not self.fabric_store.contains(
            digest
        ):
            from repro.experiments.fabric.store import entry_body

            self.fabric_store.publish(
                digest, entry_body(stats, meta, metrics=metrics)
            )

    def _record_result(self, name, spec, config, profile_distance, outcome):
        """Book one finished simulation: summary, metrics, disk cache."""
        stats, metrics, seconds = outcome
        self.summary.record_job(name, self._job_label(spec, config), seconds)
        if metrics is not None:
            self.summary.record_metrics(self._job_label(spec, config), metrics)
        self._store_cached(name, spec, config, profile_distance, stats, metrics)
        return stats

    def _job_bus(self, name, spec, config):
        """Optional per-job :class:`~repro.obs.EventBus` for *inline*
        simulations.

        The base runner attaches nothing; the exploration service's
        runner overrides this to bridge lifecycle events into its
        progress journal.  A returned bus must be fresh per call and
        non-verbose, so runs skip per-instruction event construction
        and the stats stay identical.
        """
        return None

    def _simulate(self, name, spec, config, profile_distance):
        stats = self._load_cached(name, spec, config, profile_distance)
        if stats is not None:
            return stats
        outcome = execute_job(
            name,
            spec,
            self.scale,
            config,
            profile_distance,
            emit_metrics=self.emit_metrics,
            trace_file=self._trace_file(name, spec, config, profile_distance),
            bus=self._job_bus(name, spec, config),
        )
        return self._record_result(name, spec, config, profile_distance, outcome)

    # -- fan-out ------------------------------------------------------------------

    def prefetch(self, jobs):
        """Materialize every job's stats through the grid scheduler.

        Disk-cached results are loaded in the parent; only genuinely
        missing simulations are scheduled — cheap ones inline, the
        rest as cost-ordered chunks on the warm worker pool.  Results
        land in the same keyed memo the serial path reads, so
        downstream table generation is identical regardless of
        scheduling decisions or completion order.  Returns the number
        of simulations actually run.
        """
        started = time.perf_counter()
        pending = []
        for name, spec, config, profile_distance in self.normalize_jobs(jobs):
            stats = self._load_cached(name, spec, config, profile_distance)
            if stats is not None:
                key = self._result_key(name, spec, config, profile_distance)
                self._results[key] = stats
            else:
                pending.append((name, spec, config, profile_distance))

        if not pending:
            if self.fabric_store is not None:
                self.summary.set_fabric_store(self.fabric_store.stats())
            self.summary.wall_seconds += time.perf_counter() - started
            return 0

        if len(pending) == 1:
            for name, spec, config, profile_distance in pending:
                self.run_with_config(name, spec, config, profile_distance)
        else:
            # Multi-cell grids always go through the scheduler: with
            # ``jobs=1`` the plan is all-inline (no pool is touched).
            self._fan_out(pending)
        if self.fabric_store is not None:
            self.summary.set_fabric_store(self.fabric_store.stats())
        self.summary.wall_seconds += time.perf_counter() - started
        return len(pending)

    def _fan_out(self, pending):
        """Schedule ``pending`` cells, restarting a broken worker pool.

        A worker death poisons the whole persistent pool
        (``BrokenProcessPool``); instead of failing the grid, the dead
        pool is torn down, the incident is counted on the summary
        (:attr:`RunSummary.pool_restarts`), and the still-unfinished
        cells are replanned onto a fresh pool up to ``pool_retries``
        times before the error propagates.
        """
        remaining = list(pending)
        retries = self.pool_retries
        while True:
            try:
                self._dispatch(remaining)
                return
            except BrokenProcessPool:
                # A dead worker poisons the persistent pool; drop it so
                # the next attempt (or the next grid) starts fresh.
                scheduler.shutdown_pool()
                self.summary.record_pool_restart()
                if retries <= 0:
                    raise
                retries -= 1
                remaining = [
                    job
                    for job in remaining
                    if self._result_key(*job) not in self._results
                ]
                if not remaining:
                    return
            except FabricWorkerDied as incident:
                # Same contract over the fabric: tear the worker fleet
                # down, keep every result already booked, and replan
                # only the cells whose outcomes never arrived.
                self.shutdown_fabric()
                remaining = [
                    job
                    for job in remaining
                    if self._result_key(*job) not in self._results
                ]
                self.summary.record_fabric_replan(len(remaining))
                self._fabric_event(
                    "worker_died",
                    worker=incident.worker,
                    replanned_cells=len(remaining),
                )
                if retries <= 0:
                    raise
                retries -= 1
                if not remaining:
                    return

    def _dispatch(self, pending):
        """One scheduling attempt, routed to the fabric or the pool."""
        if self.fabric_workers:
            return self._dispatch_fabric(pending)
        return self._dispatch_pool(pending)

    # -- fabric path --------------------------------------------------------------

    def _fabric_event(self, kind, **fields):
        """Optional fabric telemetry hook.

        The base runner drops the event; the exploration service's
        runner overrides this to publish ``fabric.*`` events into its
        progress journal.
        """

    def _ensure_fabric(self):
        if self._fabric is None:
            if self.fabric_transport == "local":
                self._fabric = LocalPoolTransport(
                    self.fabric_workers, analysis_dir=self.analysis_dir
                )
            else:
                keyword_arguments = {}
                if self.fabric_chunk_timeout is not None:
                    keyword_arguments["chunk_timeout"] = self.fabric_chunk_timeout
                self._fabric = SubprocessWorkerTransport(
                    self.fabric_workers,
                    store_root=(
                        self.fabric_store.root
                        if self.fabric_store is not None
                        else None
                    ),
                    analysis_dir=self.analysis_dir,
                    command_template=self.fabric_command,
                    throughputs=self.fabric_throughputs,
                    extra_env=self.fabric_extra_env,
                    **keyword_arguments,
                )
        return self._fabric

    def shutdown_fabric(self):
        """Tear the fabric transport down (retries recreate it)."""
        if self._fabric is not None:
            self._fabric.close()
            self._fabric = None

    def warm_fabric(self):
        """Spawn the fabric fleet ahead of the first dispatch.

        Subprocess workers pay interpreter startup and handshake once;
        warming moves that out of the first grid's wall clock (the
        benchmark harness uses it to time steady-state dispatch).
        """
        if not self.fabric_workers:
            return
        transport = self._ensure_fabric()
        ensure = getattr(transport, "ensure_workers", None)
        if ensure is not None:
            ensure()

    def _dispatch_fabric(self, pending):
        """One fabric scheduling attempt: inline split + sharded chunks.

        Costing probes the shared store (tier 2 of
        :func:`~repro.experiments.scheduler.job_cost`), so store-held
        cells are priced as fetches.  Cheap cells still run inline in
        the parent; the rest are chunked exactly as on the pool path
        and sharded across fabric workers by the transport.  Results
        are booked as they stream back, so a mid-grid worker death
        loses only the outcomes that never arrived.
        """
        store = self.fabric_store
        costs = []
        for name, spec, config, profile_distance in pending:
            digest = (
                self._job_digest(name, spec, config, profile_distance)
                if store is not None
                else None
            )
            costs.append(
                scheduler.job_cost(name, self.scale, store=store, digest=digest)
            )
        inline, pooled, pooled_costs = scheduler.split_inline(
            pending, costs, self.fabric_workers, self.fabric_inline_threshold
        )
        chunks = scheduler.plan_chunks(
            pooled, pooled_costs, self.fabric_workers, self.chunk, self.schedule
        )
        self.summary.inline_jobs += len(inline)
        self.summary.record_fabric_schedule(
            self.fabric_workers if chunks else 0,
            len(chunks),
            sum(len(chunk) for chunk in chunks),
        )
        self._run_inline(inline)
        if not chunks:
            return
        cost_lookup = {
            self._result_key(*job): cost for job, cost in zip(pending, costs)
        }
        chunk_costs = [
            sum(cost_lookup[self._result_key(*job)] for job in chunk)
            for chunk in chunks
        ]
        transport = self._ensure_fabric()
        for index, outcomes in transport.execute(self.scale, chunks, chunk_costs):
            self._book_fabric_chunk(chunks[index], outcomes)
        placement = transport.placement()
        self.summary.record_fabric_placement(placement)
        for key, value in (placement.get("worker_store") or {}).items():
            self.summary.fabric["worker_store_" + key] = value
        self._fabric_event(
            "placement",
            workers=placement.get("workers"),
            cells_by_worker=placement.get("cells_by_worker"),
            straggler_seconds=placement.get("straggler_seconds"),
        )

    def _book_fabric_chunk(self, chunk, outcomes):
        """Book one fabric chunk's outcomes into the memo and caches."""
        for job, (packed, seconds, source) in zip(chunk, outcomes):
            name, spec, config, profile_distance = job
            stats = scheduler.unpack_stats(packed)
            key = self._result_key(name, spec, config, profile_distance)
            if source == "store":
                # A worker answered from the shared store: no
                # simulation ran, so no job is booked — but the entry
                # is mirrored into the local result cache.
                self.summary.record_fabric_store_cells(1)
                if self.cache is not None:
                    self.cache.store(
                        stats=stats,
                        digest=self._job_digest(
                            name, spec, config, profile_distance
                        ),
                        meta=self._job_meta(name, spec, config, profile_distance),
                    )
                self._results[key] = stats
            else:
                self._results[key] = self._record_result(
                    name,
                    spec,
                    config,
                    profile_distance,
                    (stats, None, seconds),
                )

    # -- pool path ----------------------------------------------------------------

    def _dispatch_pool(self, pending):
        """One scheduling attempt: inline short-circuit + warm pool.

        Costing a cell peeks the analysis cache and falls back to the
        closed-form length estimator for synthesized scenarios, so a
        cold catalog grid is planned without preparing every cell in
        the parent; workloads a fork-start pool needs are prepared by
        its initializer instead.
        """
        costs = [scheduler.job_cost(name, self.scale) for name, _, _, _ in pending]
        plan = scheduler.plan_grid(
            pending,
            costs,
            self.jobs,
            max_chunk_jobs=self.chunk,
            schedule=self.schedule,
            inline_threshold=self.inline_threshold,
            cpus=self.cpus,
        )
        self.summary.record_schedule(plan)

        self._run_inline(plan.inline)
        if not plan.chunks:
            return

        warmup = sorted({name for chunk in plan.chunks for name, _, _, _ in chunk})
        pool = scheduler.warm_pool(
            plan.workers,
            analysis_dir=self.analysis_dir,
            warmup=[(name, self.scale) for name in warmup],
        )
        futures = {}
        for chunk in plan.chunks:
            payload = [
                (
                    name,
                    spec,
                    config,
                    profile_distance,
                    self._trace_file(name, spec, config, profile_distance),
                )
                for name, spec, config, profile_distance in chunk
            ]
            future = pool.submit(
                scheduler.execute_chunk,
                self.analysis_dir,
                self.scale,
                self.emit_metrics,
                payload,
            )
            futures[future] = chunk
        # A BrokenProcessPool raised by any future propagates to
        # ``_fan_out``, which tears the pool down and retries the
        # unfinished cells; results booked before the break are kept.
        for future in as_completed(futures):
            chunk = futures[future]
            for job, (packed, metrics, seconds) in zip(
                chunk, future.result()
            ):
                name, spec, config, profile_distance = job
                stats = scheduler.unpack_stats(packed)
                key = self._result_key(name, spec, config, profile_distance)
                self._results[key] = self._record_result(
                    name,
                    spec,
                    config,
                    profile_distance,
                    (stats, metrics, seconds),
                )

    def _run_inline(self, inline_jobs):
        """Run the plan's inline cells one by one in the parent."""
        for name, spec, config, profile_distance in inline_jobs:
            self.run_with_config(name, spec, config, profile_distance)
