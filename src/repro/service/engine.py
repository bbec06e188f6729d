"""The exploration engine: batched grids over shared hot caches.

One :class:`ExplorationEngine` owns the service's entire simulation
state: a :class:`~repro.experiments.parallel.ParallelExperimentRunner`
per workload scale (all sharing one on-disk result/analysis cache
directory and the process-wide warm worker pool), plus the counters
``/healthz`` reports.  The batch executor thread calls
:meth:`execute_batch` with one admission batch at a time, so runner
state is never touched concurrently.

Execution of a batch is tiered, cheapest first:

1. **Memo** — cells already in a runner's in-memory result memo are
   answered immediately (the always-on process *is* the hot cache).
2. **Disk cache** — content-addressed ``ResultCache`` hits are loaded
   in the parent, never touching the pool.
3. **Simulation** — only genuinely missing cells reach
   ``prefetch``, which cost-schedules them inline or onto the warm
   worker pool.  Duplicate cells across the batch's queries collapse
   to one simulation.

Fault handling is two-layered: the parallel runner itself retries a
broken worker pool once (restarting the pool), and if a *batch-level*
prefetch still fails, the engine degrades to per-cell inline execution
so one poisoned cell (or a dead pool) cannot fail unrelated queries in
the same batch.  Every incident is surfaced as a structured
``RunSummary`` field and an ``incident`` progress event.
"""

import os
import threading
import time

from repro.experiments import scheduler
from repro.experiments.parallel import ParallelExperimentRunner
from repro.obs import EventBus, CallbackSink, fabric_event, service_event
from repro.service import wire

#: Per-simulation cap on bridged lifecycle events.  Inline simulations
#: stream their bus lifecycle events into the journal; past the cap a
#: single ``sim.truncated`` marker is published instead, keeping the
#: /events stream bounded for long workloads.
DEFAULT_SIM_EVENT_LIMIT = 64


class _ServiceRunner(ParallelExperimentRunner):
    """A parallel runner that bridges inline-simulation bus events.

    The ``_job_bus`` hook gives every *inline* simulation a fresh
    non-verbose :class:`EventBus` whose lifecycle events are forwarded
    (bounded, cell-tagged) into the service journal.  Pooled chunks run
    in worker processes and are reported at chunk granularity instead.
    A non-verbose bridge keeps ``bus.verbose`` False, so the stats
    are untouched.
    """

    def __init__(self, *args, journal=None, sim_event_limit=0, **kwargs):
        super().__init__(*args, **kwargs)
        self._journal = journal
        self._sim_event_limit = sim_event_limit

    def _job_bus(self, name, spec, config):
        if self._journal is None or self._sim_event_limit <= 0:
            return None
        bus = EventBus()
        budget = [self._sim_event_limit]

        def forward(event):
            if budget[0] == 0:
                return
            budget[0] -= 1
            payload = event.as_dict()
            if budget[0] == 0:
                payload = service_event(
                    "sim.truncated",
                    workload=name,
                    spec=spec,
                    limit=self._sim_event_limit,
                )
            else:
                payload = dict(payload)
                payload["kind"] = "sim." + payload["kind"]
                payload["workload"] = name
                payload["spec"] = spec
            self._journal.publish(payload)

        bus.attach(CallbackSink(forward), verbose=False)
        return bus

    def _fabric_event(self, kind, **fields):
        """Bridge fabric placement/incident telemetry into the journal."""
        if self._journal is not None:
            self._journal.publish(fabric_event(kind, **fields))


def merge_summary_dicts(summaries):
    """Sum a list of ``RunSummary.as_dict()`` payloads into one."""
    merged = {}
    for summary in summaries:
        for key, value in summary.items():
            if isinstance(value, (int, float)):
                if key == "pool_workers":
                    merged[key] = max(merged.get(key, 0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
            elif isinstance(value, list):
                merged.setdefault(key, []).extend(value)
            elif isinstance(value, dict):
                bucket = merged.setdefault(key, {})
                for inner, count in value.items():
                    bucket[inner] = bucket.get(inner, 0) + count
    return merged


class ExplorationEngine:
    """Owns the per-scale runner fleet and executes admission batches."""

    def __init__(
        self,
        jobs=1,
        cache_dir=None,
        chunk=None,
        schedule=scheduler.SCHEDULE_COST,
        inline_threshold=None,
        cpus=None,
        journal=None,
        sim_event_limit=DEFAULT_SIM_EVENT_LIMIT,
        fabric_workers=0,
        fabric_store=None,
        fabric_transport="subprocess",
    ):
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.chunk = chunk
        self.schedule = schedule
        self.inline_threshold = inline_threshold
        self.cpus = cpus
        self.journal = journal
        self.sim_event_limit = sim_event_limit
        #: Fabric knobs, forwarded verbatim to every scale runner: the
        #: engine can target worker subprocesses and a shared artifact
        #: store instead of (only) the local warm pool.
        self.fabric_workers = fabric_workers
        self.fabric_store = fabric_store
        self.fabric_transport = fabric_transport
        self._runners = {}
        self._lock = threading.Lock()
        #: Batch/query/cell telemetry for ``/healthz``.
        self.batches_executed = 0
        self.queries_served = 0
        self.queries_failed = 0
        self.cells_served = 0
        self.cells_deduped = 0
        #: Unique per-batch cell outcomes by source; duplicates of a
        #: cell *within* one batch collapse to a single outcome, so the
        #: counts total ``cells_served - cells_deduped`` (the work the
        #: engine actually performed, not the answers it handed out).
        self.cells_by_source = {
            wire.SOURCE_MEMO: 0,
            wire.SOURCE_CACHE: 0,
            wire.SOURCE_SIMULATED: 0,
            wire.SOURCE_ESTIMATED: 0,
            wire.SOURCE_ERROR: 0,
        }
        self.batches_degraded = 0

    def _publish(self, event):
        if self.journal is not None:
            self.journal.publish(event)

    def runner_for(self, scale):
        """The (created-on-demand) runner serving ``scale``."""
        with self._lock:
            runner = self._runners.get(scale)
            if runner is None:
                runner = _ServiceRunner(
                    scale=scale,
                    jobs=self.jobs,
                    cache_dir=self.cache_dir,
                    chunk=self.chunk,
                    schedule=self.schedule,
                    inline_threshold=self.inline_threshold,
                    cpus=self.cpus,
                    journal=self.journal,
                    sim_event_limit=self.sim_event_limit,
                    fabric_workers=self.fabric_workers,
                    fabric_store=self.fabric_store,
                    fabric_transport=self.fabric_transport,
                )
                self._runners[scale] = runner
            return runner

    # -- batch execution ----------------------------------------------------------

    def execute_batch(self, batch):
        """Run one admission batch and resolve every query future.

        Cells are deduplicated across the whole batch per scale, then
        executed tier-by-tier (memo, disk cache, simulation).  Every
        future is resolved — with a response, or with the error that
        made its query unanswerable.
        """
        started = time.perf_counter()
        self.batches_executed += 1
        groups = {}
        total_cells = 0
        for query in batch:
            if query.estimate:
                # Estimate-mode queries never join the simulation
                # tiers; they are answered analytically below.
                continue
            runner = self.runner_for(query.scale)
            group = groups.setdefault(query.scale, {})
            for cell in query.cells:
                total_cells += 1
                key = self._cell_key(runner, cell)
                group.setdefault(key, cell)
        unique_cells = sum(len(group) for group in groups.values())
        self.cells_deduped += total_cells - unique_cells
        self._publish(
            service_event(
                "batch_start",
                queries=len(batch),
                cells=total_cells,
                unique_cells=unique_cells,
                scales=sorted(groups),
            )
        )

        outcomes = {}
        for scale, group in sorted(groups.items()):
            outcomes[scale] = self._execute_group(scale, group)

        # Counters and the batch_done event must be final before any
        # client unblocks: a client that answers and immediately reads
        # /events or /healthz sees its own batch accounted for.
        responses = {}
        failures = {}
        for index, query in enumerate(batch):
            if query.future.done():
                continue
            try:
                if query.estimate:
                    responses[index] = self._build_estimate_response(
                        query, batch_size=len(batch)
                    )
                else:
                    responses[index] = self._build_response(
                        query, outcomes[query.scale], batch_size=len(batch)
                    )
                self.queries_served += 1
                self.cells_served += len(query.cells)
            except Exception as error:  # pragma: no cover - defensive
                self.queries_failed += 1
                failures[index] = error

        self._publish(
            service_event(
                "batch_done",
                queries=len(batch),
                unique_cells=unique_cells,
                wall_seconds=round(time.perf_counter() - started, 6),
            )
        )

        for index, query in enumerate(batch):
            if index in responses:
                query.future.set_result(responses[index])
            elif index in failures:
                query.future.set_exception(failures[index])

    def _cell_key(self, runner, cell):
        return runner._result_key(
            cell.workload, cell.spec, cell.config, runner.config.max_spawn_distance
        )

    def _probe_source(self, runner, cell, key):
        """Pre-execution source guess: memo, disk cache, or pending."""
        if key in runner._results:
            return wire.SOURCE_MEMO
        if runner.cache is not None:
            digest = runner._job_digest(
                cell.workload, cell.spec, cell.config, runner.config.max_spawn_distance
            )
            if os.path.exists(runner.cache.path(digest)):
                return wire.SOURCE_CACHE
        return wire.SOURCE_SIMULATED

    def _execute_group(self, scale, group):
        """Execute one scale's deduplicated cells; returns per-key outcome.

        The outcome maps each cell key to ``(source, stats_or_error)``.
        A batch-level prefetch failure degrades to per-cell inline
        execution so independent cells still succeed.
        """
        runner = self.runner_for(scale)
        sources = {
            key: self._probe_source(runner, cell, key)
            for key, cell in group.items()
        }
        corrupt_before = len(runner.summary.corrupt_entries)
        restarts_before = runner.summary.pool_restarts
        errors = {}
        pending = [
            (cell.workload, cell.spec, cell.config)
            for key, cell in group.items()
            if sources[key] != wire.SOURCE_MEMO
        ]
        try:
            runner.prefetch(pending)
        except Exception as error:
            self.batches_degraded += 1
            self._publish(
                service_event(
                    "batch_degraded", scale=scale, reason=str(error)
                )
            )
            for key, cell in group.items():
                if key in runner._results:
                    continue
                try:
                    runner.run_with_config(cell.workload, cell.spec, cell.config)
                except Exception as cell_error:
                    errors[key] = str(cell_error)

        self._report_incidents(runner, scale, corrupt_before, restarts_before)

        outcome = {}
        for key, cell in group.items():
            if key in errors or key not in runner._results:
                message = errors.get(key, "cell was not materialized")
                outcome[key] = (wire.SOURCE_ERROR, message)
                self.cells_by_source[wire.SOURCE_ERROR] += 1
                self._publish(
                    service_event(
                        "cell_error",
                        workload=cell.workload,
                        spec=cell.spec,
                        scale=scale,
                        error=message,
                    )
                )
                continue
            source = sources[key]
            if source == wire.SOURCE_CACHE and self._entry_was_corrupt(
                runner, cell
            ):
                # The probed disk entry turned out corrupt and was
                # re-simulated; label the answer honestly.
                source = wire.SOURCE_SIMULATED
            outcome[key] = (source, runner._results[key])
            self.cells_by_source[source] += 1
        return outcome

    def _entry_was_corrupt(self, runner, cell):
        if runner.cache is None:
            return False
        digest = runner._job_digest(
            cell.workload, cell.spec, cell.config, runner.config.max_spawn_distance
        )
        return runner.cache.path(digest) in runner.summary.corrupt_entries

    def _report_incidents(self, runner, scale, corrupt_before, restarts_before):
        for path in runner.summary.corrupt_entries[corrupt_before:]:
            self._publish(
                service_event(
                    "incident", type="corrupt_cache_entry", scale=scale, path=path
                )
            )
        restarts = runner.summary.pool_restarts - restarts_before
        for _ in range(restarts):
            self._publish(
                service_event("incident", type="pool_restart", scale=scale)
            )

    def _build_response(self, query, outcome, batch_size):
        runner = self.runner_for(query.scale)
        results = []
        counts = {
            wire.SOURCE_MEMO: 0,
            wire.SOURCE_CACHE: 0,
            wire.SOURCE_SIMULATED: 0,
            wire.SOURCE_ERROR: 0,
        }
        from repro.polyflow.config import config_fingerprint

        for cell in query.cells:
            key = self._cell_key(runner, cell)
            source, payload = outcome[key]
            counts[source] += 1
            entry = {
                "workload": cell.workload,
                "spec": cell.spec,
                "config_fingerprint": config_fingerprint(cell.config),
                "source": source,
            }
            if source == wire.SOURCE_ERROR:
                entry["error"] = payload
            else:
                entry["stats"] = wire.encode_stats(payload)
            results.append(entry)
        return {
            "schema": wire.WIRE_SCHEMA_VERSION,
            "scale": query.scale,
            "results": results,
            "batch": {
                "queries": batch_size,
                "cells": len(query.cells),
                "memo_hits": counts[wire.SOURCE_MEMO],
                "cache_hits": counts[wire.SOURCE_CACHE],
                "simulated": counts[wire.SOURCE_SIMULATED],
                "estimated": 0,
                "errors": counts[wire.SOURCE_ERROR],
            },
        }

    def _build_estimate_response(self, query, batch_size):
        """Answer one estimate-mode query analytically (no simulation)."""
        from repro.analysis.estimate import estimate_speedup
        from repro.polyflow.config import config_fingerprint

        runner = self.runner_for(query.scale)
        results = []
        estimated = errors = 0
        for cell in query.cells:
            entry = {
                "workload": cell.workload,
                "spec": cell.spec,
                "config_fingerprint": config_fingerprint(cell.config),
            }
            try:
                estimate = estimate_speedup(
                    cell.workload, cell.spec, query.scale, cell.config
                )
            except Exception as error:
                entry["source"] = wire.SOURCE_ERROR
                entry["error"] = str(error)
                errors += 1
                self.cells_by_source[wire.SOURCE_ERROR] += 1
            else:
                entry["source"] = wire.SOURCE_ESTIMATED
                entry["estimate"] = wire.encode_estimate(estimate)
                estimated += 1
                self.cells_by_source[wire.SOURCE_ESTIMATED] += 1
            results.append(entry)
        if estimated:
            runner.summary.record_estimated(estimated)
        return {
            "schema": wire.WIRE_SCHEMA_VERSION,
            "scale": query.scale,
            "results": results,
            "batch": {
                "queries": batch_size,
                "cells": len(query.cells),
                "memo_hits": 0,
                "cache_hits": 0,
                "simulated": 0,
                "estimated": estimated,
                "errors": errors,
            },
        }

    # -- telemetry ----------------------------------------------------------------

    def summary_dict(self):
        """The merged ``RunSummary.as_dict()`` across every scale runner."""
        with self._lock:
            runners = list(self._runners.values())
        return merge_summary_dicts([r.summary.as_dict() for r in runners])

    def snapshot(self):
        """The engine fragment of ``/healthz``."""
        summary = self.summary_dict()
        store_root = self.fabric_store
        if store_root is not None and not isinstance(store_root, str):
            store_root = getattr(store_root, "root", str(store_root))
        return {
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "fabric": {
                "workers": self.fabric_workers,
                "transport": self.fabric_transport,
                "store": store_root,
            },
            "scales": sorted(self._runners),
            "batches": {
                "executed": self.batches_executed,
                "degraded": self.batches_degraded,
            },
            "queries": {
                "served": self.queries_served,
                "failed": self.queries_failed,
            },
            "cells": {
                "served": self.cells_served,
                "deduped": self.cells_deduped,
                "by_source": dict(self.cells_by_source),
            },
            "incidents": {
                "corrupt_cache_entries": summary.get("corrupt_cache_entries", 0),
                "pool_restarts": summary.get("pool_restarts", 0),
            },
            "pool_starts": scheduler.pool_starts(),
            "summary": summary,
        }
