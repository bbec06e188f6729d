"""Fabric transports: ship planned chunks to executors, stream results.

A transport takes the scheduler's cost-balanced chunks and executes
them somewhere, yielding ``(chunk_index, outcomes)`` pairs as results
arrive; each outcome is ``(packed_stats, seconds, source)``
with ``source`` either ``"simulated"`` or ``"store"``.  Two
implementations:

* :class:`LocalPoolTransport` — today's warm in-process fork pool
  (:func:`repro.experiments.scheduler.execute_chunk`) behind the
  fabric interface.  A ``BrokenProcessPool`` propagates exactly as it
  does on the classic path.
* :class:`SubprocessWorkerTransport` — ``python -m
  repro.experiments.fabric.worker`` processes (launched directly, or
  through a user-supplied command template for SSH), spoken to over
  the length-prefixed frame protocol.  Chunks are sharded across
  workers by :func:`repro.experiments.scheduler.plan_shards`; one
  reader thread per worker *process* (started at spawn, generation
  tagged, exiting at EOF) funnels frames into a transport-owned
  queue, so a transport reused across dispatches never has two
  readers on one pipe; a worker that goes silent past the chunk
  timeout, or whose stream hits EOF with chunks outstanding, raises
  :class:`FabricWorkerDied` so the runner's retry loop can replan
  only the unfinished cells.

Both transports collect placement telemetry — cells and wall clock
per worker, straggler wall, worker store counters — surfaced through
:meth:`placement` into the run summary and the event bus.
"""

import os
import queue
import shlex
import subprocess
import sys
import threading
import time

from repro.experiments import scheduler
from repro.experiments.fabric import protocol

#: Default ceiling on one worker's silence (no result, no heartbeat)
#: while it holds outstanding chunks.
DEFAULT_CHUNK_TIMEOUT = 300.0


class FabricWorkerDied(RuntimeError):
    """A worker died (or went silent) with chunks outstanding.

    The fabric analogue of ``BrokenProcessPool``: the runner's retry
    loop catches it, tears the transport down, and replans only the
    cells whose results never arrived.
    """

    def __init__(self, worker, reason, unfinished):
        super().__init__(
            "fabric worker {} {} with {} chunk(s) outstanding".format(
                worker, reason, len(unfinished)
            )
        )
        self.worker = worker
        self.unfinished = tuple(unfinished)


class LocalPoolTransport:
    """The warm fork pool as a fabric transport."""

    def __init__(self, workers, analysis_dir=None):
        self.workers = max(1, int(workers))
        self.analysis_dir = analysis_dir
        self._placement = _empty_placement(self.workers)

    def execute(self, scale, chunks, costs):
        """Submit every chunk to the warm pool; yield results as done.

        The pool balances work itself (chunks are already
        longest-expected-first); per-worker attribution is therefore
        approximated by the shard plan for telemetry purposes.
        """
        from concurrent.futures import as_completed

        warmup = sorted({name for chunk in chunks for name, _, _, _ in chunk})
        pool = scheduler.warm_pool(
            self.workers,
            analysis_dir=self.analysis_dir,
            warmup=[(name, scale) for name in warmup],
        )
        shards = scheduler.plan_shards(costs, self.workers)
        placement = _empty_placement(self.workers)
        futures = {}
        for index, chunk in enumerate(chunks):
            payload = [job + (None,) for job in chunk]
            futures[
                pool.submit(
                    scheduler.execute_chunk,
                    self.analysis_dir,
                    scale,
                    False,
                    payload,
                )
            ] = index
        started = time.perf_counter()
        for future in as_completed(futures):
            index = futures[future]
            outcomes = [
                (packed, seconds, "simulated")
                for packed, _, seconds in future.result()
            ]
            worker = next(
                worker for worker, shard in enumerate(shards) if index in shard
            )
            placement["cells_by_worker"][worker] += len(outcomes)
            placement["chunks_by_worker"][worker] += 1
            yield index, outcomes
        wall = time.perf_counter() - started
        placement["wall_by_worker"] = [wall] * self.workers
        placement["straggler_seconds"] = wall
        self._placement = placement

    def placement(self):
        return dict(self._placement)

    def close(self):
        """The pool is process-global; the runner owns its lifecycle."""


class SubprocessWorkerTransport:
    """Worker subprocesses speaking the fabric frame protocol.

    ``command_template`` customizes how workers launch — e.g.
    ``"ssh build-host {python} -u -m repro.experiments.fabric.worker"``
    — with ``{python}`` replaced by the driver's interpreter; worker
    arguments (``--index``, ``--store`` …) are appended.  The default
    launches local subprocesses with the driver's ``PYTHONPATH``
    extended to the repro package root, so a bare checkout works
    without installation.

    ``throughputs`` weights the shard planner when workers are not
    equally fast (a laptop driving a big remote box); ``extra_env``
    reaches the workers' environment (tests inject faults there).
    """

    def __init__(
        self,
        workers=2,
        store_root=None,
        local_store_root=None,
        analysis_dir=None,
        command_template=None,
        chunk_timeout=DEFAULT_CHUNK_TIMEOUT,
        heartbeat_interval=1.0,
        throughputs=None,
        extra_env=None,
    ):
        self.workers = max(1, int(workers))
        self.store_root = store_root
        self.local_store_root = local_store_root
        self.analysis_dir = analysis_dir
        self.command_template = command_template
        self.chunk_timeout = chunk_timeout
        self.heartbeat_interval = heartbeat_interval
        self.throughputs = throughputs
        self.extra_env = dict(extra_env or {})
        self._procs = [None] * self.workers
        self._readers = [None] * self.workers
        #: Incarnation counter per worker slot: frames are tagged with
        #: the generation of the process that produced them, so frames
        #: a replaced worker's reader queued (results from a torn-down
        #: dispatch, EOF sentinels of killed processes) are dropped
        #: instead of desyncing the protocol.
        self._generation = [0] * self.workers
        self._frames = queue.Queue()
        self._worker_store_stats = [None] * self.workers
        self._placement = _empty_placement(self.workers)

    # -- worker lifecycle ---------------------------------------------------------

    def _command(self, index):
        if self.command_template:
            command = shlex.split(
                self.command_template.format(python=sys.executable)
            )
        else:
            command = [
                sys.executable,
                "-u",
                "-m",
                "repro.experiments.fabric.worker",
            ]
        command += ["--index", str(index)]
        if self.store_root:
            command += ["--store", self.store_root]
        if self.local_store_root:
            command += ["--local-store", self.local_store_root]
        command += ["--heartbeat", str(self.heartbeat_interval)]
        return command

    def _environment(self):
        import repro

        environment = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing else package_root
        )
        environment.update(self.extra_env)
        return environment

    def _spawn(self, index):
        process = subprocess.Popen(
            self._command(index),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self._environment(),
        )
        try:
            protocol.check_hello(protocol.read_frame(process.stdout))
        except protocol.FabricProtocolError:
            process.kill()
            process.wait()
            raise
        protocol.write_frame(
            process.stdin,
            {"kind": "configure", "analysis_dir": self.analysis_dir},
        )
        self._generation[index] += 1
        reader = threading.Thread(
            target=_read_worker,
            args=(index, self._generation[index], process.stdout, self._frames),
            daemon=True,
        )
        reader.start()
        self._readers[index] = reader
        return process

    def ensure_workers(self):
        """Spawn (or respawn) every missing worker.

        A worker is respawned when its process is gone *or* its reader
        thread has exited (EOF, or a protocol error mid-stream): a live
        process whose pipe nobody reads can only time out.
        """
        for index in range(self.workers):
            process = self._procs[index]
            reader = self._readers[index]
            if (
                process is not None
                and process.poll() is None
                and reader is not None
                and reader.is_alive()
            ):
                continue
            if process is not None and process.poll() is None:
                process.kill()
                process.wait()
            self._procs[index] = self._spawn(index)

    def close(self):
        for index, process in enumerate(self._procs):
            if process is None:
                continue
            try:
                if process.poll() is None:
                    protocol.write_frame(process.stdin, {"kind": "shutdown"})
                    process.stdin.close()
                    process.wait(timeout=5.0)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                process.kill()
                process.wait()
            finally:
                self._procs[index] = None
                self._readers[index] = None

    # -- execution ----------------------------------------------------------------

    def execute(self, scale, chunks, costs):
        """Shard ``chunks`` across workers and stream back outcomes.

        All chunks are written up front (workers drain their stdin
        pipeline in order — the shard plan already balanced the load),
        then frames are collected until every chunk reported or a
        worker is declared dead.
        """
        self.ensure_workers()
        # Idle workers heartbeat between dispatches; drop that backlog
        # (plus any stale-generation leftovers) now, re-queuing only
        # EOF sentinels for the collection loop below.
        backlog = []
        while True:
            try:
                item = self._frames.get_nowait()
            except queue.Empty:
                break
            index, generation, frame = item
            if generation != self._generation[index]:
                continue
            if frame is not None and frame["kind"] == "heartbeat":
                continue
            backlog.append(item)
        for item in backlog:
            self._frames.put(item)
        shards = scheduler.plan_shards(
            costs, self.workers, throughputs=self.throughputs
        )
        pending = {}
        started = time.perf_counter()
        for worker, shard in enumerate(shards):
            process = self._procs[worker]
            for chunk_index in shard:
                pending[chunk_index] = worker
                try:
                    protocol.write_frame(
                        process.stdin,
                        {
                            "kind": "chunk",
                            "id": chunk_index,
                            "scale": scale,
                            "cells": [
                                protocol.encode_cell(*job)
                                for job in chunks[chunk_index]
                            ],
                        },
                    )
                except OSError:
                    raise self._dead(worker, "pipe closed", pending)

        placement = _empty_placement(self.workers)
        for worker, shard in enumerate(shards):
            placement["chunks_by_worker"][worker] = len(shard)
        last_activity = {index: time.perf_counter() for index in pending.values()}
        finished_at = dict(last_activity)
        while pending:
            timeout = max(self.heartbeat_interval, 0.05) * 2
            try:
                worker, generation, frame = self._frames.get(timeout=timeout)
            except queue.Empty:
                worker = None
            else:
                if generation != self._generation[worker]:
                    # A replaced incarnation's leftovers (stale results,
                    # the EOF sentinel of a killed process): drop them.
                    worker = None
            now = time.perf_counter()
            if worker is not None:
                last_activity[worker] = now
            # Silence deadlines are evaluated every iteration — a busy
            # sibling heartbeating keeps the queue non-empty, which must
            # not shield a stalled worker from its chunk timeout.
            for index, seen in last_activity.items():
                if (
                    any(owner == index for owner in pending.values())
                    and now - seen > self.chunk_timeout
                ):
                    raise self._dead(index, "went silent", pending)
            if worker is None:
                continue
            if frame is None:
                if any(owner == worker for owner in pending.values()):
                    raise self._dead(worker, "exited", pending)
                continue
            if frame["kind"] == "heartbeat":
                continue
            if frame["kind"] != "result":
                raise protocol.FabricProtocolError(
                    "unexpected frame kind {!r} from worker {}".format(
                        frame["kind"], worker
                    )
                )
            chunk_index = frame["id"]
            pending.pop(chunk_index, None)
            if frame.get("store") is not None:
                self._worker_store_stats[worker] = frame["store"]
            outcomes = [
                (
                    protocol.decode_packed(outcome["packed"]),
                    outcome["seconds"],
                    outcome["source"],
                )
                for outcome in frame["outcomes"]
            ]
            placement["cells_by_worker"][worker] += len(outcomes)
            placement["store_cells_by_worker"][worker] += sum(
                1 for outcome in outcomes if outcome[2] == "store"
            )
            finished_at[worker] = time.perf_counter()
            yield chunk_index, outcomes
        placement["wall_by_worker"] = [
            round(finished_at.get(index, started) - started, 6)
            for index in range(self.workers)
        ]
        placement["straggler_seconds"] = max(
            placement["wall_by_worker"] or [0.0]
        )
        self._placement = placement

    def _dead(self, worker, reason, pending):
        """Build the :class:`FabricWorkerDied` for one incident.

        Every worker is torn down — mirroring the pool path, where one
        dead worker poisons the whole executor — so the retry starts
        from a clean fleet (``ensure_workers`` respawns it).
        """
        unfinished = sorted(
            index for index, owner in pending.items() if owner == worker
        )
        for process in self._procs:
            if process is not None and process.poll() is None:
                process.kill()
                process.wait()
        self._procs = [None] * self.workers
        self._readers = [None] * self.workers
        return FabricWorkerDied(worker, reason, unfinished)

    def placement(self):
        placement = dict(self._placement)
        store_totals = {}
        for stats in self._worker_store_stats:
            for key, value in (stats or {}).items():
                store_totals[key] = store_totals.get(key, 0) + value
        placement["worker_store"] = store_totals
        return placement


def _read_worker(index, generation, stream, frames):
    """Reader thread: funnel one incarnation's frames into the queue.

    Runs for the lifetime of one worker process — started at spawn,
    exiting at EOF (clean or torn) — and tags every frame with the
    incarnation's generation so the consumer can discard leftovers
    after the process is replaced.
    """
    try:
        while True:
            frame = protocol.read_frame(stream)
            frames.put((index, generation, frame))
            if frame is None:
                return
    except protocol.FabricProtocolError:
        frames.put((index, generation, None))


def _empty_placement(workers):
    return {
        "workers": workers,
        "cells_by_worker": [0] * workers,
        "chunks_by_worker": [0] * workers,
        "store_cells_by_worker": [0] * workers,
        "wall_by_worker": [0.0] * workers,
        "straggler_seconds": 0.0,
    }
