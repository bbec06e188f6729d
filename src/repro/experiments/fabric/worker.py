"""The fabric worker: ``python -m repro.experiments.fabric.worker``.

One worker process serves one driver over stdin/stdout, speaking the
frame protocol of :mod:`repro.experiments.fabric.protocol`.  Startup
announces a ``hello`` (wire version, pid, worker index); a background
thread heartbeats so the driver can tell a long simulation from a dead
process; then the main loop executes ``chunk`` frames until
``shutdown`` or EOF.

Chunk execution is store-first: every cell's job digest is probed
against the shared artifact store (``--store``), and held cells are
answered from the verified entry without simulating — labeled
``source=store`` so the driver books them as store hits, not runs.
The remaining cells run through the scheduler's
:func:`~repro.experiments.scheduler.execute_chunk` — the *same*
worker-side path the local pool uses, so fabric results are bit-identical to pooled and serial ones — and
each fresh result is published back to the store for the next worker.

stdout carries frames only; anything a simulation prints would corrupt
the stream, so the worker rebinds ``sys.stdout`` to stderr after
claiming the real stream.

Fault injection (tests): the ``REPRO_FABRIC_FAULT`` environment
variable injects deterministic failures, each claimed by the single
incarnation that manages to create its ``<flagfile>`` first so a
respawned (or sibling) worker survives and the retry path is
deterministic.  ``die-after-result:<flagfile>`` exits hard after the
first result; ``freeze-on-chunk:<flagfile>`` goes completely silent on
the first chunk — heartbeats included, simulating a SIGSTOP or network
partition the driver must catch by chunk timeout.
"""

import argparse
import os
import sys
import threading

from repro.experiments.fabric import protocol

#: Seconds between heartbeat frames.
HEARTBEAT_INTERVAL = 1.0

_FAULT_VARIABLE = "REPRO_FABRIC_FAULT"


def _claim_fault(kind):
    """Whether this incarnation enacts ``kind`` (one winner per flag file)."""
    spec = os.environ.get(_FAULT_VARIABLE, "")
    if not spec.startswith(kind + ":"):
        return False
    flag = spec.partition(":")[2]
    try:
        with open(flag, "x"):
            pass
    except OSError:
        return False
    return True


def _execute_chunk(frame, store, analysis_dir):
    """The ``result`` frame for one ``chunk`` frame."""
    from repro.experiments import scheduler
    from repro.experiments.fabric.store import decode_entry, entry_body
    from repro.experiments.parallel import CACHE_FORMAT_VERSION, job_digest
    from repro.polyflow.config import config_fingerprint

    scale = frame["scale"]
    cells = [protocol.decode_cell(raw) for raw in frame["cells"]]
    digests = [
        job_digest(name, spec, scale, config, profile_distance)
        for name, spec, config, profile_distance in cells
    ]
    outcomes = [None] * len(cells)
    pending = []
    for index, digest in enumerate(digests):
        body = store.fetch(digest) if store is not None else None
        if body is not None:
            try:
                stats, _ = decode_entry(body)
            except Exception:
                store.corrupt_rejected += 1
                body = None
            else:
                outcomes[index] = {
                    "packed": protocol.encode_packed(
                        scheduler.pack_stats(stats)
                    ),
                    "seconds": 0.0,
                    "source": "store",
                }
        if body is None:
            pending.append(index)
    if pending:
        payload = [
            cells[index] + (None,) for index in pending
        ]  # trace_file=None: fabric cells are plain
        executed = scheduler.execute_chunk(analysis_dir, scale, False, payload)
        for index, (packed, _, seconds) in zip(pending, executed):
            name, spec, config, profile_distance = cells[index]
            if store is not None:
                meta = {
                    "workload": name,
                    "spec": spec,
                    "scale": scale,
                    "config_fingerprint": config_fingerprint(config),
                    "profile_distance": profile_distance,
                    "version": CACHE_FORMAT_VERSION,
                }
                store.publish(
                    digests[index],
                    entry_body(scheduler.unpack_stats(packed), meta),
                )
            outcomes[index] = {
                "packed": protocol.encode_packed(packed),
                "seconds": seconds,
                "source": "simulated",
            }
    return {
        "kind": "result",
        "id": frame["id"],
        "outcomes": outcomes,
        "store": store.stats() if store is not None else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="polyflow-fabric-worker")
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--store", default=None)
    parser.add_argument(
        "--local-store",
        default=None,
        help="machine-local read-through cache in front of --store",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=HEARTBEAT_INTERVAL,
    )
    arguments = parser.parse_args(argv)

    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # Anything the simulator (or a workload generator) prints must not
    # interleave with protocol frames.
    sys.stdout = sys.stderr

    write_lock = threading.Lock()

    def send(payload):
        with write_lock:
            protocol.write_frame(stdout, payload)

    send(
        {
            "kind": "hello",
            "wire_version": protocol.WIRE_VERSION,
            "pid": os.getpid(),
            "worker": arguments.index,
        }
    )

    stop = threading.Event()

    def beat():
        while not stop.wait(arguments.heartbeat):
            try:
                send({"kind": "heartbeat", "worker": arguments.index})
            except OSError:
                return

    heartbeat_thread = threading.Thread(target=beat, daemon=True)
    heartbeat_thread.start()

    store = None
    if arguments.store:
        from repro.experiments.fabric.store import SharedStore

        store = SharedStore(arguments.store, local_root=arguments.local_store)

    analysis_dir = None
    try:
        while True:
            frame = protocol.read_frame(stdin)
            if frame is None or frame["kind"] == "shutdown":
                break
            if frame["kind"] == "configure":
                analysis_dir = frame.get("analysis_dir")
                if analysis_dir:
                    from repro.analysis.pipeline import configure_disk_cache

                    configure_disk_cache(analysis_dir)
                continue
            if frame["kind"] == "chunk":
                if _claim_fault("freeze-on-chunk"):
                    # A SIGSTOP/partition stand-in: stop heartbeating
                    # and never answer; only the driver's chunk
                    # timeout can unblock the dispatch.
                    stop.set()
                    threading.Event().wait()
                send(_execute_chunk(frame, store, analysis_dir))
                if _claim_fault("die-after-result"):
                    os._exit(3)
                continue
            raise protocol.FabricProtocolError(
                "unexpected frame kind {!r}".format(frame["kind"])
            )
    finally:
        stop.set()
    return 0


if __name__ == "__main__":
    sys.exit(main())
