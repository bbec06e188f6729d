"""Bridging the event bus into long-lived consumers (the service).

The PR-2 observability stack was built for one simulation at a time: a
sink attaches to a bus, the run finishes, the sink is read.  The
always-on exploration service (:mod:`repro.service`) instead needs a
*stream*: progress events from many simulations, batches, and admission
decisions, published by worker threads and consumed concurrently by any
number of ``/events`` subscribers.

Two small pieces provide that bridge without touching the bus itself:

* :class:`CallbackSink` — the adapter from the bus world to the stream
  world: a sink that forwards every received event object to a plain
  callable.  Attached non-verbose it keeps ``bus.verbose`` False, so a
  bridged simulation skips per-instruction event construction and
  produces bit-identical stats.

* :class:`EventJournal` — a bounded, thread-safe, sequence-numbered
  ring of JSON-able event dicts.  Publishers append from any thread;
  consumers poll with :meth:`EventJournal.wait_since` and never block
  publishers.  Closing the journal wakes every waiting consumer so
  streams terminate cleanly on service drain.

:func:`service_event` builds the service-level progress events
(admission, batching, incidents) in the same "flat dict with a
``kind``" idiom the schema-v1 bus events serialize to, so one JSONL
stream carries both vocabularies.
"""

import collections
import threading

#: Version of the service progress-event vocabulary (bump on any kind
#: or field change; the wire schema version of :mod:`repro.service`
#: covers the request/response surface separately).
SERVICE_EVENT_SCHEMA_VERSION = 1


def service_event(kind, **fields):
    """One service progress event: a flat dict led by its ``kind``."""
    event = {"kind": kind}
    event.update(fields)
    return event


#: Kind prefix of fabric placement/incident events (``fabric.placement``,
#: ``fabric.worker_died``), namespacing them apart from the admission
#: and batching vocabulary in one shared JSONL stream.
FABRIC_EVENT_PREFIX = "fabric."


def fabric_event(kind, **fields):
    """One fabric telemetry event (a namespaced :func:`service_event`).

    Emitted by the parallel runner's fabric dispatch path — worker
    placement after each sharded grid, dead-worker incidents with the
    replanned cell count — and bridged into the service journal by the
    exploration service's runner.
    """
    return service_event(FABRIC_EVENT_PREFIX + kind, **fields)


class CallbackSink:
    """Bus sink that forwards events to a callable.

    Args:
        callback: Called with each received event *object* (use
            ``event.as_dict()`` in the callback for the JSON form).
        kinds: Optional iterable of event kinds to forward; ``None``
            forwards everything the bus delivers.
    """

    __slots__ = ("_callback", "_kinds")

    def __init__(self, callback, kinds=None):
        self._callback = callback
        self._kinds = None if kinds is None else frozenset(kinds)

    def on_event(self, event):
        if self._kinds is None or event.kind in self._kinds:
            self._callback(event)


class EventJournal:
    """Bounded, sequence-numbered, thread-safe event ring.

    Every published event gets the next monotonically increasing
    sequence number; the ring keeps the most recent ``capacity``
    events.  Consumers track their own cursor and call
    :meth:`wait_since`, which returns everything newer (possibly
    nothing, after a timeout).  A consumer that fell more than
    ``capacity`` events behind simply misses the evicted ones — the
    journal is a progress stream, not a durable log.

    ``tee``, when given, is called with every event dict under the
    journal lock (publication order preserved) — the service uses it
    to mirror the stream into an on-disk JSONL file.
    """

    def __init__(self, capacity=4096, tee=None):
        self._events = collections.deque(maxlen=max(1, int(capacity)))
        self._next_seq = 0
        self._cond = threading.Condition()
        self._closed = False
        self._tee = tee
        #: Total events ever published (not capped by the ring).
        self.published = 0

    @property
    def closed(self):
        return self._closed

    @property
    def end_seq(self):
        """The sequence number the *next* published event will get."""
        with self._cond:
            return self._next_seq

    def publish(self, event):
        """Append one event dict; returns it (dropped after close)."""
        with self._cond:
            if self._closed:
                return event
            self._events.append((self._next_seq, event))
            self._next_seq += 1
            self.published += 1
            if self._tee is not None:
                self._tee(event)
            self._cond.notify_all()
        return event

    def since(self, seq):
        """``(events, next_seq)`` for everything at or after ``seq``."""
        with self._cond:
            events = [event for number, event in self._events if number >= seq]
            return events, self._next_seq

    def wait_since(self, seq, timeout=None):
        """Like :meth:`since`, but blocks until something is newer.

        Returns immediately once events at or after ``seq`` exist or
        the journal is closed; otherwise waits up to ``timeout``
        seconds (forever when ``None``) and returns whatever arrived —
        possibly nothing.
        """
        with self._cond:
            if self._next_seq <= seq and not self._closed:
                self._cond.wait(timeout)
            events = [event for number, event in self._events if number >= seq]
            return events, self._next_seq

    def close(self):
        """Stop accepting events and wake every waiting consumer."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
