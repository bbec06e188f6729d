"""The simulation event bus: guarded dispatch to attached sinks.

A sink is any object with an ``on_event(event)`` method.  Sinks attach
either *verbose* (the default — they also receive the high-frequency
per-instruction events) or non-verbose (lifecycle events only, the mode
:class:`~repro.polyflow.stats.SimStats` uses).

The core checks ``bus.verbose`` once per pipeline stage and skips
constructing per-instruction events entirely when no verbose sink is
attached, so event dispatch is effectively free on untraced runs.

Both timing engines (the staged reference and the fused fast loop)
visit every cycle, so events carry the same cycle timestamps whichever
engine runs; the engine-equivalence suites pin the streams byte for
byte.
"""

#: Version of the event schema (bump on any field or kind change, and
#: regenerate the golden traces under ``tests/obs/golden/``).
EVENT_SCHEMA_VERSION = 1


class EventBus:
    """Dispatches simulation events to attached sinks, in attach order."""

    __slots__ = ("_sinks", "verbose")

    def __init__(self):
        self._sinks = []
        #: True when at least one verbose sink is attached.  The core
        #: reads this to guard high-frequency event construction.
        self.verbose = False

    def attach(self, sink, verbose=True):
        """Attach ``sink``; returns it for chaining.

        Args:
            sink: Object with an ``on_event(event)`` method.
            verbose: Whether the sink wants the per-instruction events
                (fetch, commit, hint lookups, spawn requested/rejected)
                in addition to the always-on lifecycle events.
        """
        self._sinks.append(sink)
        if verbose:
            self.verbose = True
        return sink

    @property
    def sinks(self):
        """The attached sinks (read-only view)."""
        return tuple(self._sinks)

    def emit(self, event):
        """Deliver ``event`` to every sink, in attach order."""
        for sink in self._sinks:
            sink.on_event(event)
