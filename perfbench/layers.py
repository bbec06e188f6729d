"""Per-layer CPU attribution for traced runs.

The product carries no spans of its own yet, so a traced run wraps the
public entry point of each layer from here, at run time, and times
every call in thread CPU seconds.  Nothing is wrapped unless
:func:`install` is called, so untraced runs execute the product
untouched.

Every wrapped call records its inclusive time under its metric name
(``<layer>.<what>_s``) and its *self* time: the inclusive time minus
the time of wrapped calls nested inside it on the same thread.  Self
times of one layer summed give ``self.<layer>_s``; the process CPU not
covered by any wrapped call is ``self.unattributed_s``.  Counts
(trace instructions, spawn points, simulated cycles ...) are read off
the values the wrapped calls return.  Full garbage collections are
counted and timed (wall seconds) through ``gc.callbacks``; their
pauses also sit inside whichever span was running.
"""

import functools
import gc
import importlib
import sys
import threading
import time

LAYERS = (
    "workloads",
    "isa",
    "sim",
    "cfg",
    "analysis",
    "spawn",
    "polyflow",
    "experiments",
    "service",
)

#: Simulated-machine counters summed over every kernel run.
SIM_COUNTERS = (
    ("polyflow.sim_cycles", "cycles"),
    ("polyflow.sim_instructions", "retired_instructions"),
    ("polyflow.tasks_created", "tasks_created"),
    ("polyflow.violation_squashes", "violation_squashes"),
    ("polyflow.branch_mispredicts", "branch_mispredicts"),
    ("polyflow.icache_stall_cycles", "icache_stall_cycles"),
)

#: Timed spans reported as metrics, in report order.
SPAN_METRICS = (
    "workloads.source_s",
    "isa.assemble_s",
    "sim.functional_s",
    "sim.blocks_s",
    "cfg.build_s",
    "analysis.pipeline_s",
    "analysis.cache_s",
    "analysis.estimate_s",
    "spawn.classify_s",
    "spawn.profile_s",
    "polyflow.core_build_s",
    "polyflow.kernel_s",
    "experiments.cache_store_s",
    "experiments.cache_load_s",
    "service.batch_s",
)

COUNT_METRICS = (
    "sim.trace_instructions",
    "spawn.points",
    "gc.collections",
    "gc.pause_s",
) + tuple(name for name, _ in SIM_COUNTERS)


class Tracer:
    """Accumulates per-span CPU time and per-metric counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        #: ``{span: [inclusive_s, self_s]}``
        self.spans = {}
        self.counts = {}
        self._gc_started = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self):
        self._stack().append(0.0)
        return time.thread_time()

    def leave(self, name, started):
        elapsed = time.thread_time() - started
        stack = self._stack()
        nested = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            entry = self.spans.setdefault(name, [0.0, 0.0])
            entry[0] += elapsed
            entry[1] += elapsed - nested

    def count(self, name, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def on_gc(self, phase, info):
        """``gc.callbacks`` hook: wall time of full (generation 2) collections."""
        if info["generation"] != 2:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.count("gc.collections", 1)
            self.count("gc.pause_s", time.perf_counter() - self._gc_started)
            self._gc_started = None

    def wrap(self, name, function, on_result=None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            started = tracer.enter()
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.leave(name, started)
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        return traced

    def wrap_steps(self, name, generator_function, on_done):
        """Time each ``next()`` of a generator method as one span."""
        tracer = self

        @functools.wraps(generator_function)
        def traced(owner, *args, **kwargs):
            generator = generator_function(owner, *args, **kwargs)
            while True:
                started = tracer.enter()
                try:
                    item = next(generator)
                except StopIteration as stop:
                    tracer.leave(name, started)
                    on_done(tracer, owner)
                    return stop.value
                except BaseException:
                    tracer.leave(name, started)
                    raise
                tracer.leave(name, started)
                yield item

        return traced

    def snapshot(self):
        """JSON-able copy of every accumulator plus the process CPU clock."""
        with self._lock:
            return {
                "spans": {name: list(entry) for name, entry in self.spans.items()},
                "counts": dict(self.counts),
                "process_cpu_s": time.process_time(),
            }


def _replace_everywhere(original, replacement):
    """Point every loaded ``repro`` module's reference to ``original``
    at ``replacement`` (``from x import f`` copies the reference)."""
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _count_trace(tracer, trace, args):
    tracer.count("sim.trace_instructions", len(trace))


def _count_points(tracer, result, args):
    analysis = args[0]
    tracer.count(
        "spawn.points",
        len(analysis.postdominator_points) + len(analysis.loop_points),
    )


def _count_stats(tracer, core):
    stats = core.stats
    for metric, attribute in SIM_COUNTERS:
        tracer.count(metric, getattr(stats, attribute))


#: ``(metric, module, function, on_result)`` wrapped wherever loaded
#: ``repro`` modules hold a reference to the function.
FUNCTIONS = (
    ("workloads.source_s", "repro.workloads.suite", "workload_source", None),
    ("isa.assemble_s", "repro.isa.assembler", "assemble", None),
    ("sim.functional_s", "repro.sim.functional", "run_program", _count_trace),
    ("sim.blocks_s", "repro.sim.blocks", "block_table_for", None),
    ("sim.blocks_s", "repro.sim.blocks", "program_blocks_for", None),
    ("cfg.build_s", "repro.cfg.builder", "build_program_cfgs", None),
    ("analysis.pipeline_s", "repro.analysis.pipeline", "compute_analyses", None),
    ("analysis.estimate_s", "repro.analysis.estimate", "estimate_speedup", None),
    ("spawn.profile_s", "repro.spawn.profiling", "profile_spawn_points", None),
    ("polyflow.core_build_s", "repro.experiments.runner", "build_core", None),
)

#: ``(metric, module, class, method, on_result)`` wrapped on the class.
METHODS = (
    ("analysis.cache_s", "repro.analysis.pipeline", "AnalysisCache", "analyses_for", None),
    ("spawn.classify_s", "repro.spawn.policies", "SpawnAnalysis", "__init__", _count_points),
    ("polyflow.kernel_s", "repro.polyflow.core", "PolyFlowCore", "prewarm", None),
    ("polyflow.kernel_s", "repro.polyflow.core", "PolyFlowCore", "install_warm_state", None),
    ("experiments.cache_store_s", "repro.experiments.parallel", "ResultCache", "store", None),
    ("experiments.cache_load_s", "repro.experiments.parallel", "ResultCache", "load", None),
    ("service.batch_s", "repro.service.engine", "ExplorationEngine", "execute_batch", None),
)


def _lookup(module_name, attribute):
    """``(module, attribute value)``; ``None`` for what no longer exists,
    so the benchmark keeps measuring after a layer's code is removed."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    return module, getattr(module, attribute, None)


def install():
    """Wrap every layer's public entry point; returns the :class:`Tracer`."""
    # Import the entry points first so their module-level references
    # exist when the wrappers replace them.
    importlib.import_module("repro.experiments.__main__")
    importlib.import_module("repro.service")
    tracer = Tracer()
    for name, module_name, attribute, on_result in FUNCTIONS:
        _, original = _lookup(module_name, attribute)
        if original is not None:
            _replace_everywhere(original, tracer.wrap(name, original, on_result))
    for name, module_name, class_name, method, on_result in METHODS:
        _, owner = _lookup(module_name, class_name)
        original = getattr(owner, method, None)
        if original is not None:
            setattr(owner, method, tracer.wrap(name, original, on_result))

    _, profile = _lookup("repro.cfg.builder", "JumpProfile")
    from_trace = profile.__dict__["from_trace"].__func__
    profile.from_trace = classmethod(tracer.wrap("cfg.build_s", from_trace))
    _, core = _lookup("repro.polyflow.core", "PolyFlowCore")
    if hasattr(core, "run_incremental"):
        # ``run`` drains ``run_incremental``: wrapping the generator
        # times every engine path, and each simulation, exactly once.
        core.run_incremental = tracer.wrap_steps(
            "polyflow.kernel_s", core.run_incremental, _count_stats
        )
    else:
        core.run = tracer.wrap(
            "polyflow.kernel_s",
            core.run,
            lambda tracer, stats, args: _count_stats(tracer, args[0]),
        )
    gc.callbacks.append(tracer.on_gc)
    return tracer


def layer_metrics(start, end):
    """Per-layer metrics between two :meth:`Tracer.snapshot` readings.

    Span metrics are inclusive CPU seconds; ``self.*`` split the
    process CPU of the interval between layers without double
    counting.
    """
    metrics = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for name in SPAN_METRICS:
        inclusive, own = end["spans"].get(name, (0.0, 0.0))
        before_inclusive, before_own = start["spans"].get(name, (0.0, 0.0))
        metrics[name] = inclusive - before_inclusive
        self_by_layer[name.split(".")[0]] += own - before_own
    for name in COUNT_METRICS:
        metrics[name] = end["counts"].get(name, 0) - start["counts"].get(name, 0)
    kernel = metrics["polyflow.kernel_s"]
    cycles = metrics["polyflow.sim_cycles"]
    metrics["polyflow.kernel_ips"] = (
        metrics["polyflow.sim_instructions"] / kernel if kernel > 0 else 0.0
    )
    metrics["polyflow.host_ns_per_sim_cycle"] = (
        kernel * 1e9 / cycles if cycles else 0.0
    )
    total = end["process_cpu_s"] - start["process_cpu_s"]
    for layer, seconds in self_by_layer.items():
        metrics["self.{}_s".format(layer)] = seconds
    metrics["self.unattributed_s"] = total - sum(self_by_layer.values())
    metrics["trace.cpu_s"] = total
    return metrics
