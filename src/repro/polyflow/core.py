"""The PolyFlow cycle-level timing model.

A trace-driven model of the machine in the paper's Figure 7/8: a
simultaneously multithreaded core running up to 8 tasks, with a Task
Spawn Unit, a shared reorder buffer and scheduler, a divert queue for
synchronizing inter-task dependences, and the Figure 8 memory system.

Model summary (see DESIGN.md section 6 for the full rationale):

* Tasks are contiguous segments of the committed trace.  A spawn at
  trace index *i* targeting PC *p* starts a new task at the next
  dynamic instance of *p* — the control-equivalence property.
* Only the tail (youngest) task spawns, as in the paper.
* A branch mispredict stalls only the fetch of its own task until the
  branch resolves (minimum penalty applies); other tasks keep fetching
  — this is how control-equivalent tasks tolerate mispredictions.
* Inter-task register dependences always synchronize through the divert
  queue (the compiler-generated hint information covers them).
  Inter-task memory dependences are learned by a store-set predictor;
  an unlearned conflict squashes the violating task and all younger
  tasks, then trains the predictor.
* Wrong-path fetch is modelled as refill bubbles, not as executed
  wrong-path instructions.

The head (oldest) task gets small reserved shares of the ROB and
scheduler so that it can always make forward progress (younger tasks
can never starve the non-speculative task into deadlock).

The per-cycle loops run on the flat pre-decoded arrays of
:meth:`~repro.sim.trace.Trace.decoded` (see :mod:`repro.sim.predecode`)
rather than the trace's record/instruction objects: fetch, dependence
checks, issue and commit index parallel lists of plain ints, which is
what makes the kernel fast in pure Python.  The decoded view is a pure
function of the trace, so behaviour is unchanged — the golden-trace
suite pins the event streams byte for byte.
"""

import heapq
from collections import deque

from repro.errors import SimulationError
from repro.frontend.branch_predictor import GsharePredictor, IndirectTargetPredictor
from repro.frontend.icount import select_fetch_tasks
from repro.memory.hierarchy import CacheHierarchy
from repro.obs.bus import EventBus
from repro.obs.events import (
    DependenceViolation,
    HintLookup,
    InstructionCommitted,
    InstructionFetched,
    SpawnAccepted,
    SpawnRejected,
    SpawnRequested,
    TaskCommitted,
    TaskSquashed,
    TaskStarted,
)
from repro.polyflow.config import PAPER_CONFIG, superscalar_config
from repro.polyflow.dependences import StoreSetPredictor
from repro.polyflow.spawn_unit import SpawnUnit
from repro.polyflow.stats import SimStats
from repro.polyflow.task import Task
from repro.sim.predecode import (
    KIND_CALL_DIRECT,
    KIND_CALL_INDIRECT,
    KIND_COND_BRANCH,
    KIND_RETURN,
    KIND_SWITCH,
    LAT_LOAD,
    LAT_MUL,
    LAT_STORE,
)
from repro.spawn.hints import HintTable

# Instruction states.
_FREE = 0
_DIVERT = 1
_WAIT = 2
_READY = 3
_EXEC = 4
_DONE = 5
_RETIRED = 6

# Event kinds.
_EV_COMPLETE = 0
_EV_READY = 1

#: ROB entries only the head task may use.
_HEAD_ROB_RESERVE = 32
#: Scheduler entries only the head task may use.
_HEAD_SCHED_RESERVE = 8

#: The pipeline-stage methods that make up the staged reference engine.
#: A subclass overriding any of them (tests use this to probe per-cycle
#: invariants) opts the instance out of the fused fast loop.
_STAGE_HOOKS = (
    "_process_events",
    "_resolve_waiting_branch",
    "_retire",
    "_drain_divert_queue",
    "_enter_scheduler",
    "_issue",
    "_fetch",
    "_fetch_from_task",
    "_schedule",
)


class PolyFlowCore:
    """One simulation run of the PolyFlow core over a trace."""

    def __init__(
        self,
        trace,
        config=PAPER_CONFIG,
        hint_table=None,
        max_cycles=None,
        bus=None,
    ):
        self.trace = trace
        self.config = config
        self.hint_table = hint_table if hint_table is not None else HintTable()
        self.stats = SimStats()
        #: The event bus.  Task-lifecycle events always flow (SimStats
        #: consumes them); per-instruction events are only constructed
        #: when a verbose sink is attached (``bus.verbose``).
        self.bus = bus if bus is not None else EventBus()
        self.bus.attach(self.stats, verbose=False)
        self.hierarchy = CacheHierarchy()
        self.gshare = GsharePredictor(config.gshare_counters, config.gshare_history_bits)
        self.indirect_predictor = IndirectTargetPredictor()
        self.store_sets = StoreSetPredictor()
        self.spawn_unit = SpawnUnit(trace, self.hint_table, config)
        count = len(trace)
        self.max_cycles = max_cycles if max_cycles is not None else 400 * count + 10_000
        # Flat pre-decoded views of the trace (shared across runs of the
        # same trace); every per-cycle loop below indexes these instead
        # of walking record.inst attribute chains.
        decoded = trace.decoded()
        self._pcs = decoded.pc
        self._kinds = decoded.kind
        self._lats = decoded.lat
        self._takens = decoded.taken
        self._next_pcs = decoded.next_pc
        self._fall_throughs = decoded.fall_through
        self._mem_addrs = decoded.mem_addr
        self._mem_deps = decoded.mem_dep
        self._dep0 = decoded.dep0
        self._dep1 = decoded.dep1
        self._lines = decoded.icache_lines(self.hierarchy.l1i.offset_bits)
        # Per-trace-index dynamic state.
        self._state = bytearray(count)
        self._gen = [0] * count
        self._wait_count = [0] * count
        self._earliest = [0] * count
        self._fetch_cycle = [0] * count
        self._owner = [0] * count
        self._sched_used = {}
        self._dependents = {}
        self._divert_producers = {}
        self._unsafe_mem = {}
        # Machine structures.
        self._tasks = deque()
        self._events = {}
        self._ready_heap = []
        self._divert_fifo = deque()
        self._rob_occupancy = 0
        self._sched_occupancy = 0
        self._divert_occupancy = 0
        self._retire_ptr = 0
        self._next_task_id = 0
        self._cycle = 0

    # -- public API ------------------------------------------------------------

    def run(self):
        """Simulate the whole trace; returns the :class:`SimStats`.

        Two observably identical engines back this method: the staged
        reference loop (:meth:`_run_staged`, one method per pipeline
        stage — the readable specification) and the fused fast loop
        (:meth:`_run_fast`, the same five stages inlined over the flat
        decoded arrays).  The choice is automatic: an instance whose
        class overrides a stage hook, or whose spawn unit overrides
        :meth:`~repro.polyflow.spawn_unit.SpawnUnit.spawn_target`, runs
        staged; everything else takes the fast loop.  The
        engine-equivalence tests pin that both produce identical event
        streams and statistics.
        """
        if not len(self.trace):
            return self.stats
        if self.config.warm_caches:
            self._warm_caches()
        initial = self._new_task(0)
        self._tasks.append(initial)
        self.bus.emit(TaskStarted(0, initial.task_id, 0, self._pcs[0], None))
        if self._stage_hooks_overridden():
            self._run_staged()
        else:
            self._run_fast()
        count = len(self.trace)
        while self._tasks:
            # The tail task (and only it) is never popped by retire;
            # close out its lifetime so sinks see a balanced stream.
            task = self._tasks.popleft()
            self._emit_task_commit(task, count)
        self.stats.cycles = self._cycle
        self.stats.cache_stats = self.hierarchy.statistics()
        return self.stats

    def _stage_hooks_overridden(self):
        """Whether this instance must run the staged reference engine."""
        unit = type(self.spawn_unit)
        if unit.spawn_target is not SpawnUnit.spawn_target:
            return True
        cls = type(self)
        if cls is PolyFlowCore:
            return False
        for name in _STAGE_HOOKS:
            if getattr(cls, name) is not getattr(PolyFlowCore, name):
                return True
        return False

    def _run_staged(self):
        """The staged reference engine: one method call per stage.

        This is the readable specification of the cycle loop; the fast
        engine (:meth:`_run_fast`) is a fused transcription of exactly
        these stages.  Keep the two in lockstep — the equivalence suite
        compares their event streams byte for byte.
        """
        count = len(self.trace)
        while self._retire_ptr < count:
            self._cycle += 1
            if self._cycle > self.max_cycles:
                raise SimulationError(
                    "no forward progress after {} cycles (retired {}/{})".format(
                        self.max_cycles, self._retire_ptr, count
                    )
                )
            self._process_events()
            self._retire()
            self._drain_divert_queue()
            self._issue()
            self._fetch()
            self.stats.task_occupancy_sum += len(self._tasks)

    def _run_fast(self):
        """The fused fast loop: all pipeline stages inlined.

        Every hot structure is bound to a local once per run and the
        per-cycle stage bodies run back to back without method
        dispatch; rare paths (violations, spawns, verbose emission)
        call back into the shared helper methods after syncing the
        mutable scalars they read.  Observable behaviour must match
        :meth:`_run_staged` exactly.
        """
        config = self.config
        bus = self.bus
        stats = self.stats
        state = self._state
        gen = self._gen
        wait_count = self._wait_count
        earliest = self._earliest
        fetch_cycle = self._fetch_cycle
        owner = self._owner
        sched_used = self._sched_used
        dependents = self._dependents
        divert_producer_map = self._divert_producers
        unsafe_mem = self._unsafe_mem
        tasks = self._tasks
        events = self._events
        heap = self._ready_heap
        fifo = self._divert_fifo
        pcs = self._pcs
        kinds = self._kinds
        lats = self._lats
        takens = self._takens
        next_pcs = self._next_pcs
        fall_throughs = self._fall_throughs
        lines = self._lines
        mem_addrs = self._mem_addrs
        mem_deps = self._mem_deps
        dep0 = self._dep0
        dep1 = self._dep1
        heappush = heapq.heappush
        heappop = heapq.heappop
        fetch_latency = self.hierarchy.fetch_latency
        data_latency = self.hierarchy.data_latency
        gshare_update = self.gshare.predict_and_update
        indirect_update = self.indirect_predictor.predict_and_update
        predicts_dependence = self.store_sets.predicts_dependence
        spawn_unit = self.spawn_unit
        spawn_target_of = spawn_unit.spawn_target
        record_task_instructions = spawn_unit.record_task_instructions
        spawn_targets = spawn_unit.resolved_targets()
        suppressed = spawn_unit.suppressed_triggers_live()

        width = config.width
        units = config.functional_units
        mul_latency = config.mul_latency
        mispredict_penalty = config.mispredict_penalty
        frontend_latency = config.frontend_latency
        quota = config.scheduler_per_task_quota
        max_tasks = config.max_tasks
        nested = config.nested_spawns
        fetch_ports = config.fetch_tasks_per_cycle
        rob_entries = config.rob_entries
        sched_entries = config.scheduler_entries
        divert_entries = config.divert_queue_entries
        shared_rob_cap = rob_entries - _HEAD_ROB_RESERVE
        shared_sched_cap = sched_entries - _HEAD_SCHED_RESERVE
        release_state = _WAIT if config.divert_release == "dispatch" else _DONE

        count = len(pcs)
        max_cycles = self.max_cycles
        cycle = self._cycle
        retire_ptr = self._retire_ptr
        rob_occupancy = self._rob_occupancy
        sched_occupancy = self._sched_occupancy
        divert_occupancy = self._divert_occupancy

        # Stage counters flushed to SimStats when the loop exits.
        retired_total = 0
        fetched_total = 0
        diverted_total = 0
        occupancy_sum = 0
        icache_stalls = 0
        cond_branches = 0
        branch_misses = 0
        indirect_misses = 0
        return_misses = 0

        def enter_scheduler(index):
            # Inlined transcription of _enter_scheduler; mirrors the
            # rs-then-rt (duplicates included) producer registration.
            nonlocal sched_occupancy
            generation = gen[index]
            pending = 0
            producer = dep0[index]
            if producer >= 0 and state[producer] < _DONE:
                bucket = dependents.get(producer)
                if bucket is None:
                    dependents[producer] = [(index, generation)]
                else:
                    bucket.append((index, generation))
                pending += 1
            producer = dep1[index]
            if producer >= 0 and state[producer] < _DONE:
                bucket = dependents.get(producer)
                if bucket is None:
                    dependents[producer] = [(index, generation)]
                else:
                    bucket.append((index, generation))
                pending += 1
            if lats[index] == LAT_LOAD:
                producer = mem_deps[index]
                if (
                    producer >= 0
                    and index not in unsafe_mem
                    and state[producer] < _DONE
                ):
                    bucket = dependents.get(producer)
                    if bucket is None:
                        dependents[producer] = [(index, generation)]
                    else:
                        bucket.append((index, generation))
                    pending += 1
            sched_occupancy += 1
            task_owner = owner[index]
            sched_used[task_owner] = sched_used.get(task_owner, 0) + 1
            wait_count[index] = pending
            if pending:
                state[index] = _WAIT
            else:
                state[index] = _READY
                ready_at = earliest[index]
                if ready_at <= cycle:
                    ready_at = cycle + 1
                entry = (_EV_READY, index, generation)
                bucket = events.get(ready_at)
                if bucket is None:
                    events[ready_at] = [entry]
                else:
                    bucket.append(entry)

        try:
            while retire_ptr < count:
                cycle += 1
                self._cycle = cycle
                if cycle > max_cycles:
                    raise SimulationError(
                        "no forward progress after {} cycles (retired {}/{})".format(
                            max_cycles, retire_ptr, count
                        )
                    )
                verbose = bus.verbose

                # ---- process events ------------------------------------
                bucket = events.pop(cycle, None)
                if bucket is not None:
                    for kind, index, generation in bucket:
                        if kind:
                            # _EV_READY.
                            if gen[index] == generation and state[index] == _READY:
                                heappush(heap, index)
                            continue
                        # Completion.
                        if gen[index] != generation:
                            continue
                        if state[index] != _EXEC:
                            continue
                        state[index] = _DONE
                        for task in tasks:
                            if task.waiting_branch_index == index:
                                resume = fetch_cycle[index] + mispredict_penalty
                                if resume < cycle + 1:
                                    resume = cycle + 1
                                task.waiting_branch_index = None
                                task.fetch_stall_until = resume
                                break
                        consumers = dependents.pop(index, None)
                        if not consumers:
                            continue
                        for consumer, consumer_gen in consumers:
                            if (
                                gen[consumer] != consumer_gen
                                or state[consumer] != _WAIT
                            ):
                                continue
                            pending = wait_count[consumer] - 1
                            wait_count[consumer] = pending
                            if pending == 0:
                                state[consumer] = _READY
                                ready_at = earliest[consumer]
                                if ready_at <= cycle:
                                    ready_at = cycle + 1
                                entry = (_EV_READY, consumer, consumer_gen)
                                ready_bucket = events.get(ready_at)
                                if ready_bucket is None:
                                    events[ready_at] = [entry]
                                else:
                                    ready_bucket.append(entry)

                # ---- retire --------------------------------------------
                if state[retire_ptr] == _DONE:
                    retired = 0
                    while retired < width and retire_ptr < count:
                        index = retire_ptr
                        if state[index] != _DONE:
                            break
                        state[index] = _RETIRED
                        rob_occupancy -= 1
                        retire_ptr = index + 1
                        retired += 1
                        head = tasks[0]
                        head.in_flight -= 1
                        if verbose:
                            point = head.spawn_point
                            bus.emit(
                                InstructionCommitted(
                                    cycle,
                                    head.task_id,
                                    index,
                                    pcs[index],
                                    point.trigger_pc if point is not None else None,
                                )
                            )
                        head_end = head.end_index
                        if head_end is not None and retire_ptr >= head_end:
                            tasks.popleft()
                            self._emit_task_commit(head, head_end)
                    retired_total += retired

                # ---- drain divert queue --------------------------------
                if fifo:
                    oldest = retire_ptr
                    if state[oldest] == _DIVERT:
                        blocked = False
                        for producer in divert_producer_map[oldest]:
                            if state[producer] < _WAIT:
                                blocked = True
                                break
                        if not blocked:
                            oldest_gen = gen[oldest]
                            for position, entry in enumerate(fifo):
                                if entry[0] == oldest and entry[1] == oldest_gen:
                                    del fifo[position]
                                    break
                            del divert_producer_map[oldest]
                            divert_occupancy -= 1
                            enter_scheduler(oldest)
                    if fifo:
                        moved = 0
                        scanned = 0
                        head = tasks[0] if tasks else None
                        head_end = head.end_index if head is not None else None
                        index_in_fifo = 0
                        while index_in_fifo < len(fifo) and scanned < 64:
                            entry_index, entry_gen = fifo[index_in_fifo]
                            scanned += 1
                            if (
                                gen[entry_index] != entry_gen
                                or state[entry_index] != _DIVERT
                            ):
                                # Squashed entry: lazily delete.
                                del fifo[index_in_fifo]
                                continue
                            blocked = False
                            for producer in divert_producer_map[entry_index]:
                                if state[producer] < release_state:
                                    blocked = True
                                    break
                            if blocked:
                                index_in_fifo += 1
                                continue
                            owned_by_head = head is not None and (
                                head_end is None or entry_index < head_end
                            )
                            cap = sched_entries if owned_by_head else shared_sched_cap
                            if sched_occupancy >= cap:
                                index_in_fifo += 1
                                continue
                            if not owned_by_head and (
                                sched_used.get(owner[entry_index], 0) >= quota
                            ):
                                index_in_fifo += 1
                                continue
                            del fifo[index_in_fifo]
                            del divert_producer_map[entry_index]
                            divert_occupancy -= 1
                            enter_scheduler(entry_index)
                            moved += 1
                            if moved >= width:
                                break

                # ---- issue ---------------------------------------------
                if heap:
                    issued = 0
                    deferred = None
                    while heap and issued < units:
                        index = heappop(heap)
                        if state[index] != _READY:
                            continue
                        if earliest[index] > cycle:
                            if deferred is None:
                                deferred = [index]
                            else:
                                deferred.append(index)
                            continue
                        lat = lats[index]
                        if lat == LAT_LOAD:
                            unsafe_producer = unsafe_mem.get(index)
                            if (
                                unsafe_producer is not None
                                and state[unsafe_producer] < _DONE
                            ):
                                self._rob_occupancy = rob_occupancy
                                self._sched_occupancy = sched_occupancy
                                self._divert_occupancy = divert_occupancy
                                self._handle_violation(index, unsafe_producer)
                                rob_occupancy = self._rob_occupancy
                                sched_occupancy = self._sched_occupancy
                                divert_occupancy = self._divert_occupancy
                                # The violator (and the heap contents
                                # from younger tasks) were squashed;
                                # issue no more this cycle.
                                break
                            latency = data_latency(mem_addrs[index])
                        elif lat == LAT_STORE:
                            data_latency(mem_addrs[index])
                            latency = 1
                        elif lat == LAT_MUL:
                            latency = mul_latency
                        else:
                            latency = 1
                        state[index] = _EXEC
                        sched_occupancy -= 1
                        sched_used[owner[index]] -= 1
                        complete_at = cycle + latency
                        entry = (_EV_COMPLETE, index, gen[index])
                        complete_bucket = events.get(complete_at)
                        if complete_bucket is None:
                            events[complete_at] = [entry]
                        else:
                            complete_bucket.append(entry)
                        issued += 1
                    if deferred is not None:
                        for index in deferred:
                            heappush(heap, index)

                # ---- fetch ---------------------------------------------
                # Biased-ICount arbitration, inlined for the standard
                # one- and two-port configurations: the oldest
                # fetch-ready task takes the first port, the lowest
                # (in_flight, age) candidate among the rest the second.
                if fetch_ports <= 2:
                    first = None
                    second = None
                    second_key = None
                    position = 0
                    for task in tasks:
                        if (
                            task.waiting_branch_index is None
                            and cycle >= task.fetch_stall_until
                            and (
                                task.end_index is None
                                or task.fetch_index < task.end_index
                            )
                        ):
                            if first is None:
                                first = task
                            else:
                                key = (task.in_flight, position)
                                if second_key is None or key < second_key:
                                    second_key = key
                                    second = task
                        position += 1
                    if fetch_ports == 1:
                        second = None
                    if first is None:
                        selected = ()
                        share = width
                    elif second is None:
                        selected = (first,)
                        share = width
                    else:
                        selected = (first, second)
                        share = width // 2
                else:  # nonstandard port counts: generic arbitration
                    candidates = []
                    position = 0
                    for task in tasks:
                        if task.can_fetch(cycle):
                            candidates.append((task.task_id, task.in_flight, position))
                        position += 1
                    if candidates:
                        chosen = select_fetch_tasks(
                            candidates, fetch_ports, config.head_bias
                        )
                        by_id = {task.task_id: task for task in tasks}
                        selected = tuple(by_id[task_id] for task_id in chosen)
                        share = width // max(len(selected), 1)
                    else:
                        selected = ()
                        share = width

                for task in selected:
                    budget = share
                    is_head = task is tasks[0]
                    if is_head:
                        rob_cap = rob_entries
                        sched_cap = sched_entries
                    else:
                        rob_cap = shared_rob_cap
                        sched_cap = shared_sched_cap
                    task_id = task.task_id
                    start = task.start_index
                    ras = task.ras
                    point = task.spawn_point
                    spawn_trigger = point.trigger_pc if point is not None else None
                    burst_instructions = 0
                    burst_diverts = 0

                    while budget > 0:
                        index = task.fetch_index
                        if index >= count:
                            break
                        end_index = task.end_index
                        if end_index is not None and index >= end_index:
                            break
                        if rob_occupancy >= rob_cap:
                            break
                        pc = pcs[index]

                        # Instruction cache: one access per new line.
                        line = lines[index]
                        if line != task.last_fetch_line:
                            latency = fetch_latency(pc)
                            task.last_fetch_line = line
                            if latency > 1:
                                task.fetch_stall_until = cycle + latency
                                icache_stalls += latency - 1
                                break

                        # Decide the dispatch target (see the staged
                        # _fetch_from_task for the full rationale).
                        producers = None
                        unsafe_producer = None
                        producer = dep0[index]
                        if 0 <= producer < start and state[producer] < _DONE:
                            producers = [producer]
                        producer = dep1[index]
                        if 0 <= producer < start and state[producer] < _DONE:
                            if producers is None:
                                producers = [producer]
                            else:
                                producers.append(producer)
                        if lats[index] == LAT_LOAD:
                            mem_producer = mem_deps[index]
                            if (
                                0 <= mem_producer < start
                                and state[mem_producer] < _DONE
                            ):
                                if predicts_dependence(pcs[mem_producer], pc):
                                    if producers is None:
                                        producers = [mem_producer]
                                    else:
                                        producers.append(mem_producer)
                                else:
                                    unsafe_producer = mem_producer

                        # Check the dispatch target's capacity.
                        if producers is not None:
                            if divert_occupancy >= divert_entries:
                                break
                        else:
                            if sched_occupancy >= sched_cap:
                                break
                            if (
                                not is_head
                                and sched_used.get(task_id, 0) >= quota
                            ):
                                break

                        # Consume the instruction.
                        task.fetch_index = index + 1
                        task.in_flight += 1
                        rob_occupancy += 1
                        generation = gen[index] + 1
                        gen[index] = generation
                        owner[index] = task_id
                        fetch_cycle[index] = cycle
                        earliest[index] = cycle + frontend_latency
                        fetched_total += 1
                        if unsafe_producer is not None:
                            unsafe_mem[index] = unsafe_producer
                        budget -= 1
                        if verbose:
                            bus.emit(
                                InstructionFetched(
                                    cycle, task_id, index, pc, spawn_trigger
                                )
                            )

                        if producers is not None:
                            state[index] = _DIVERT
                            divert_occupancy += 1
                            divert_producer_map[index] = producers
                            fifo.append((index, generation))
                            diverted_total += 1
                            if spawn_trigger is not None:
                                burst_instructions += 1
                                burst_diverts += 1
                        else:
                            # Inlined scheduler entry (the closure
                            # above is the shared transcription; this
                            # is the same body on the hottest path).
                            pending = 0
                            producer = dep0[index]
                            if producer >= 0 and state[producer] < _DONE:
                                dep_bucket = dependents.get(producer)
                                if dep_bucket is None:
                                    dependents[producer] = [(index, generation)]
                                else:
                                    dep_bucket.append((index, generation))
                                pending += 1
                            producer = dep1[index]
                            if producer >= 0 and state[producer] < _DONE:
                                dep_bucket = dependents.get(producer)
                                if dep_bucket is None:
                                    dependents[producer] = [(index, generation)]
                                else:
                                    dep_bucket.append((index, generation))
                                pending += 1
                            if lats[index] == LAT_LOAD:
                                producer = mem_deps[index]
                                if (
                                    producer >= 0
                                    and index not in unsafe_mem
                                    and state[producer] < _DONE
                                ):
                                    dep_bucket = dependents.get(producer)
                                    if dep_bucket is None:
                                        dependents[producer] = [
                                            (index, generation)
                                        ]
                                    else:
                                        dep_bucket.append((index, generation))
                                    pending += 1
                            sched_occupancy += 1
                            sched_used[task_id] = sched_used.get(task_id, 0) + 1
                            wait_count[index] = pending
                            if pending:
                                state[index] = _WAIT
                            else:
                                state[index] = _READY
                                ready_at = earliest[index]
                                if ready_at <= cycle:
                                    ready_at = cycle + 1
                                entry = (_EV_READY, index, generation)
                                ready_bucket = events.get(ready_at)
                                if ready_bucket is None:
                                    events[ready_at] = [entry]
                                else:
                                    ready_bucket.append(entry)
                            if spawn_trigger is not None:
                                burst_instructions += 1

                        # Spawning (see the staged loop for rationale).
                        if len(tasks) < max_tasks:
                            if task.end_index is None and task is tasks[-1]:
                                if verbose:
                                    target = spawn_target_of(index, pc)
                                    self._emit_spawn_decision(task, index, pc, target)
                                    if target >= 0:
                                        self._spawn(task, pc, target, index)
                                else:
                                    target = spawn_targets[index]
                                    if target >= 0 and pc not in suppressed:
                                        self._spawn(task, pc, target, index)
                            elif nested and task.end_index is not None:
                                target = spawn_target_of(index, pc)
                                if 0 <= target < task.end_index:
                                    if verbose:
                                        self._emit_spawn_decision(
                                            task, index, pc, target
                                        )
                                    self._spawn_nested(task, pc, target, index)
                                elif verbose:
                                    self._emit_spawn_decision(
                                        task, index, pc, target,
                                        rejected="outside-segment"
                                        if target >= 0
                                        else None,
                                    )
                            elif verbose:
                                target = spawn_target_of(index, pc)
                                if target >= 0:
                                    self._emit_spawn_decision(
                                        task, index, pc, target, rejected="not-tail"
                                    )
                        elif verbose:
                            target = spawn_target_of(index, pc)
                            if target >= 0:
                                self._emit_spawn_decision(
                                    task, index, pc, target, rejected="task-limit"
                                )

                        # Control flow effects on fetch.
                        kind = kinds[index]
                        if kind:
                            if kind == KIND_COND_BRANCH:
                                cond_branches += 1
                                taken = takens[index]
                                if gshare_update(pc, taken) != taken:
                                    branch_misses += 1
                                    task.waiting_branch_index = index
                                    break
                                if taken:
                                    break  # one taken branch per cycle
                            else:
                                if kind == KIND_CALL_DIRECT:
                                    ras.push(fall_throughs[index])
                                elif kind == KIND_CALL_INDIRECT:
                                    ras.push(fall_throughs[index])
                                    if not indirect_update(pc, next_pcs[index]):
                                        indirect_misses += 1
                                        task.waiting_branch_index = index
                                elif kind == KIND_RETURN:
                                    if ras.pop() != next_pcs[index]:
                                        return_misses += 1
                                        task.waiting_branch_index = index
                                elif kind == KIND_SWITCH:
                                    if not indirect_update(pc, next_pcs[index]):
                                        indirect_misses += 1
                                        task.waiting_branch_index = index
                                # Every non-branch transfer ends the
                                # fetch stream.
                                break

                    if burst_instructions:
                        record_task_instructions(
                            spawn_trigger, burst_instructions, burst_diverts
                        )

                occupancy_sum += len(tasks)
        finally:
            self._retire_ptr = retire_ptr
            self._rob_occupancy = rob_occupancy
            self._sched_occupancy = sched_occupancy
            self._divert_occupancy = divert_occupancy
            stats.retired_instructions += retired_total
            stats.fetched_instructions += fetched_total
            stats.diverted_instructions += diverted_total
            stats.task_occupancy_sum += occupancy_sum
            stats.icache_stall_cycles += icache_stalls
            stats.conditional_branches += cond_branches
            stats.branch_mispredicts += branch_misses
            stats.indirect_mispredicts += indirect_misses
            stats.return_mispredicts += return_misses

    # -- helpers ---------------------------------------------------------------

    def _warm_caches(self):
        """Replay the trace's footprint to model post-fast-forward state.

        The paper fast-forwards through each benchmark's initialization
        phase before measuring, so the measured region starts with warm
        caches.  The replay applies the trace's accesses once (without
        timing), leaving realistic LRU state: footprints larger than a
        cache level keep missing during measurement.
        """
        hierarchy = self.hierarchy
        fetch_latency = hierarchy.fetch_latency
        data_latency = hierarchy.data_latency
        pcs = self._pcs
        lines = self._lines
        lats = self._lats
        mem_addrs = self._mem_addrs
        last_line = None
        for index in range(len(pcs)):
            line = lines[index]
            if line != last_line:
                fetch_latency(pcs[index])
                last_line = line
            if lats[index] >= LAT_LOAD:
                data_latency(mem_addrs[index])
        hierarchy.reset_statistics()

    def _new_task(self, start_index, spawn_point=None):
        task = Task(self._next_task_id, start_index, spawn_point)
        self._next_task_id += 1
        return task

    def _schedule(self, cycle, kind, index):
        self._events.setdefault(cycle, []).append((kind, index, self._gen[index]))

    @staticmethod
    def _origin_of(task):
        """The trigger PC of the spawn point that created ``task``."""
        point = task.spawn_point
        return point.trigger_pc if point is not None else None

    def _emit_task_commit(self, task, end_index):
        self.bus.emit(
            TaskCommitted(
                self._cycle,
                task.task_id,
                task.start_index,
                self._pcs[task.start_index],
                self._origin_of(task),
                task.start_index,
                end_index,
            )
        )

    # -- pipeline stages ---------------------------------------------------------

    def _process_events(self):
        events = self._events.pop(self._cycle, None)
        if not events:
            return
        state = self._state
        gen = self._gen
        wait_count = self._wait_count
        earliest = self._earliest
        dependents = self._dependents
        heap = self._ready_heap
        cycle = self._cycle
        push = heapq.heappush
        for kind, index, generation in events:
            if gen[index] != generation:
                continue
            if kind == _EV_READY:
                if state[index] == _READY:
                    push(heap, index)
                continue
            # Completion.
            if state[index] != _EXEC:
                continue
            state[index] = _DONE
            self._resolve_waiting_branch(index)
            consumers = dependents.pop(index, None)
            if not consumers:
                continue
            for consumer, consumer_gen in consumers:
                if gen[consumer] != consumer_gen or state[consumer] != _WAIT:
                    continue
                pending = wait_count[consumer] - 1
                wait_count[consumer] = pending
                if pending == 0:
                    state[consumer] = _READY
                    ready_at = max(cycle + 1, earliest[consumer])
                    self._schedule(ready_at, _EV_READY, consumer)

    def _resolve_waiting_branch(self, index):
        for task in self._tasks:
            if task.waiting_branch_index == index:
                resume = max(
                    self._cycle + 1,
                    self._fetch_cycle[index] + self.config.mispredict_penalty,
                )
                task.waiting_branch_index = None
                task.fetch_stall_until = resume
                return

    def _retire(self):
        state = self._state
        count = len(self.trace)
        retired = 0
        width = self.config.width
        tasks = self._tasks
        verbose = self.bus.verbose
        while retired < width and self._retire_ptr < count:
            index = self._retire_ptr
            if state[index] != _DONE:
                break
            state[index] = _RETIRED
            self._rob_occupancy -= 1
            self._retire_ptr = index + 1
            retired += 1
            head = tasks[0]
            head.in_flight -= 1
            if verbose:
                self.bus.emit(
                    InstructionCommitted(
                        self._cycle,
                        head.task_id,
                        index,
                        self._pcs[index],
                        self._origin_of(head),
                    )
                )
            if head.end_index is not None and self._retire_ptr >= head.end_index:
                tasks.popleft()
                self._emit_task_commit(head, head.end_index)
        self.stats.retired_instructions += retired

    def _drain_divert_queue(self):
        fifo = self._divert_fifo
        if not fifo:
            return
        state = self._state
        gen = self._gen
        # Forward-progress guarantee: the globally oldest unretired
        # instruction may always leave the divert queue, even past
        # scheduler capacity (it will issue and retire immediately,
        # unclogging consumers that fill the scheduler).
        release_state = _WAIT if self.config.divert_release == "dispatch" else _DONE
        oldest = self._retire_ptr
        if state[oldest] == _DIVERT:
            producers = self._divert_producers[oldest]
            if all(state[p] >= _WAIT for p in producers):
                for position, (entry_index, entry_gen) in enumerate(fifo):
                    if entry_index == oldest and entry_gen == gen[oldest]:
                        del fifo[position]
                        break
                del self._divert_producers[oldest]
                self._divert_occupancy -= 1
                self._enter_scheduler(oldest)
        if not fifo:
            return
        moved = 0
        scanned = 0
        max_scan = 64
        # Non-head entries must not consume the scheduler share reserved
        # for the head task, or they starve it into deadlock.
        shared_cap = self.config.scheduler_entries - _HEAD_SCHED_RESERVE
        full_cap = self.config.scheduler_entries
        head = self._tasks[0] if self._tasks else None
        head_end = head.end_index if head is not None else None
        index_in_fifo = 0
        while index_in_fifo < len(fifo) and scanned < max_scan:
            entry_index, entry_gen = fifo[index_in_fifo]
            scanned += 1
            if gen[entry_index] != entry_gen or state[entry_index] != _DIVERT:
                # Squashed entry: lazily delete.
                del fifo[index_in_fifo]
                continue
            producers = self._divert_producers[entry_index]
            if any(state[p] < release_state for p in producers):
                index_in_fifo += 1
                continue
            owned_by_head = head is not None and (
                head_end is None or entry_index < head_end
            )
            cap = full_cap if owned_by_head else shared_cap
            if self._sched_occupancy >= cap:
                index_in_fifo += 1
                continue
            if not owned_by_head and (
                self._sched_used.get(self._owner[entry_index], 0)
                >= self.config.scheduler_per_task_quota
            ):
                index_in_fifo += 1
                continue
            del fifo[index_in_fifo]
            del self._divert_producers[entry_index]
            self._divert_occupancy -= 1
            self._enter_scheduler(entry_index)
            moved += 1
            if moved >= self.config.width:
                break

    def _enter_scheduler(self, index):
        """Move a (diverted or fresh) instruction into the scheduler."""
        state = self._state
        dependents = self._dependents
        generation = self._gen[index]
        pending = 0
        # Source-register producers in rs-then-rt order; a duplicated
        # producer (rs == rt) registers twice, exactly like the record's
        # reg_deps tuple.
        producer = self._dep0[index]
        if producer >= 0 and state[producer] < _DONE:
            dependents.setdefault(producer, []).append((index, generation))
            pending += 1
        producer = self._dep1[index]
        if producer >= 0 and state[producer] < _DONE:
            dependents.setdefault(producer, []).append((index, generation))
            pending += 1
        if self._lats[index] == LAT_LOAD:
            mem_producer = self._mem_deps[index]
            if (
                mem_producer >= 0
                and index not in self._unsafe_mem
                and state[mem_producer] < _DONE
            ):
                dependents.setdefault(mem_producer, []).append((index, generation))
                pending += 1
        self._sched_occupancy += 1
        owner = self._owner[index]
        self._sched_used[owner] = self._sched_used.get(owner, 0) + 1
        self._wait_count[index] = pending
        if pending:
            state[index] = _WAIT
        else:
            state[index] = _READY
            ready_at = max(self._cycle + 1, self._earliest[index])
            self._schedule(ready_at, _EV_READY, index)

    def _issue(self):
        heap = self._ready_heap
        if not heap:
            return
        state = self._state
        earliest = self._earliest
        lats = self._lats
        mem_addrs = self._mem_addrs
        data_latency = self.hierarchy.data_latency
        cycle = self._cycle
        sched_used = self._sched_used
        owner = self._owner
        mul_latency = self.config.mul_latency
        issued = 0
        units = self.config.functional_units
        deferred = []
        pop = heapq.heappop
        while heap and issued < units:
            index = pop(heap)
            if state[index] != _READY:
                continue
            if earliest[index] > cycle:
                deferred.append(index)
                continue
            lat = lats[index]
            if lat == LAT_LOAD:
                unsafe_producer = self._unsafe_mem.get(index)
                if unsafe_producer is not None and state[unsafe_producer] < _DONE:
                    self._handle_violation(index, unsafe_producer)
                    # The violator (and the heap contents from younger
                    # tasks) were squashed; issue no more this cycle.
                    break
                latency = data_latency(mem_addrs[index])
            elif lat == LAT_STORE:
                data_latency(mem_addrs[index])
                latency = 1
            elif lat == LAT_MUL:
                latency = mul_latency
            else:
                latency = 1
            state[index] = _EXEC
            self._sched_occupancy -= 1
            sched_used[owner[index]] -= 1
            self._schedule(cycle + latency, _EV_COMPLETE, index)
            issued += 1
        for index in deferred:
            heapq.heappush(heap, index)

    # -- violations and squashes -------------------------------------------------

    def _task_position_of_index(self, index):
        for position, task in enumerate(self._tasks):
            end = task.end_index
            if index >= task.start_index and (end is None or index < end):
                return position
        raise SimulationError(
            "trace index {} belongs to no active task".format(index)
        )

    def _handle_violation(self, load_index, store_index):
        store_pc = self._pcs[store_index]
        load_pc = self._pcs[load_index]
        self.store_sets.train_violation(store_pc, load_pc)
        position = self._task_position_of_index(load_index)
        violator = self._tasks[position]
        if violator.spawn_point is not None:
            self.spawn_unit.record_squash(violator.spawn_point.trigger_pc)
        self.bus.emit(
            DependenceViolation(
                self._cycle,
                violator.task_id,
                load_index,
                load_pc,
                self._origin_of(violator),
                store_index,
                store_pc,
            )
        )
        self._squash_from(position, cause="memory-dependence")

    def _squash_from(self, position, cause):
        """Squash tasks[position:] and rewind their fetch."""
        state = self._state
        gen = self._gen
        pcs = self._pcs
        chain = list(self._tasks)[position:]
        chain_depth = len(chain)
        for task in chain:
            squashed = 0
            for index in range(task.start_index, task.fetch_index):
                current = state[index]
                if current == _FREE:
                    continue
                if current == _DIVERT:
                    self._divert_occupancy -= 1
                    self._divert_producers.pop(index, None)
                elif current in (_WAIT, _READY):
                    self._sched_occupancy -= 1
                    self._sched_used[self._owner[index]] -= 1
                state[index] = _FREE
                gen[index] += 1
                self._rob_occupancy -= 1
                self._dependents.pop(index, None)
                self._unsafe_mem.pop(index, None)
                squashed += 1
            task.reset_for_squash(self._cycle, self.config.squash_restart_penalty)
            self.bus.emit(
                TaskSquashed(
                    self._cycle,
                    task.task_id,
                    task.start_index,
                    pcs[task.start_index],
                    self._origin_of(task),
                    cause,
                    chain_depth,
                    squashed,
                )
            )

    # -- fetch --------------------------------------------------------------------

    def _fetch(self):
        tasks = self._tasks
        cycle = self._cycle
        candidates = []
        for position, task in enumerate(tasks):
            if task.can_fetch(cycle):
                candidates.append((task.task_id, task.in_flight, position))
        if not candidates:
            return
        selected = select_fetch_tasks(
            candidates, self.config.fetch_tasks_per_cycle, self.config.head_bias
        )
        by_id = {task.task_id: task for task in tasks}
        # Each selected task owns an equal share of the fetch width (two
        # 4-wide fetch streams on the 8-wide PolyFlow, one 8-wide stream
        # on the superscalar): fetch units cannot recombine dynamically.
        share = self.config.width // max(len(selected), 1)
        for task_id in selected:
            self._fetch_from_task(by_id[task_id], share)

    def _fetch_from_task(self, task, budget):
        state = self._state
        gen = self._gen
        config = self.config
        cycle = self._cycle
        bus = self.bus
        verbose = bus.verbose
        stats = self.stats
        tasks = self._tasks
        spawn_unit = self.spawn_unit
        task_origin = self._origin_of(task)
        is_head = task is tasks[0]
        rob_cap = config.rob_entries
        sched_cap = config.scheduler_entries
        divert_cap = config.divert_queue_entries
        if not is_head:
            rob_cap -= _HEAD_ROB_RESERVE
            sched_cap -= _HEAD_SCHED_RESERVE
        # Flat decoded arrays and hot locals.
        pcs = self._pcs
        kinds = self._kinds
        lats = self._lats
        takens = self._takens
        next_pcs = self._next_pcs
        fall_throughs = self._fall_throughs
        lines = self._lines
        dep0 = self._dep0
        dep1 = self._dep1
        mem_deps = self._mem_deps
        owner = self._owner
        fetch_cycle = self._fetch_cycle
        earliest = self._earliest
        sched_used = self._sched_used
        unsafe_mem = self._unsafe_mem
        divert_producer_map = self._divert_producers
        divert_fifo = self._divert_fifo
        fetch_latency = self.hierarchy.fetch_latency
        predicts_dependence = self.store_sets.predicts_dependence
        gshare_update = self.gshare.predict_and_update
        indirect_update = self.indirect_predictor.predict_and_update
        record_task_instruction = spawn_unit.record_task_instruction
        spawn_targets = spawn_unit.resolved_targets()
        suppressed = spawn_unit.suppressed_triggers_live()
        count = len(pcs)
        start = task.start_index
        task_id = task.task_id
        frontend_latency = config.frontend_latency
        quota = config.scheduler_per_task_quota
        max_tasks = config.max_tasks
        nested = config.nested_spawns
        ras = task.ras
        spawn_trigger = (
            task.spawn_point.trigger_pc if task.spawn_point is not None else None
        )

        while budget > 0:
            index = task.fetch_index
            if index >= count:
                break
            end_index = task.end_index
            if end_index is not None and index >= end_index:
                break
            if self._rob_occupancy >= rob_cap:
                break
            pc = pcs[index]

            # Instruction cache: one access per new line.
            line = lines[index]
            if line != task.last_fetch_line:
                latency = fetch_latency(pc)
                task.last_fetch_line = line
                if latency > 1:
                    task.fetch_stall_until = cycle + latency
                    stats.icache_stall_cycles += latency - 1
                    break

            # Decide the dispatch target.  Register dependences on older
            # tasks always divert (hint-predicted); memory dependences
            # divert only when the store-set predictor has learned the
            # pair — otherwise the load speculates past the older-task
            # store (risking a violation squash).
            producers = None
            unsafe_producer = None
            producer = dep0[index]
            if 0 <= producer < start and state[producer] < _DONE:
                producers = [producer]
            producer = dep1[index]
            if 0 <= producer < start and state[producer] < _DONE:
                if producers is None:
                    producers = [producer]
                else:
                    producers.append(producer)
            if lats[index] == LAT_LOAD:
                mem_producer = mem_deps[index]
                if 0 <= mem_producer < start and state[mem_producer] < _DONE:
                    if predicts_dependence(pcs[mem_producer], pc):
                        if producers is None:
                            producers = [mem_producer]
                        else:
                            producers.append(mem_producer)
                    else:
                        unsafe_producer = mem_producer

            # Check the dispatch target's capacity.
            if producers is not None:
                if self._divert_occupancy >= divert_cap:
                    break
            else:
                if self._sched_occupancy >= sched_cap:
                    break
                if not is_head and sched_used.get(task_id, 0) >= quota:
                    break

            # Consume the instruction.
            task.fetch_index = index + 1
            task.in_flight += 1
            self._rob_occupancy += 1
            gen[index] += 1
            owner[index] = task_id
            fetch_cycle[index] = cycle
            earliest[index] = cycle + frontend_latency
            stats.fetched_instructions += 1
            if unsafe_producer is not None:
                unsafe_mem[index] = unsafe_producer
            budget -= 1
            if verbose:
                bus.emit(
                    InstructionFetched(cycle, task_id, index, pc, task_origin)
                )

            if producers is not None:
                state[index] = _DIVERT
                self._divert_occupancy += 1
                divert_producer_map[index] = producers
                divert_fifo.append((index, gen[index]))
                stats.diverted_instructions += 1
            else:
                self._enter_scheduler(index)
            if spawn_trigger is not None:
                record_task_instruction(spawn_trigger, producers is not None)

            # Spawning: the tail task extends the task list; with the
            # nested-spawns extension (the paper's future work), a
            # non-tail task may additionally split its own segment to
            # spawn past an inner branch.
            if len(tasks) < max_tasks:
                if task.end_index is None and task is tasks[-1]:
                    if verbose:
                        target = spawn_unit.spawn_target(index, pc)
                        self._emit_spawn_decision(task, index, pc, target)
                        if target >= 0:
                            self._spawn(task, pc, target, index)
                    else:
                        target = spawn_targets[index]
                        if target >= 0 and pc not in suppressed:
                            self._spawn(task, pc, target, index)
                elif nested and task.end_index is not None:
                    target = spawn_unit.spawn_target(index, pc)
                    if 0 <= target < task.end_index:
                        if verbose:
                            self._emit_spawn_decision(task, index, pc, target)
                        self._spawn_nested(task, pc, target, index)
                    elif verbose:
                        self._emit_spawn_decision(
                            task, index, pc, target,
                            rejected="outside-segment" if target >= 0 else None,
                        )
                elif verbose:
                    target = spawn_unit.spawn_target(index, pc)
                    if target >= 0:
                        self._emit_spawn_decision(
                            task, index, pc, target, rejected="not-tail"
                        )
            elif verbose:
                target = spawn_unit.spawn_target(index, pc)
                if target >= 0:
                    self._emit_spawn_decision(
                        task, index, pc, target, rejected="task-limit"
                    )

            # Control flow effects on fetch.
            kind = kinds[index]
            if kind:
                if kind == KIND_COND_BRANCH:
                    stats.conditional_branches += 1
                    taken = takens[index]
                    if gshare_update(pc, taken) != taken:
                        stats.branch_mispredicts += 1
                        task.waiting_branch_index = index
                        break
                    if taken:
                        break  # one taken branch per task per cycle
                else:
                    if kind == KIND_CALL_DIRECT:
                        ras.push(fall_throughs[index])
                    elif kind == KIND_CALL_INDIRECT:
                        ras.push(fall_throughs[index])
                        if not indirect_update(pc, next_pcs[index]):
                            stats.indirect_mispredicts += 1
                            task.waiting_branch_index = index
                    elif kind == KIND_RETURN:
                        if ras.pop() != next_pcs[index]:
                            stats.return_mispredicts += 1
                            task.waiting_branch_index = index
                    elif kind == KIND_SWITCH:
                        if not indirect_update(pc, next_pcs[index]):
                            stats.indirect_mispredicts += 1
                            task.waiting_branch_index = index
                    # Every non-branch transfer (calls, returns,
                    # switches, direct jumps) ends the fetch stream.
                    break
        return budget

    def _emit_spawn_decision(self, task, index, pc, target, rejected=None):
        """Verbose-only bookkeeping of one spawn-unit consultation.

        Emits the hint hit/miss, the spawn request when a target was
        resolved, and — when the machine could not act on it — the
        rejection with its reason.  (Spawn *acceptance* is emitted by
        :meth:`_spawn` / :meth:`_spawn_nested` on every run.)
        """
        hint = self.spawn_unit.hint_for(pc)
        if hint is None and target < 0:
            return
        origin = self._origin_of(task)
        cycle = self._cycle
        task_id = task.task_id
        if hint is not None:
            self.bus.emit(HintLookup(cycle, task_id, index, pc, origin, target >= 0))
        if target >= 0:
            self.bus.emit(SpawnRequested(cycle, task_id, index, pc, origin, target))
            if rejected is not None:
                self.bus.emit(
                    SpawnRejected(cycle, task_id, index, pc, origin, target, rejected)
                )
        elif hint is not None:
            self.bus.emit(
                SpawnRejected(cycle, task_id, index, pc, origin, -1, "no-target")
            )

    def _emit_spawn_accepted(self, spawner, trigger_index, trigger_pc, new_task, nested):
        spawn_point = new_task.spawn_point
        self.bus.emit(
            SpawnAccepted(
                self._cycle,
                spawner.task_id,
                trigger_index,
                trigger_pc,
                self._origin_of(spawner),
                new_task.start_index,
                new_task.task_id,
                spawn_point.category if spawn_point is not None else None,
                nested,
            )
        )
        self.bus.emit(
            TaskStarted(
                self._cycle,
                new_task.task_id,
                new_task.start_index,
                self._pcs[new_task.start_index],
                trigger_pc,
            )
        )

    def _spawn_nested(self, task, trigger_pc, target_index, trigger_index):
        """Split a bounded task's segment at ``target_index``.

        The new task takes over the split-off suffix of the spawner's
        segment, entering the task list right after it (trace order is
        preserved).  This is the future-work extension that lets
        PolyFlow spawn past the branch of an inner hammock even though
        an outer spawn already bounded the task.
        """
        hint = self.spawn_unit.hint_for(trigger_pc)
        spawn_point = hint.spawn_point if hint is not None else None
        new_task = self._new_task(target_index, spawn_point)
        new_task.end_index = task.end_index
        new_task.fetch_stall_until = self._cycle + 1
        new_task.adopt_spawner_ras(task.ras)
        task.end_index = target_index
        # Insert after the spawner to keep the deque sorted by segment.
        position = self._task_position_of_index(task.start_index)
        self._tasks.insert(position + 1, new_task)
        self.spawn_unit.record_spawn(trigger_pc)
        self._emit_spawn_accepted(task, trigger_index, trigger_pc, new_task, True)

    def _spawn(self, tail, trigger_pc, target_index, trigger_index):
        hint = self.spawn_unit.hint_for(trigger_pc)
        spawn_point = hint.spawn_point if hint is not None else None
        tail.end_index = target_index
        new_task = self._new_task(target_index, spawn_point)
        # The spawned task starts fetching the cycle after the spawn,
        # inheriting the spawner's call context (return address stack).
        new_task.fetch_stall_until = self._cycle + 1
        new_task.adopt_spawner_ras(tail.ras)
        self._tasks.append(new_task)
        self.spawn_unit.record_spawn(trigger_pc)
        self._emit_spawn_accepted(tail, trigger_index, trigger_pc, new_task, False)


def simulate(
    trace,
    config=PAPER_CONFIG,
    hint_table=None,
    max_cycles=None,
    bus=None,
):
    """Run the PolyFlow model over ``trace`` and return its stats."""
    return PolyFlowCore(trace, config, hint_table, max_cycles, bus).run()


def simulate_superscalar(trace, base_config=PAPER_CONFIG, max_cycles=None):
    """Run the superscalar baseline (same resources, one task)."""
    config = superscalar_config(base_config)
    return PolyFlowCore(trace, config, HintTable(), max_cycles).run()
