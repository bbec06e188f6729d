"""Corner cases of the fused fast loop against the staged reference.

The differential and golden suites pin the engines against whole
workloads; these tests aim at the event-bucket corners directly — stall
windows with every task asleep, multiple completions due on the same
cycle, minimum-latency completions, squashes landing while cold-cache
misses keep the machine stalled — and at the no-progress guard.

Each check compares the fused loop against the staged reference on the
same job: identical :class:`SimStats` and identical lifecycle and
verbose event streams, byte for byte.
"""

import pytest

from tests.helpers import StagedReferenceCore, assert_engines_agree

from repro.cfg import build_program_cfgs
from repro.errors import SimulationError
from repro.isa import assemble
from repro.polyflow import MachineConfig, PolyFlowCore
from repro.sim import run_program
from repro.spawn import SpawnAnalysis, profile_spawn_points

from tests.strategies import pinned_violating_program


def _prepare(program, spec="postdoms", **config_kwargs):
    trace = run_program(program)
    analysis = SpawnAnalysis(build_program_cfgs(program))
    policy = analysis.policy(spec)
    profile = profile_spawn_points(trace, policy.points)
    hints = profile.hint_table(policy, min_loop_task_size=4)
    config = MachineConfig(min_spawn_distance=2, **config_kwargs)
    return trace, config, hints


_DEPENDENT_LOADS = """
.data
buf: .word 11, 22, 33, 44, 55, 66, 77, 88
.text
    la   r1, buf
    lw   r2, 0(r1)
    add  r3, r2, r2
    lw   r4, 8(r1)
    add  r5, r4, r3
    lw   r6, 16(r1)
    add  r7, r6, r5
    lw   r8, 24(r1)
    add  r9, r8, r7
    halt
"""


def test_all_tasks_stalled_on_cold_cache_misses():
    """A serial chain of cold-cache loads freezes the whole machine for
    the full miss latency; both engines must time those windows
    identically."""
    stats = assert_engines_agree(
        *_prepare(assemble(_DEPENDENT_LOADS), warm_caches=False)
    )
    # The miss windows really existed: far more cycles than a warm run
    # of the same ten instructions could take.
    assert stats["cycles"] > 4 * stats["retired_instructions"]


_TWIN_MULS = """
.text
    li   r1, 6
    li   r2, 7
    mul  r3, r1, r2
    mul  r4, r2, r1
    add  r5, r3, r4
    add  r6, r4, r3
    halt
"""


def test_two_events_due_the_same_cycle():
    """Two multiplies issued in the same cycle complete in the same
    cycle — two bucket entries at one timestamp — and both consumers
    wake together; ties must drain in program order."""
    assert_engines_agree(*_prepare(assemble(_TWIN_MULS)))


def test_min_latency_completions_wake_next_cycle():
    """With ``mul_latency`` floored at one cycle every completion lands
    on the very next cycle's bucket."""
    assert_engines_agree(*_prepare(assemble(_TWIN_MULS), mul_latency=1))


def test_zero_latency_config_fails_identically():
    """``mul_latency=0`` (completion due the cycle of issue) deadlocks
    the machine model; both engines must raise the no-progress guard
    rather than hang or silently diverge."""
    trace, config, hints = _prepare(assemble(_TWIN_MULS), mul_latency=0)
    with pytest.raises(SimulationError):
        PolyFlowCore(trace, config, hints).run()
    with pytest.raises(SimulationError):
        StagedReferenceCore(trace, config, hints).run()


def test_squash_under_cold_cache_stalls():
    """A memory-order violation squashes speculative tasks while cold
    caches keep long stall windows open: recovery re-fetch timing must
    match the staged reference."""
    stats = assert_engines_agree(
        *_prepare(pinned_violating_program(), "hammock", warm_caches=False)
    )
    assert stats["violation_squashes"] > 0
