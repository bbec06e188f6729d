"""Property-based equivalence of the fused fast loop and the staged
reference engine.

On randomly generated programs — the plain hammock loops and the
violation-provoking store/load hammocks from the existing
program-builder strategies — a plain :class:`PolyFlowCore` (fused loop)
must be observationally identical to the staged reference: same
:class:`SimStats`, and the same event stream event for event, in both
flavours — the non-verbose lifecycle stream (what the golden traces
render) and the full verbose stream — under both the
control-equivalent policy and the squash-heavy hammock policy.
"""

from hypothesis import given, settings

from tests.helpers import StagedReferenceCore, assert_engines_agree, examples

from repro.cfg import build_program_cfgs
from repro.polyflow import MachineConfig, PolyFlowCore
from repro.sim import run_program
from repro.spawn import SpawnAnalysis, profile_spawn_points

from tests.strategies import random_hammock_programs, violating_programs


def _job(program, spec):
    """``(trace, config, hints)`` of one program under ``spec``."""
    trace = run_program(program)
    analysis = SpawnAnalysis(build_program_cfgs(program))
    policy = analysis.policy(spec)
    profile = profile_spawn_points(trace, policy.points)
    hints = profile.hint_table(policy, min_loop_task_size=4)
    return trace, MachineConfig(min_spawn_distance=2), hints


@given(random_hammock_programs())
@settings(max_examples=examples(20), deadline=None)
def test_fused_and_staged_equivalent_on_random_hammocks(program):
    assert_engines_agree(*_job(program, "postdoms"))


@given(violating_programs())
@settings(max_examples=examples(15), deadline=None)
def test_fused_and_staged_equivalent_under_violations(program):
    """The squash/refetch recovery path: squashed positions are
    refetched, and both stream flavours must still match byte for
    byte."""
    assert_engines_agree(*_job(program, "hammock"))


@given(random_hammock_programs())
@settings(max_examples=examples(10), deadline=None)
def test_fused_and_staged_stats_equivalent_without_bus(program):
    """No sink attached at all: only the always-on stats consumer sees
    the run, and its counters must be identical."""
    trace, config, hints = _job(program, "postdoms")
    fused = PolyFlowCore(trace, config, hints).run()
    staged = StagedReferenceCore(trace, config, hints).run()
    assert fused.as_dict() == staged.as_dict()
