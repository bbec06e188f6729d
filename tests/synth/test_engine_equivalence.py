"""Engine equivalence over synthesized catalog scenarios.

A rotating stratified sample of catalog programs — the rotation token
derives from the catalog's content digest, never from wall clock, so a
given catalog always samples the same scenarios — must produce
byte-identical stats and event streams from the fused fast loop and
the staged reference engine, in both the verbose and the lifecycle
stream flavours.
"""

import pytest

from tests.helpers import HYPOTHESIS_PROFILE, assert_engines_agree

from repro.cfg import build_program_cfgs
from repro.isa import assemble
from repro.polyflow import MachineConfig
from repro.sim import run_program
from repro.spawn import SpawnAnalysis, profile_spawn_points
from repro.workloads.synth import build_scenario, stratified_sample

_SCALE = 0.4
_SAMPLE = 24 if HYPOTHESIS_PROFILE == "ci-long" else 8


def _sample_names():
    # token defaults to the catalog digest: the sample rotates exactly
    # when the catalog itself changes
    return stratified_sample(_SAMPLE)


def _prepare(name):
    bundle = build_scenario(name, _SCALE)
    program = assemble(bundle.source)
    trace = run_program(program)
    analysis = SpawnAnalysis(build_program_cfgs(program))
    spec = "hammock" if bundle.dials.conflict else "postdoms"
    policy = analysis.policy(spec)
    profile = profile_spawn_points(trace, policy.points)
    hints = profile.hint_table(policy, min_loop_task_size=4)
    return trace, hints


def _assert_fused_matches_staged(name, verbose):
    trace, hints = _prepare(name)
    assert_engines_agree(
        trace, MachineConfig(min_spawn_distance=2), hints, flavours=(verbose,)
    )


@pytest.mark.parametrize("name", _sample_names())
def test_fused_vs_staged_verbose_on_catalog(name):
    _assert_fused_matches_staged(name, verbose=True)


@pytest.mark.parametrize("name", _sample_names())
def test_fused_vs_staged_lifecycle_on_catalog(name):
    _assert_fused_matches_staged(name, verbose=False)
