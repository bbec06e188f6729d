"""Differential tests: PolyFlow commits exactly the architectural path.

PolyFlow is a timing model replaying the committed-path trace produced
by :mod:`repro.sim.functional`; whatever speculation, squashing, and
re-fetching it performs, the *committed* instruction sequence — and
therefore the final architectural state — must be exactly the
functional simulator's.  The commit events of the simulation event bus
make that directly observable: this suite runs every workload under
every policy spec the paper evaluates and checks the committed stream
instruction by instruction.

The suite also pins the core's two engines against each other: the
fused fast loop and the staged reference loop must produce identical
verbose event streams and statistics for the same job.
"""

import io

import pytest

from tests.helpers import StagedReferenceCore

from repro.experiments.runner import REC_PRED_SPEC, build_core, spawn_profile
from repro.isa import assemble
from repro.obs import EventBus, JsonlTraceWriter
from repro.polyflow import PAPER_CONFIG, PolyFlowCore
from repro.sim.functional import FunctionalSimulator
from repro.spawn import canonical_spec
from repro.spawn.hints import HintTable
from repro.spawn.policies import (
    COMBINATION_POLICY_SPECS,
    EXCLUSION_POLICY_SPECS,
    INDIVIDUAL_POLICY_SPECS,
)
from repro.workloads import WORKLOAD_NAMES, prepare_workload, workload_source

_SCALE = 0.1

#: Every spawn-selection scheme the paper evaluates: control-equivalent
#: spawning, the five individual heuristics (Figure 9), the heuristic
#: combinations (Figure 10), the category exclusions (Figure 11), and
#: the dynamic reconvergence predictor (Figure 12).
_POLICIES = (
    ("postdoms",)
    + INDIVIDUAL_POLICY_SPECS
    + COMBINATION_POLICY_SPECS
    + EXCLUSION_POLICY_SPECS
    + (REC_PRED_SPEC,)
)


class _CommitCollector:
    """Verbose bus sink recording the committed instruction stream."""

    def __init__(self):
        self.commits = []

    def on_event(self, event):
        if event.kind == "commit":
            self.commits.append(event)


def _committed_stream(name, policy):
    bus = EventBus()
    collector = bus.attach(_CommitCollector())
    stats = build_core(name, policy, _SCALE, PAPER_CONFIG, bus=bus).run()
    return stats, collector.commits


@pytest.mark.parametrize("policy", _POLICIES)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_committed_sequence_matches_functional(name, policy):
    """The committed stream is the functional trace, in order, exactly once."""
    prepared = prepare_workload(name, _SCALE)
    stats, commits = _committed_stream(name, policy)
    records = prepared.trace.records
    assert stats.retired_instructions == len(records)
    assert [event.trace_index for event in commits] == list(range(len(records)))
    assert [event.pc for event in commits] == [record.inst.pc for record in records]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_final_architectural_state_matches_functional(name):
    """Fresh functional executions agree with the prepared trace and with
    each other, so the state PolyFlow's committed stream implies is the
    architectural one."""
    program = assemble(workload_source(name, _SCALE))
    first = FunctionalSimulator(program)
    first_trace = first.run()
    second = FunctionalSimulator(program)
    second.run()
    assert first.final_state.registers == second.final_state.registers
    assert first.final_state.memory == second.final_state.memory

    prepared = prepare_workload(name, _SCALE)
    assert len(first_trace) == len(prepared.trace)
    assert [record.inst.pc for record in first_trace.records] == [
        record.inst.pc for record in prepared.trace.records
    ]


@pytest.mark.parametrize("name", ("gzip", "twolf", "crafty"))
def test_policies_commit_identical_streams(name):
    """Different spawn policies must not change *what* commits, only when.

    Uses the human-readable aliases so the alias-canonicalization path
    stays covered too.
    """
    _, control = _committed_stream(name, "control-equivalent")
    _, heuristic = _committed_stream(name, "best-heuristic")
    assert [event.trace_index for event in control] == [
        event.trace_index for event in heuristic
    ]
    assert [event.pc for event in control] == [event.pc for event in heuristic]


# -- engine equivalence ---------------------------------------------------------


def _verbose_stream(name, spec, core_cls):
    """The full verbose event stream of one run, as JSONL text."""
    spec = canonical_spec(spec)
    prepared = prepare_workload(name, _SCALE)
    config = PAPER_CONFIG
    buffer = io.StringIO()
    bus = EventBus()
    writer = bus.attach(JsonlTraceWriter(buffer), verbose=True)
    if spec == REC_PRED_SPEC:
        from repro.reconvergence import build_reconvergence_spawner

        core = core_cls(prepared.trace, config, HintTable(), bus=bus)
        core.spawn_unit = build_reconvergence_spawner(prepared, config)
    else:
        profile = spawn_profile(name, _SCALE, config.max_spawn_distance)
        policy = prepared.spawn_analysis.policy(spec)
        core = core_cls(prepared.trace, config, profile.hint_table(policy), bus=bus)
    stats = core.run()
    writer.close()
    return stats, buffer.getvalue()


@pytest.mark.parametrize("spec", ("postdoms", "loop+procFT+loopFT", REC_PRED_SPEC))
@pytest.mark.parametrize("name", ("gzip", "mcf", "crafty"))
def test_fast_and_staged_engines_are_equivalent(name, spec):
    """Fast and staged engines emit byte-identical verbose streams.

    mcf is included because its run contains a dependence violation and
    the resulting squash chain, so the recovery paths are compared too.
    """
    fast_stats, fast_stream = _verbose_stream(name, spec, PolyFlowCore)
    staged_stats, staged_stream = _verbose_stream(name, spec, StagedReferenceCore)
    assert fast_stream == staged_stream
    assert fast_stats.as_dict() == staged_stats.as_dict()


def test_fast_and_staged_nonverbose_stats_equivalent():
    """Without a verbose bus the fast loop skips per-instruction event
    construction and reads the spawn unit's resolved-target table
    directly; stats must still match the staged reference exactly."""
    prepared = prepare_workload("vortex", _SCALE)
    profile = spawn_profile("vortex", _SCALE, PAPER_CONFIG.max_spawn_distance)
    hints = profile.hint_table(prepared.spawn_analysis.policy("postdoms"))
    fast = PolyFlowCore(prepared.trace, PAPER_CONFIG, hints).run()
    staged = StagedReferenceCore(prepared.trace, PAPER_CONFIG, hints).run()
    assert fast.as_dict() == staged.as_dict()


def test_staged_subclass_actually_runs_staged_engine():
    """Guard the guard: the shared staged subclass must select the
    staged engine, and a plain core must not."""
    prepared = prepare_workload("gzip", _SCALE)
    profile = spawn_profile("gzip", _SCALE, PAPER_CONFIG.max_spawn_distance)
    hints = profile.hint_table(prepared.spawn_analysis.policy("postdoms"))
    staged = StagedReferenceCore(prepared.trace, PAPER_CONFIG, hints)
    fast = PolyFlowCore(prepared.trace, PAPER_CONFIG, hints)
    assert staged._stage_hooks_overridden()
    assert not fast._stage_hooks_overridden()
