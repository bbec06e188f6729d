"""Shared test helpers."""

import io
import os

from repro.cfg import BasicBlock, ControlFlowGraph
from repro.isa.instructions import Instruction, Opcode
from repro.obs import LIFECYCLE_KINDS, EventBus, JsonlTraceWriter
from repro.polyflow import PolyFlowCore

#: Hypothesis profile selected for this run (registered in
#: tests/conftest.py; the nightly workflow exports
#: ``HYPOTHESIS_PROFILE=ci-long``).
HYPOTHESIS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "dev")

_CI_LONG_MULTIPLIER = 10


def examples(budget):
    """Per-test Hypothesis example budget under the active profile.

    Each property test carries a budget tuned so the full tier-1 suite
    stays fast; the nightly ``ci-long`` profile multiplies every budget
    by ``_CI_LONG_MULTIPLIER`` for a deeper (and derandomized) sweep.
    A multiplier on the tuned per-test budgets — rather than a single
    profile-wide ``max_examples`` — preserves the relative weighting
    between cheap and expensive properties.
    """
    if HYPOTHESIS_PROFILE == "ci-long":
        return budget * _CI_LONG_MULTIPLIER
    return budget


def make_cfg(edge_list, block_count, exit_blocks, entry_index=0, name="test"):
    """Construct a CFG directly from an edge list.

    Blocks are filled with single NOP instructions at distinct PCs so
    that pc-based queries work.

    Args:
        edge_list: Iterable of ``(source, destination)`` block-index pairs.
        block_count: Number of basic blocks.
        exit_blocks: Block indices with an edge to the virtual exit.
        entry_index: Entry block index.
        name: CFG name.
    """
    blocks = [
        BasicBlock(index, [Instruction(0x1000 + 4 * index, Opcode.NOP, text="nop")])
        for index in range(block_count)
    ]
    cfg = ControlFlowGraph(blocks, entry_index, name=name)
    for source, destination in edge_list:
        cfg.add_edge(source, destination)
    for source in exit_blocks:
        cfg.add_exit_edge(source)
    return cfg


def paper_figure1_cfg():
    """The loop-with-hammock CFG of the paper's Figure 1.

    Blocks 0..5 correspond to A..F: A->B; B->C|D; C->E; D->E; E->F;
    F->A (loop back edge) and F->exit.
    """
    a, b, c, d, e, f = range(6)
    return make_cfg(
        [(a, b), (b, c), (b, d), (c, e), (d, e), (e, f), (f, a)],
        block_count=6,
        exit_blocks=[f],
        name="figure1",
    )


class StagedReferenceCore(PolyFlowCore):
    """Forces the staged reference engine.

    Overriding any stage hook — here with a pass-through — makes
    ``_stage_hooks_overridden`` pick ``_run_staged``, without changing
    behaviour.  Comparing this against a plain ``PolyFlowCore`` (which
    takes the fused fast loop) pins the two engines to each other.
    """

    def _fetch(self):
        PolyFlowCore._fetch(self)


def as_staged(core):
    """Switch an unrun ``PolyFlowCore`` (e.g. from ``build_core``) to
    the staged reference engine; returns it."""
    core.__class__ = StagedReferenceCore
    return core


def run_streamed(core, verbose):
    """Run ``core`` with a JSONL writer attached; returns
    ``(stats_dict, stream_text)``.

    ``verbose`` selects the full per-instruction stream; otherwise a
    non-verbose writer records the lifecycle kinds only.  The core must
    have been built with a fresh, sink-free ``bus``.
    """
    buffer = io.StringIO()
    if verbose:
        writer = core.bus.attach(JsonlTraceWriter(buffer), verbose=True)
    else:
        writer = core.bus.attach(
            JsonlTraceWriter(buffer, kinds=LIFECYCLE_KINDS), verbose=False
        )
    stats = core.run()
    writer.close()
    return stats.as_dict(), buffer.getvalue()


def assert_engines_agree(trace, config, hints, flavours=(False, True)):
    """Fused and staged engines give identical stats and event streams
    on one job, for each stream flavour (False = lifecycle, True =
    verbose); returns the fused stats dict of the last flavour."""
    for verbose in flavours:
        fused = run_streamed(
            PolyFlowCore(trace, config, hints, bus=EventBus()), verbose
        )
        staged = run_streamed(
            StagedReferenceCore(trace, config, hints, bus=EventBus()), verbose
        )
        assert fused[1] == staged[1]
        assert fused[0] == staged[0]
    return fused[0]
