"""Fused vs staged at the scales the figures run.

The other engine-equivalence suites run at scale 0.1 or on ~1k-
instruction synth traces.  A fast-path shortcut that only diverges
deep into a long trace (the removed block engine gave twolf's
scale-0.5 prefix 8108 cycles instead of 8109) slips past those, so this
suite pins a fixed slice of Figure 9 cells at scale 0.5: the fused loop
must give exactly the staged reference's non-verbose statistics.  Under
the nightly ``ci-long`` profile the slice widens to every workload x
the Figure 9 specs and the superscalar baseline x scales 0.1, 0.5 and
1.0.
"""

import pytest

from tests.helpers import HYPOTHESIS_PROFILE, as_staged

from repro.experiments.figures import FIGURE9_SPECS
from repro.experiments.runner import SUPERSCALAR_SPEC, build_core
from repro.polyflow import PAPER_CONFIG, PolyFlowCore, superscalar_config
from repro.sim.trace import Trace
from repro.spawn.hints import HintTable
from repro.workloads import WORKLOAD_NAMES, prepare_workload

#: twolf under the baseline and the three specs the block engine got
#: wrong, plus one cell each from two other workloads: memory-bound
#: mcf and call-heavy parser under a heuristic combination.
_SLICE = (
    ("twolf", SUPERSCALAR_SPEC, 0.5),
    ("twolf", "postdoms", 0.5),
    ("twolf", "loop", 0.5),
    ("twolf", "hammock", 0.5),
    ("mcf", "postdoms", 0.5),
    ("parser", "loop+procFT+loopFT", 0.5),
)

if HYPOTHESIS_PROFILE == "ci-long":
    _CELLS = tuple(
        (name, spec, scale)
        for scale in (0.1, 0.5, 1.0)
        for name in WORKLOAD_NAMES
        for spec in (SUPERSCALAR_SPEC,) + FIGURE9_SPECS
    )
else:
    _CELLS = _SLICE


def test_twolf_prefix_cycle_count():
    """The minimal repro of the block-engine divergence: the first
    10029 records of twolf at scale 0.5 (the last one the back-edge to
    0x9018) take 8109 cycles on the superscalar baseline."""
    records = prepare_workload("twolf", 0.5).trace.records[:10029]
    config = superscalar_config(PAPER_CONFIG)
    trace = Trace(records, False)
    fused = PolyFlowCore(trace, config, HintTable()).run()
    staged = as_staged(PolyFlowCore(trace, config, HintTable())).run()
    assert fused.cycles == 8109
    assert staged.cycles == 8109


@pytest.mark.parametrize("name,spec,scale", _CELLS)
def test_fused_matches_staged_at_figure_scale(name, spec, scale):
    fused = build_core(name, spec, scale, PAPER_CONFIG).run()
    staged = as_staged(build_core(name, spec, scale, PAPER_CONFIG)).run()
    assert fused.as_dict() == staged.as_dict()
