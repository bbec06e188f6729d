"""Reproduce the paper's Figures 1-3 exactly.

Figure 1 is a loop containing an if-then-else: blocks A..F.  Figure 2 is
its postdominator tree, Figure 3 its control dependence graph.
"""

from tests.helpers import paper_figure1_cfg

from repro.analysis import (
    compute_control_dependence,
    compute_postdominator_tree,
)

A, B, C, D, E, F = range(6)


def test_figure2_postdominator_tree():
    cfg = paper_figure1_cfg()
    tree = compute_postdominator_tree(cfg)
    # "The parent of each node is its immediate postdominator."
    assert tree.parent(A) == B
    assert tree.parent(B) == E
    assert tree.parent(C) == E
    assert tree.parent(D) == E
    assert tree.parent(E) == F
    assert tree.parent(F) == cfg.exit_index


def test_figure2_postdominance_facts():
    cfg = paper_figure1_cfg()
    tree = compute_postdominator_tree(cfg)
    # "E postdominates B because control flow is guaranteed to reach E
    # whenever it reaches B."
    assert tree.dominates(E, B)
    assert tree.dominates(F, A)
    assert not tree.dominates(C, B)
    assert not tree.dominates(D, B)


def test_figure3_control_dependences():
    cfg = paper_figure1_cfg()
    cdg = compute_control_dependence(cfg)
    # "blocks A, B, E and F are all control dependent on the loop branch
    # in block F"
    assert cdg.dependents_of(F) == frozenset({A, B, E, F})
    # "block E is not control dependent on either B, C or D"
    assert not cdg.is_control_dependent(E, B)
    assert not cdg.is_control_dependent(E, C)
    assert not cdg.is_control_dependent(E, D)
    # C and D are the two arms of the hammock branch in B.
    assert cdg.dependents_of(B) == frozenset({C, D})


def test_branch_in_b_spawns_e():
    """When block B is fetched, the spawn mechanism may spawn block E
    (the immediate postdominator of the branch in block B)."""
    cfg = paper_figure1_cfg()
    tree = compute_postdominator_tree(cfg)
    assert tree.parent(B) == E


def test_headline_ordering_control_equivalent_spawning_wins():
    """The paper's conclusion at scale 0.1: control-equivalent spawning
    (``postdoms``) beats both the best single heuristic (Figure 9) and
    the best heuristic combination (Figure 10) on average speedup, so a
    timing-model change that flips the paper's ordering fails here."""
    from repro.experiments import ExperimentRunner, figure9, figure10, headline_ratios

    runner = ExperimentRunner(scale=0.1)
    heuristic_ratio, combination_ratio = headline_ratios(
        figure9(runner), figure10(runner)
    )
    assert heuristic_ratio > 1.0
    assert combination_ratio > 1.0
