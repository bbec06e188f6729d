"""Property tests: the analysis cache is observably transparent.

Whatever the cache does — memory hits, disk round trips, sharing one
:class:`~repro.analysis.pipeline.ProgramAnalyses` across callers — the
values it hands out must be exactly what a cold pipeline run computes,
and nothing a caller does to a returned structure may leak back into
later lookups.
"""

import os
import pickle
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import examples
from tests.strategies import synth_sources

from repro.analysis.pipeline import (
    AnalysisCache,
    compute_analyses,
    source_digest,
)

_SETTINGS = dict(max_examples=examples(15), deadline=None)

# Small loop-plus-hammock programs with drawn dial/shape parameters:
# every example exercises the whole pipeline on a distinct program text.
small_loop_sources = synth_sources


def _fingerprint(analyses):
    """Value snapshot of everything the cache is trusted to preserve."""
    return (
        analyses.digest,
        tuple(record.inst.pc for record in analyses.trace.records),
        tuple(record.next_pc for record in analyses.trace.records),
        len(analyses.cfgs),
        tuple(
            (point.trigger_pc, point.spawn_pc, point.category)
            for point in analyses.postdominator_points()
        ),
        tuple(
            (point.trigger_pc, point.spawn_pc, point.category)
            for point in analyses.loop_points()
        ),
    )


@settings(**_SETTINGS)
@given(source=small_loop_sources())
def test_cache_hit_equals_cold_compute(source):
    """A cached lookup returns values identical to a cold pipeline run,
    and the second lookup is a hit returning the same object."""
    cache = AnalysisCache()
    first = cache.analyses_for(source)
    second = cache.analyses_for(source)
    assert second is first
    assert cache.hits == 1 and cache.misses == 1
    assert _fingerprint(first) == _fingerprint(compute_analyses(source))
    assert first.digest == source_digest(source)


@settings(**_SETTINGS)
@given(source=small_loop_sources())
def test_mutating_returned_points_cannot_poison_cache(source):
    """The point accessors return fresh lists; clobbering them (and the
    profile-input list they feed) must not change later lookups."""
    cache = AnalysisCache()
    analyses = cache.analyses_for(source)
    expected = _fingerprint(analyses)

    stolen = analyses.postdominator_points()
    stolen.clear()
    stolen.append("poison")
    analyses.loop_points().clear()

    again = cache.analyses_for(source)
    assert _fingerprint(again) == expected
    assert again.postdominator_points() != stolen


@settings(**_SETTINGS)
@given(
    source=small_loop_sources(),
    distance=st.integers(min_value=1, max_value=64),
)
def test_spawn_profile_memo_is_transparent(source, distance):
    """The per-distance profile memo returns the same object per
    distance, with hint tables equal to an unmemoized recompute."""
    from repro.spawn import profile_spawn_points

    cache = AnalysisCache()
    analyses = cache.analyses_for(source)
    memoized = analyses.spawn_profile(distance)
    assert analyses.spawn_profile(distance) is memoized

    points = analyses.postdominator_points() + analyses.loop_points()
    fresh = profile_spawn_points(analyses.trace, points, distance)
    policy = analyses.spawn_analysis.policy("postdoms")
    memo_hints = memoized.hint_table(policy)
    fresh_hints = fresh.hint_table(policy)
    assert len(memo_hints) == len(fresh_hints)
    for point in policy:
        memo_entry = memo_hints.lookup(point.trigger_pc)
        fresh_entry = fresh_hints.lookup(point.trigger_pc)
        assert (memo_entry is None) == (fresh_entry is None)
        if memo_entry is not None:
            assert memo_entry.spawn_point.key() == fresh_entry.spawn_point.key()


@settings(**_SETTINGS)
@given(source=small_loop_sources())
def test_disk_layer_round_trips_by_value(source):
    """A fresh cache reloading from disk sees the same values the
    computing cache produced, and flags a disk hit, not a miss."""
    root = tempfile.mkdtemp(prefix="analysis-cache-prop-")
    try:
        writer = AnalysisCache(disk_root=root)
        computed = writer.analyses_for(source)
        assert writer.misses == 1

        reader = AnalysisCache(disk_root=root)
        reloaded = reader.analyses_for(source)
        assert reader.disk_hits == 1 and reader.misses == 0
        assert reloaded is not computed
        assert _fingerprint(reloaded) == _fingerprint(computed)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_stale_format_disk_entry_is_a_miss_and_is_overwritten():
    """An entry written under an older ``ANALYSIS_FORMAT_VERSION`` (v2
    pickles carried the removed block tables) is recomputed and
    replaced at the current version, never loaded."""
    from repro.analysis import pipeline

    source = """
        .text
        main:
            li   r1, 4
        loop:
            addi r1, r1, -1
            bne  r1, r0, loop
            halt
    """
    root = tempfile.mkdtemp(prefix="analysis-cache-stale-")
    try:
        computed = AnalysisCache(disk_root=root).analyses_for(source)
        path = AnalysisCache(disk_root=root)._path(source_digest(source))
        with open(path, "wb") as handle:
            stale = pipeline.ANALYSIS_FORMAT_VERSION - 1
            pickle.dump({"version": stale, "analyses": computed}, handle)

        fresh = AnalysisCache(disk_root=root)
        recomputed = fresh.analyses_for(source)
        assert fresh.misses == 1 and fresh.disk_hits == 0
        assert _fingerprint(recomputed) == _fingerprint(computed)
        with open(path, "rb") as handle:
            assert pickle.load(handle)["version"] == pipeline.ANALYSIS_FORMAT_VERSION
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_corrupt_disk_entry_is_a_miss_and_is_overwritten():
    """Truncated or garbage entries never propagate: the cache
    recomputes and replaces them."""
    source = """
        .text
        main:
            li   r10, 4
        loop:
            addi r3, r3, 1
            addi r10, r10, -1
            bgtz r10, loop
            halt
    """
    root = tempfile.mkdtemp(prefix="analysis-cache-corrupt-")
    try:
        cache = AnalysisCache(disk_root=root)
        computed = cache.analyses_for(source)
        digest = source_digest(source)
        path = cache._path(digest)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")

        fresh = AnalysisCache(disk_root=root)
        recomputed = fresh.analyses_for(source)
        assert fresh.misses == 1 and fresh.disk_hits == 0
        assert _fingerprint(recomputed) == _fingerprint(computed)
        assert os.path.getsize(path) > len(b"not a pickle")

        reader = AnalysisCache(disk_root=root)
        reader.analyses_for(source)
        assert reader.disk_hits == 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
