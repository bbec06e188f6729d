"""Tests for the parallel runner and the on-disk result cache."""

import dataclasses
import os
import pickle

import pytest

from repro.experiments import figures
from repro.experiments.parallel import (
    ParallelExperimentRunner,
    ResultCache,
    RunSummary,
    job_digest,
)
from repro.experiments.runner import (
    SUPERSCALAR_SPEC,
    ExperimentRunner,
    simulate_job,
)
from repro.polyflow import PAPER_CONFIG
from repro.workloads import clear_cache

_SCALE = 0.1
_NAMES = ("gzip", "twolf")


@pytest.fixture(scope="module", autouse=True)
def _fresh_workloads():
    clear_cache()


@pytest.fixture()
def serial():
    return ExperimentRunner(scale=_SCALE, workload_names=_NAMES)


def _parallel(tmp_path, jobs=2, cache=True):
    return ParallelExperimentRunner(
        scale=_SCALE,
        workload_names=_NAMES,
        jobs=jobs,
        cache_dir=str(tmp_path / "cache") if cache else None,
    )


# -- parallel == serial -----------------------------------------------------------


def test_fig9_parallel_matches_serial(serial, tmp_path):
    parallel = _parallel(tmp_path, jobs=2)
    grid = len(parallel.normalize_jobs(figures.figure_jobs("fig9", parallel)))
    parallel.prefetch(figures.figure_jobs("fig9", parallel))
    assert figures.figure9(parallel).render() == figures.figure9(serial).render()
    # The whole grid ran in the pool; rendering added no serial sims.
    assert parallel.summary.jobs_run == grid
    assert parallel.normalize_jobs(figures.figure_jobs("fig9", parallel)) == []


def test_fig12_parallel_matches_serial(serial, tmp_path):
    parallel = _parallel(tmp_path, jobs=2)
    parallel.prefetch(figures.figure_jobs("fig12", parallel))
    assert figures.figure12(parallel).render() == figures.figure12(serial).render()


def test_jobs_1_uses_serial_path(tmp_path, monkeypatch):
    from repro.experiments import scheduler

    def _no_pool(*args, **kwargs):
        raise AssertionError("jobs=1 must never create a process pool")

    monkeypatch.setattr(scheduler, "warm_pool", _no_pool)
    runner = _parallel(tmp_path, jobs=1)
    ran = runner.prefetch([("gzip", "postdoms"), ("gzip", SUPERSCALAR_SPEC)])
    assert ran == 2
    assert runner.speedup("gzip", "postdoms") == pytest.approx(
        ExperimentRunner(scale=_SCALE, workload_names=_NAMES).speedup(
            "gzip", "postdoms"
        )
    )


# -- the on-disk cache ------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    first = _parallel(tmp_path, jobs=1)
    first.prefetch([("gzip", "postdoms")])
    assert first.summary.jobs_run == 1
    assert first.summary.cache_hits == 0
    assert len(first.cache) == 1

    second = _parallel(tmp_path, jobs=1)
    ran = second.prefetch([("gzip", "postdoms")])
    assert ran == 0
    assert second.summary.jobs_run == 0
    assert second.summary.cache_hits == 1
    assert (
        second.run_policy("gzip", "postdoms").cycles
        == first.run_policy("gzip", "postdoms").cycles
    )


def test_cache_misses_on_config_change(tmp_path):
    runner = _parallel(tmp_path, jobs=1)
    runner.prefetch([("gzip", "postdoms")])

    modified = dataclasses.replace(PAPER_CONFIG, rob_entries=256)
    changed = ParallelExperimentRunner(
        scale=_SCALE,
        config=modified,
        workload_names=_NAMES,
        jobs=1,
        cache_dir=str(tmp_path / "cache"),
    )
    ran = changed.prefetch([("gzip", "postdoms")])
    assert ran == 1
    assert changed.summary.cache_hits == 0


def test_cache_survives_corrupt_entry(tmp_path):
    runner = _parallel(tmp_path, jobs=1)
    runner.prefetch([("gzip", "postdoms")])
    digest = job_digest(
        "gzip", "postdoms", _SCALE, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance
    )
    # "garbage\n" makes pickle raise ValueError (not UnpicklingError):
    # any exception type must count as a miss.
    with open(runner.cache.path(digest), "wb") as handle:
        handle.write(b"garbage\n")

    recovered = _parallel(tmp_path, jobs=1)
    ran = recovered.prefetch([("gzip", "postdoms")])
    assert ran == 1  # corrupt entry treated as a miss and rewritten
    with open(recovered.cache.path(digest), "rb") as handle:
        entry = pickle.load(handle)
    assert entry["meta"]["workload"] == "gzip"


def test_previous_format_entry_is_a_clean_miss(tmp_path, monkeypatch):
    """A result written under cache format v2 (by the removed block
    engine, event kernel or grid-batch paths, some with wrong cycle
    counts) is never served: it reads as a clean miss, not as a
    corrupt entry, and the cell is re-simulated."""
    from repro.experiments import parallel

    assert parallel.CACHE_FORMAT_VERSION == 3
    args = ("gzip", "postdoms", _SCALE, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance)
    with monkeypatch.context() as patched:
        patched.setattr(parallel, "CACHE_FORMAT_VERSION", 2)
        stale_digest = job_digest(*args)
    poisoned = simulate_job(*args)
    poisoned.cycles += 1
    stale = ResultCache(str(tmp_path / "cache"))
    stale.store(stale_digest, poisoned, {"workload": "gzip", "version": 2})

    runner = _parallel(tmp_path, jobs=1)
    assert runner.prefetch([("gzip", "postdoms")]) == 1
    assert runner.summary.cache_hits == 0
    assert runner.summary.corrupt_entries == []
    assert runner.cache.misses >= 1 and runner.cache.corrupt == 0
    assert runner.run_policy("gzip", "postdoms").cycles == poisoned.cycles - 1
    assert job_digest(*args) != stale_digest


def test_cache_load_distinguishes_missing_from_corrupt(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    digest = "ab" + "0" * 62
    assert cache.load(digest) is None
    assert (cache.misses, cache.corrupt) == (1, 0)

    os.makedirs(os.path.dirname(cache.path(digest)), exist_ok=True)
    with open(cache.path(digest), "wb") as handle:
        handle.write(b"garbage\n")
    assert cache.load(digest) is None
    assert (cache.misses, cache.corrupt) == (1, 1)
    assert cache.corrupt_paths == [cache.path(digest)]


def test_corrupt_entry_surfaced_in_run_summary(tmp_path):
    runner = _parallel(tmp_path, jobs=1)
    runner.prefetch([("gzip", "postdoms")])
    digest = job_digest(
        "gzip", "postdoms", _SCALE, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance
    )
    with open(runner.cache.path(digest), "wb") as handle:
        handle.write(b"garbage\n")

    recovered = _parallel(tmp_path, jobs=1)
    assert recovered.prefetch([("gzip", "postdoms")]) == 1
    assert recovered.summary.corrupt_entries == [recovered.cache.path(digest)]
    rendered = recovered.summary.render()
    assert "1 corrupt cache entries re-simulated" in rendered
    assert recovered.cache.path(digest) in rendered


def test_job_digest_sensitivity():
    base = job_digest("gzip", "postdoms", 0.1, PAPER_CONFIG, 512)
    assert base == job_digest("gzip", "postdoms", 0.1, PAPER_CONFIG, 512)
    assert base != job_digest("twolf", "postdoms", 0.1, PAPER_CONFIG, 512)
    assert base != job_digest("gzip", "loop", 0.1, PAPER_CONFIG, 512)
    assert base != job_digest("gzip", "postdoms", 0.2, PAPER_CONFIG, 512)
    assert base != job_digest("gzip", "postdoms", 0.1, PAPER_CONFIG, 256)
    modified = dataclasses.replace(PAPER_CONFIG, width=4)
    assert base != job_digest("gzip", "postdoms", 0.1, modified, 512)


# -- runner plumbing --------------------------------------------------------------


def test_workload_is_memoized(serial, monkeypatch):
    from repro.experiments import runner as runner_module

    calls = []
    real_prepare = runner_module.prepare_workload

    def counting_prepare(name, scale):
        calls.append(name)
        return real_prepare(name, scale)

    monkeypatch.setattr(runner_module, "prepare_workload", counting_prepare)
    runner = ExperimentRunner(scale=_SCALE, workload_names=_NAMES)
    first = runner.workload("gzip")
    second = runner.workload("gzip")
    assert first is second
    assert calls == ["gzip"]


def test_normalize_jobs_deduplicates_and_orders(serial):
    jobs = serial.normalize_jobs(
        [
            ("twolf", "postdoms"),
            ("gzip", "postdoms"),
            ("gzip", "postdoms"),
            ("gzip", "postdoms", serial.config),
        ]
    )
    assert [(name, spec) for name, spec, _, _ in jobs] == [
        ("gzip", "postdoms"),
        ("twolf", "postdoms"),
    ]


def test_normalize_jobs_skips_memoized(serial):
    serial.run_policy("gzip", "postdoms")
    assert serial.normalize_jobs([("gzip", "postdoms")]) == []


def test_simulate_job_is_picklable_and_deterministic():
    first = simulate_job("gzip", "postdoms", _SCALE, PAPER_CONFIG)
    second = pickle.loads(pickle.dumps(first))
    assert second.cycles == first.cycles
    assert second.ipc == first.ipc
    assert second.spawns_by_category == first.spawns_by_category


def test_run_summary_render():
    summary = RunSummary()
    summary.record_job("gzip", "postdoms", 1.25)
    summary.record_job("twolf", "loop", 0.5)
    summary.record_hit()
    summary.wall_seconds = 1.5
    rendered = summary.render()
    assert "2 simulated" in rendered
    assert "1 cache hits" in rendered
    assert summary.total_sim_seconds == pytest.approx(1.75)
    assert summary.slowest(1) == [("gzip", "postdoms", 1.25)]


def test_run_summary_as_dict_exposes_structured_fields():
    summary = RunSummary()
    summary.record_job("gzip", "postdoms", 1.25)
    summary.record_hit()
    summary.record_pool_restart()
    summary.record_corrupt("/cache/aa/bb.pkl")
    payload = summary.as_dict()
    assert payload["jobs_run"] == 1
    assert payload["cache_hits"] == 1
    assert payload["pool_restarts"] == 1
    assert payload["corrupt_cache_entries"] == 1
    assert payload["corrupt_cache_paths"] == ["/cache/aa/bb.pkl"]
    # The payload is pure JSON (the service serves it from /healthz).
    import json

    assert json.loads(json.dumps(payload)) == payload
    assert "1 worker-pool restart(s)" in summary.render()


def test_broken_pool_is_restarted_and_grid_replanned(tmp_path):
    from tests.faults import broken_pool

    runner = ParallelExperimentRunner(
        scale=_SCALE,
        workload_names=_NAMES,
        jobs=2,
        cpus=4,
        inline_threshold=1,
        cache_dir=str(tmp_path / "cache"),
    )
    with broken_pool(fail_submits={0}) as plan:
        ran = runner.prefetch([("gzip", "postdoms"), ("twolf", "postdoms")])
    assert plan.broken == 1
    assert ran == 2
    assert runner.summary.pool_restarts == 1
    serial = ExperimentRunner(scale=_SCALE, workload_names=_NAMES)
    for name in _NAMES:
        assert runner.run_policy(name, "postdoms").cycles == serial.run_policy(
            name, "postdoms"
        ).cycles


def test_broken_pool_raises_after_retry_budget(tmp_path):
    from concurrent.futures.process import BrokenProcessPool

    from tests.faults import broken_pool

    runner = ParallelExperimentRunner(
        scale=_SCALE,
        workload_names=_NAMES,
        jobs=2,
        cpus=4,
        inline_threshold=1,
        cache_dir=str(tmp_path / "cache"),
        pool_retries=0,
    )
    with broken_pool(fail_submits=set(range(64))):
        with pytest.raises(BrokenProcessPool):
            runner.prefetch([("gzip", "postdoms"), ("twolf", "postdoms")])
    assert runner.summary.pool_restarts == 1


def test_result_cache_len_counts_entries(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    assert len(cache) == 0
    cache.store("ab" + "0" * 62, object(), {"meta": True})
    cache.store("cd" + "0" * 62, object(), {"meta": True})
    assert len(cache) == 2


def test_cli_flags(tmp_path, capsys):
    from repro.experiments.__main__ import main

    assert (
        main(
            [
                "fig8",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cli-cache"),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "Figure 8" in captured.out
    assert "run summary" in captured.err
