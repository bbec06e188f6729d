"""Unit tests for the benchmark harness's regression-gate arithmetic.

The gate itself runs in CI against real measurements; these tests pin
its decision logic — normalization by the machine calibration index,
the tolerance floor, and the jobs4 opt-in — on synthetic reports.
"""

import importlib.util
import os

_BENCH_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "bench_kernel.py"
)
_spec = importlib.util.spec_from_file_location("bench_kernel", _BENCH_PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _report(serial_ips, machine_index=1000.0, jobs4_ips=None, cache_lps=None):
    report = {
        "machine_index": machine_index,
        "serial": {"aggregate_ips": serial_ips},
    }
    if jobs4_ips is not None:
        report["jobs4"] = {"ips": jobs4_ips}
    if cache_lps is not None:
        report["cache_hit"] = {"loads_per_second": cache_lps}
    return report


def _efficiency_report(ratio, mode="pool", cpus=4):
    return {"efficiency": {"ratio": ratio, "mode": mode, "cpus": cpus}}


def test_speedup_is_plain_ratio_on_identical_machines():
    speedups = bench.speedup_vs_baseline(_report(200.0), _report(100.0))
    assert speedups == {"serial": 2.0}


def test_speedup_normalizes_away_machine_speed():
    """Twice the ips on a machine with twice the calibration index is
    no speedup at all."""
    speedups = bench.speedup_vs_baseline(
        _report(200.0, machine_index=2000.0), _report(100.0, machine_index=1000.0)
    )
    assert abs(speedups["serial"] - 1.0) < 1e-12


def test_speedup_includes_jobs4_only_when_both_sides_have_it():
    with_jobs = _report(100.0, jobs4_ips=300.0)
    without_jobs = _report(100.0)
    assert "jobs4" in bench.speedup_vs_baseline(with_jobs, with_jobs)
    assert "jobs4" not in bench.speedup_vs_baseline(with_jobs, without_jobs)
    assert "jobs4" not in bench.speedup_vs_baseline(without_jobs, with_jobs)


def test_gate_passes_at_parity_and_within_tolerance():
    reference = _report(100.0, jobs4_ips=300.0)
    assert bench.check_regression(reference, reference, 0.15) == []
    slightly_slower = _report(90.0, jobs4_ips=270.0)
    assert bench.check_regression(slightly_slower, reference, 0.15) == []


def test_gate_fails_beyond_tolerance():
    reference = _report(100.0, jobs4_ips=300.0)
    regressed = _report(80.0, jobs4_ips=300.0)
    failures = bench.check_regression(regressed, reference, 0.15)
    assert len(failures) == 1
    assert failures[0].startswith("serial:")

    both = bench.check_regression(_report(80.0, jobs4_ips=200.0), reference, 0.15)
    assert [failure.split(":")[0] for failure in both] == ["serial", "jobs4"]


def test_gate_forgives_a_slower_machine():
    """Half the ips on a machine with half the calibration index is a
    wash, not a regression."""
    reference = _report(100.0, machine_index=1000.0)
    slow_machine = _report(50.0, machine_index=500.0)
    assert bench.check_regression(slow_machine, reference, 0.15) == []


def test_gate_catches_regression_hidden_by_a_faster_machine():
    """A faster machine must not mask a genuinely slower kernel."""
    reference = _report(100.0, machine_index=1000.0)
    masked = _report(110.0, machine_index=2000.0)
    failures = bench.check_regression(masked, reference, 0.15)
    assert len(failures) == 1 and failures[0].startswith("serial:")


# -- the cache-hit channel --------------------------------------------------------


def test_speedup_includes_cache_hit_only_when_both_sides_have_it():
    with_cache = _report(100.0, cache_lps=5000.0)
    without_cache = _report(100.0)
    assert "cache_hit" in bench.speedup_vs_baseline(with_cache, with_cache)
    assert "cache_hit" not in bench.speedup_vs_baseline(with_cache, without_cache)
    assert "cache_hit" not in bench.speedup_vs_baseline(without_cache, with_cache)


def test_gate_catches_cache_hit_regression():
    reference = _report(100.0, cache_lps=5000.0)
    regressed = _report(100.0, cache_lps=2000.0)
    failures = bench.check_regression(regressed, reference, 0.15)
    assert len(failures) == 1 and failures[0].startswith("cache_hit:")
    assert bench.check_regression(reference, reference, 0.15) == []


# -- the estimator gate -----------------------------------------------------------


def _estimator_report(mean_mae, simulated=38, budget=38, agreement=1.0):
    return {
        "estimator": {
            "cells": 96,
            "mean_mae": mean_mae,
            "triage": {
                "simulated_cells": simulated,
                "budget_cells": budget,
                "confirmed_agreement": agreement,
            },
        }
    }


def test_estimator_gate_passes_under_ceiling():
    assert bench.check_estimator(_estimator_report(24.0)) == []


def test_estimator_gate_fails_over_ceiling():
    failures = bench.check_estimator(_estimator_report(40.0))
    assert len(failures) == 1 and "ceiling" in failures[0]


def test_estimator_gate_fails_on_budget_overrun():
    failures = bench.check_estimator(_estimator_report(24.0, simulated=50))
    assert len(failures) == 1 and "budget" in failures[0]


def test_estimator_gate_fails_on_broken_certificate():
    failures = bench.check_estimator(_estimator_report(24.0, agreement=0.9))
    assert len(failures) == 1 and "certificate" in failures[0]


def test_estimator_gate_skips_reports_without_the_section():
    assert bench.check_estimator({"serial": {}}) == []


# -- the fabric gate --------------------------------------------------------------


def _fabric_report(speedup, mode="multi-core", identical=True, cps=100.0):
    return {
        "fabric": {
            "workers": 2,
            "cells": 48,
            "cpus": 4 if mode == "multi-core" else 1,
            "mode": mode,
            "speedup_vs_serial": speedup,
            "cells_per_second": cps,
            "stats_identical": identical,
        }
    }


def test_fabric_gate_passes_at_and_above_floor_multi_core():
    assert bench.check_fabric(_fabric_report(2.1), floor=1.5) == []
    assert bench.check_fabric(_fabric_report(1.5), floor=1.5) == []


def test_fabric_gate_fails_below_floor_multi_core():
    failures = bench.check_fabric(_fabric_report(1.1), floor=1.5)
    assert len(failures) == 1
    assert failures[0].startswith("fabric:")
    assert "1.10x" in failures[0]


def test_fabric_gate_waives_floor_on_a_single_core():
    """Two workers timesharing one core cannot beat serial; the floor
    only binds when the machine can actually run them concurrently."""
    assert bench.check_fabric(_fabric_report(0.2, mode="single-core")) == []


def test_fabric_gate_fails_on_divergence_in_every_mode():
    for mode in ("multi-core", "single-core"):
        failures = bench.check_fabric(
            _fabric_report(3.0, mode=mode, identical=False)
        )
        assert len(failures) == 1
        assert "placement invariance" in failures[0]


def test_fabric_gate_skips_reports_without_the_section():
    assert bench.check_fabric({"serial": {}}) == []


def test_speedup_includes_fabric_only_when_modes_match():
    multi = dict(_report(100.0), **_fabric_report(2.0, cps=200.0))
    single = dict(
        _report(100.0), **_fabric_report(0.3, mode="single-core", cps=60.0)
    )
    assert "fabric" in bench.speedup_vs_baseline(multi, multi)
    assert "fabric" not in bench.speedup_vs_baseline(multi, single)
    assert "fabric" not in bench.speedup_vs_baseline(single, multi)
    assert "fabric" not in bench.speedup_vs_baseline(multi, _report(100.0))


def test_gate_compares_fabric_throughput_only_within_a_mode():
    reference = dict(_report(100.0), **_fabric_report(2.0, cps=200.0))
    regressed = dict(_report(100.0), **_fabric_report(2.0, cps=100.0))
    failures = bench.check_regression(regressed, reference, 0.15)
    assert len(failures) == 1 and failures[0].startswith("fabric:")
    # A single-core run is incomparable to a multi-core baseline.
    other_mode = dict(
        _report(100.0), **_fabric_report(0.3, mode="single-core", cps=20.0)
    )
    assert bench.check_regression(other_mode, reference, 0.15) == []


# -- the schema gate --------------------------------------------------------------


def test_schema_gate_names_the_missing_channel():
    report = {"schema": 7, "serial": {}, "estimator": {}}
    stale = {"schema": 4, "serial": {}}
    failures = bench.check_schema(report, stale, "BENCH_polyflow.json")
    assert len(failures) == 1
    assert "'estimator'" in failures[0]
    assert "schema 4" in failures[0]
    assert "regenerate" in failures[0]
    assert "BENCH_polyflow.json" in failures[0]


def test_schema_gate_names_a_missing_fabric_channel():
    report = {"schema": 6, "serial": {}, "fabric": {}}
    stale = {"schema": 5, "serial": {}}
    failures = bench.check_schema(report, stale, "BENCH_polyflow.json")
    assert len(failures) == 1
    assert "'fabric'" in failures[0]


def test_schema_gate_passes_when_reference_has_every_channel():
    report = {"schema": 7, "serial": {}, "estimator": {}, "fabric": {}}
    assert bench.check_schema(report, dict(report), "BENCH_polyflow.json") == []


# -- the parallel-efficiency gate -------------------------------------------------


def test_efficiency_gate_passes_above_floor_in_pool_mode():
    assert bench.check_efficiency(_efficiency_report(1.5), floor=1.2) == []
    assert bench.check_efficiency(_efficiency_report(1.2), floor=1.2) == []


def test_efficiency_gate_fails_below_floor_in_pool_mode():
    failures = bench.check_efficiency(_efficiency_report(1.05), floor=1.2)
    assert len(failures) == 1
    assert "parallel efficiency" in failures[0]
    assert "1.05x" in failures[0]


def test_efficiency_gate_bounds_overhead_in_inline_mode():
    """On one core the scheduler short-circuits the pool; the gate then
    only bounds its overhead rather than demanding a speedup."""
    parity = _efficiency_report(0.99, mode="inline", cpus=1)
    assert bench.check_efficiency(parity, floor=1.2, single_core_floor=0.8) == []
    slow = _efficiency_report(0.5, mode="inline", cpus=1)
    failures = bench.check_efficiency(slow, floor=1.2, single_core_floor=0.8)
    assert len(failures) == 1 and "inline short-circuit" in failures[0]


def test_efficiency_gate_skips_reports_without_the_section():
    assert bench.check_efficiency({"serial": {}}) == []


def test_markdown_summary_contains_normalized_rows():
    report = {
        "scale": 0.5,
        "policy": "control-equivalent",
        "machine_index": 1000.0,
        "serial": {"aggregate_ips": 500.0},
        "jobs4": {"jobs": 4, "mode": "pool", "cpus": 4, "ips": 900.0},
        "efficiency": {"ratio": 1.8, "mode": "pool", "cpus": 4},
        "cache_hit": {"loads_per_second": 4000.0},
    }
    rendered = bench.render_markdown_summary(report)
    assert "| serial throughput (fused loop) | 500 ips | 0.500000 |" in rendered
    assert "pool mode, 4 CPUs" in rendered
    assert "| parallel efficiency (serial wall / jobs4 wall) | 1.80x" in rendered
    assert "| warm cache replay | 4000 loads/s | 4.000000 |" in rendered
