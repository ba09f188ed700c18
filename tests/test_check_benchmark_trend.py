"""Tests for the CI rollout-throughput trend check (scripts/check_benchmark_trend.py).

The check's outcomes must stay distinguishable: a metric can PASS or REGRESS
(verdicts), or be MISSING from the results JSON (warn by default, fail under
``--strict``).
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_benchmark_trend",
    Path(__file__).resolve().parents[1] / "scripts" / "check_benchmark_trend.py",
)
trend = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trend)


def write_results(tmp_path, benchmarks):
    path = tmp_path / "results.json"
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return path


def write_baseline(tmp_path, metrics, tolerance=0.2):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"tolerance": tolerance, "metrics": metrics}))
    return path


def bench(name, extra_info=None, stats=None):
    return {"name": f"benchmarks/x.py::{name}", "extra_info": extra_info or {}, "stats": stats or {}}


class TestVerdicts:
    def test_passing_metric(self, tmp_path, capsys):
        results = write_results(tmp_path, [bench("b", {"ratio": 4.0})])
        baseline = write_baseline(tmp_path, [{"benchmark": "b", "key": "ratio", "baseline": 3.8}])
        assert trend.check(results, baseline) == 0
        assert "ok b:ratio" in capsys.readouterr().out

    def test_higher_is_better_regression_fails(self, tmp_path, capsys):
        results = write_results(tmp_path, [bench("b", {"ratio": 2.0})])
        baseline = write_baseline(tmp_path, [{"benchmark": "b", "key": "ratio", "baseline": 3.8}])
        assert trend.check(results, baseline) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_lower_is_better_ceiling(self, tmp_path, capsys):
        metrics = [
            {
                "benchmark": "b",
                "key": "overhead",
                "baseline": 1.6,
                "higher_is_better": False,
                "tolerance": 0.25,
            }
        ]
        ok = write_results(tmp_path, [bench("b", {"overhead": 1.9})])
        assert trend.check(ok, write_baseline(tmp_path, metrics)) == 0
        too_slow = write_results(tmp_path, [bench("b", {"overhead": 2.1})])
        assert trend.check(too_slow, write_baseline(tmp_path, metrics)) == 1

    def test_relative_to_divides_stats(self, tmp_path):
        results = write_results(
            tmp_path,
            [
                bench("sim", stats={"mean": 6.0}),
                bench("fwd", stats={"mean": 2.0}),
            ],
        )
        baseline = write_baseline(
            tmp_path,
            [
                {
                    "benchmark": "sim",
                    "stat": "mean",
                    "relative_to": {"benchmark": "fwd", "stat": "mean"},
                    "baseline": 3.3,
                    "higher_is_better": False,
                }
            ],
        )
        assert trend.check(results, baseline) == 0

    def test_missing_benchmark_warns_and_strict_fails(self, tmp_path, capsys):
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, [{"benchmark": "b", "key": "ratio", "baseline": 1.0}])
        assert trend.check(results, baseline) == 0
        assert "MISSING" in capsys.readouterr().out
        assert trend.check(results, write_baseline(tmp_path, [{"benchmark": "b", "key": "ratio", "baseline": 1.0}]), strict=True) == 1


class TestCommittedBaseline:
    def test_committed_baseline_parses_and_gates_the_kernel_overhead(self):
        baseline = json.loads(trend.DEFAULT_BASELINE.read_text())
        metrics = {
            metric.get("key") or metric.get("stat"): metric
            for metric in baseline["metrics"]
        }
        kernel = metrics["overhead_invariant_vs_matmul"]
        assert kernel["higher_is_better"] is False
        # The blocking ceiling is exactly the 2.0x acceptance bound.
        ceiling = kernel["baseline"] * (1.0 + kernel["tolerance"])
        assert ceiling == pytest.approx(2.0)


class TestScenarioReportIngestion:
    def _timing(self, tmp_path, wall=3.5, **extra):
        payload = {
            "scenario_eval_wall_seconds": wall,
            "cells": 20,
            "workers": 2,
            "cells_per_second": 20 / wall,
        }
        payload.update(extra)
        path = tmp_path / "scenario-timing.json"
        path.write_text(json.dumps(payload))
        return path

    def test_ingested_wall_clock_checks_against_ceiling(self, tmp_path, capsys):
        results = write_results(tmp_path, [])
        baseline = write_baseline(
            tmp_path,
            [{"benchmark": "scenario_evaluation", "stat": "mean",
              "baseline": 30.0, "higher_is_better": False, "tolerance": 1.0}],
        )
        timing = self._timing(tmp_path, wall=3.5)
        assert trend.check(results, baseline, scenario_report=timing) == 0
        assert "scenario_evaluation:mean" in capsys.readouterr().out

    def test_ingested_wall_clock_regression_fails(self, tmp_path):
        results = write_results(tmp_path, [])
        baseline = write_baseline(
            tmp_path,
            [{"benchmark": "scenario_evaluation", "stat": "mean",
              "baseline": 30.0, "higher_is_better": False, "tolerance": 1.0}],
        )
        timing = self._timing(tmp_path, wall=120.0)  # beyond the 60s ceiling
        assert trend.check(results, baseline, scenario_report=timing) == 1

    def test_extra_info_keys_are_addressable(self, tmp_path):
        results = write_results(tmp_path, [])
        baseline = write_baseline(
            tmp_path,
            [{"benchmark": "scenario_evaluation", "key": "cells_per_second",
              "baseline": 1.0, "higher_is_better": True, "tolerance": 0.5}],
        )
        timing = self._timing(tmp_path, wall=4.0)  # 5 cells/s
        assert trend.check(results, baseline, scenario_report=timing) == 0

    def test_without_report_metric_is_missing_not_failing(self, tmp_path, capsys):
        results = write_results(tmp_path, [])
        baseline = write_baseline(
            tmp_path,
            [{"benchmark": "scenario_evaluation", "stat": "mean",
              "baseline": 30.0, "higher_is_better": False}],
        )
        assert trend.check(results, baseline) == 0
        assert "MISSING" in capsys.readouterr().out
        assert trend.check(results, baseline, strict=True) == 1

    def test_rejects_non_timing_document(self, tmp_path):
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, [])
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ValueError):
            trend.check(results, baseline, scenario_report=bogus)

    def test_committed_baseline_gates_the_scenario_ratio_not_a_wall_clock(self):
        """The committed metric must be the machine-relative suite/reference
        ratio: an absolute wall-clock ceiling encodes one runner's speed and
        does not transfer (the PR-5 tripwire this replaces)."""
        baseline = json.loads(trend.DEFAULT_BASELINE.read_text())
        entries = [m for m in baseline["metrics"] if m["benchmark"] == "scenario_evaluation"]
        assert len(entries) == 1
        entry = entries[0]
        assert entry["higher_is_better"] is False
        assert entry["relative_to"] == {
            "benchmark": "scenario_evaluation",
            "key": "reference_cell_seconds",
        }

    def test_suite_over_reference_cell_ratio_is_what_gets_checked(self, tmp_path):
        """Same ratio, wildly different absolute speeds: both runners pass;
        a genuine ratio regression fails on both."""
        baseline = write_baseline(
            tmp_path,
            [{"benchmark": "scenario_evaluation", "stat": "mean",
              "relative_to": {"benchmark": "scenario_evaluation",
                              "key": "reference_cell_seconds"},
              "baseline": 75.0, "higher_is_better": False, "tolerance": 1.0}],
        )
        results = write_results(tmp_path, [])
        fast_runner = self._timing(tmp_path, wall=1.5, reference_cell_seconds=0.02)
        assert trend.check(results, baseline, scenario_report=fast_runner) == 0
        slow_runner = self._timing(tmp_path, wall=150.0, reference_cell_seconds=2.0)
        assert trend.check(results, baseline, scenario_report=slow_runner) == 0
        regressed = self._timing(tmp_path, wall=400.0, reference_cell_seconds=2.0)
        assert trend.check(results, baseline, scenario_report=regressed) == 1

    def test_timing_without_reference_cell_is_missing(self, tmp_path, capsys):
        """Older timing documents (no reference cell) degrade to MISSING for
        the ratio metric rather than passing or crashing."""
        baseline = write_baseline(
            tmp_path,
            [{"benchmark": "scenario_evaluation", "stat": "mean",
              "relative_to": {"benchmark": "scenario_evaluation",
                              "key": "reference_cell_seconds"},
              "baseline": 75.0, "higher_is_better": False}],
        )
        results = write_results(tmp_path, [])
        timing = self._timing(tmp_path, wall=3.5)
        assert trend.check(results, baseline, scenario_report=timing) == 0
        assert "MISSING" in capsys.readouterr().out
        assert trend.check(results, baseline, scenario_report=timing, strict=True) == 1


class TestServiceReportIngestion:
    def _timing(self, tmp_path, **overrides):
        payload = {
            "service_load_wall_seconds": 8.0,
            "decisions": 11000,
            "decisions_per_second": 1375.0,
            "latency_p50_ms": 40.0,
            "latency_p95_ms": 120.0,
            "latency_p99_ms": 170.0,
            "reference_forward_seconds": 250e-6,
            "p99_latency_per_forward": 680.0,
            "decision_throughput_x_forward": 0.34,
            "replay": {"checked": True, "matched": True},
        }
        payload.update(overrides)
        path = tmp_path / "service-timing.json"
        path.write_text(json.dumps(payload))
        return path

    SERVICE_METRICS = [
        {"benchmark": "service_load", "key": "p99_latency_per_forward",
         "baseline": 700.0, "higher_is_better": False, "tolerance": 1.5},
        {"benchmark": "service_load", "key": "decision_throughput_x_forward",
         "baseline": 0.35, "higher_is_better": True, "tolerance": 0.7},
        {"benchmark": "service_load", "key": "replay_matched",
         "baseline": 1.0, "higher_is_better": True, "tolerance": 0.0},
    ]

    def test_healthy_report_passes_all_gates(self, tmp_path, capsys):
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, self.SERVICE_METRICS)
        timing = self._timing(tmp_path)
        assert trend.check(results, baseline, service_report=timing) == 0
        out = capsys.readouterr().out
        assert "service_load:p99_latency_per_forward" in out
        assert "service_load:replay_matched" in out

    def test_latency_ratio_regression_fails(self, tmp_path):
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, self.SERVICE_METRICS)
        timing = self._timing(tmp_path, p99_latency_per_forward=2000.0)
        assert trend.check(results, baseline, service_report=timing) == 1

    def test_throughput_ratio_regression_fails(self, tmp_path):
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, self.SERVICE_METRICS)
        timing = self._timing(tmp_path, decision_throughput_x_forward=0.05)
        assert trend.check(results, baseline, service_report=timing) == 1

    def test_replay_mismatch_hard_fails(self, tmp_path, capsys):
        """A parity violation is a zero-tolerance failure: replay_matched is
        0.0 and the floor is exactly 1.0."""
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, self.SERVICE_METRICS)
        timing = self._timing(tmp_path, replay={"checked": True, "matched": False})
        assert trend.check(results, baseline, service_report=timing) == 1
        assert "replay_matched" in capsys.readouterr().err

    def test_without_report_metrics_are_missing_not_failing(self, tmp_path, capsys):
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, self.SERVICE_METRICS)
        assert trend.check(results, baseline) == 0
        assert "MISSING" in capsys.readouterr().out
        assert trend.check(results, baseline, strict=True) == 1

    def test_rejects_non_service_document(self, tmp_path):
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, [])
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"scenario_eval_wall_seconds": 3.0}))
        with pytest.raises(ValueError):
            trend.check(results, baseline, service_report=bogus)

    def test_committed_baseline_gates_service_ratios_and_parity(self):
        baseline = json.loads(trend.DEFAULT_BASELINE.read_text())
        entries = {
            m["key"]: m
            for m in baseline["metrics"]
            if m["benchmark"] == "service_load"
        }
        assert set(entries) == {
            "p99_latency_per_forward",
            "decision_throughput_x_forward",
            "replay_matched",
        }
        assert entries["p99_latency_per_forward"]["higher_is_better"] is False
        assert entries["decision_throughput_x_forward"]["higher_is_better"] is True
        # Parity is not a trend: zero tolerance, floor exactly 1.0.
        assert entries["replay_matched"]["tolerance"] == 0.0
        assert entries["replay_matched"]["baseline"] == 1.0


class TestChaosReportIngestion:
    def _timing(self, tmp_path, **overrides):
        payload = {
            "chaos_wall_seconds": 5.0,
            "recovery_overhead_vs_clean": 3.7,
            "pool_parity_ok": 1.0,
            "service_recovery_ok": 1.0,
        }
        payload.update(overrides)
        path = tmp_path / "chaos-timing.json"
        path.write_text(json.dumps(payload))
        return path

    CHAOS_METRICS = [
        {"benchmark": "chaos_smoke", "key": "recovery_overhead_vs_clean",
         "baseline": 4.0, "higher_is_better": False, "tolerance": 1.5},
        {"benchmark": "chaos_smoke", "key": "pool_parity_ok",
         "baseline": 1.0, "higher_is_better": True, "tolerance": 0.0},
        {"benchmark": "chaos_smoke", "key": "service_recovery_ok",
         "baseline": 1.0, "higher_is_better": True, "tolerance": 0.0},
    ]

    def test_healthy_report_passes_all_gates(self, tmp_path, capsys):
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, self.CHAOS_METRICS)
        timing = self._timing(tmp_path)
        assert trend.check(results, baseline, chaos_report=timing) == 0
        out = capsys.readouterr().out
        assert "chaos_smoke:recovery_overhead_vs_clean" in out
        assert "chaos_smoke:pool_parity_ok" in out

    def test_pathological_recovery_overhead_fails(self, tmp_path):
        """Recovery costing more than the ceiling (e.g. a full-rollout
        restart instead of a shard replay) is a blocking regression."""
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, self.CHAOS_METRICS)
        timing = self._timing(tmp_path, recovery_overhead_vs_clean=25.0)
        assert trend.check(results, baseline, chaos_report=timing) == 1

    def test_parity_violation_hard_fails(self, tmp_path, capsys):
        """Fault-injected divergence is zero-tolerance: the bit is 0.0 and
        the floor is exactly 1.0."""
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, self.CHAOS_METRICS)
        timing = self._timing(tmp_path, pool_parity_ok=0.0)
        assert trend.check(results, baseline, chaos_report=timing) == 1
        assert "pool_parity_ok" in capsys.readouterr().err

    def test_without_report_metrics_are_missing_not_failing(self, tmp_path, capsys):
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, self.CHAOS_METRICS)
        assert trend.check(results, baseline) == 0
        assert "MISSING" in capsys.readouterr().out
        assert trend.check(results, baseline, strict=True) == 1

    def test_rejects_non_chaos_document(self, tmp_path):
        results = write_results(tmp_path, [])
        baseline = write_baseline(tmp_path, [])
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"service_load_wall_seconds": 3.0}))
        with pytest.raises(ValueError):
            trend.check(results, baseline, chaos_report=bogus)

    def test_committed_baseline_gates_recovery_overhead_and_parity(self):
        baseline = json.loads(trend.DEFAULT_BASELINE.read_text())
        entries = {
            m["key"]: m
            for m in baseline["metrics"]
            if m["benchmark"] == "chaos_smoke"
        }
        assert set(entries) == {
            "recovery_overhead_vs_clean",
            "pool_parity_ok",
            "service_recovery_ok",
        }
        assert entries["recovery_overhead_vs_clean"]["higher_is_better"] is False
        # Parity is not a trend: zero tolerance, floor exactly 1.0.
        for key in ("pool_parity_ok", "service_recovery_ok"):
            assert entries[key]["tolerance"] == 0.0
            assert entries[key]["baseline"] == 1.0
