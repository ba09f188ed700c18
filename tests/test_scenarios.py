"""Scenario subsystem: transforms, registry, and the evaluation harness."""

import importlib.util
import json
import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.agent import RLBackfillAgent
from repro.scenarios import evaluate as evaluate_module
from repro.scenarios.evaluate import (
    HEURISTIC_POLICIES,
    METRIC_FIELDS,
    AgentBundle,
    evaluate_cell,
    evaluate_suite,
    make_configuration,
    report_to_json,
    scenario_sequences,
)
from repro.scenarios.registry import (
    CORE_SUITE,
    ClusterSpec,
    DowntimeSpec,
    ScenarioSpec,
    get_scenario,
    register_scenario,
    scenario_names,
    suite_scenarios,
)
from repro.scenarios.transforms import (
    ArrivalThin,
    BurstInject,
    Compose,
    EstimateInflate,
    EstimateNoise,
    LoadScale,
    SizeFilter,
    SizeRescale,
    apply_transforms,
)
from repro.experiments.config import get_scale
from repro.workloads.job import Job, Trace
from repro.workloads.lublin import lublin_trace


@pytest.fixture(scope="module")
def base_trace():
    return lublin_trace(400, seed=7, name="base")


class TestTransforms:
    def test_load_scale_compresses_interarrivals(self, base_trace):
        rng = np.random.default_rng(0)
        scaled = LoadScale(2.0).apply(base_trace, rng)
        assert len(scaled) == len(base_trace)
        assert scaled.duration == pytest.approx(base_trace.duration / 2.0)
        # Everything but submit times is untouched.
        assert [j.runtime for j in scaled] == [j.runtime for j in base_trace]
        assert [j.requested_processors for j in scaled] == [
            j.requested_processors for j in base_trace
        ]

    def test_load_scale_validation(self):
        with pytest.raises(ValueError):
            LoadScale(0.0)

    def test_burst_inject_preserves_jobs(self, base_trace):
        rng = np.random.default_rng(1)
        bursty = BurstInject(num_bursts=3, burst_length=10, span_seconds=60.0).apply(
            base_trace, rng
        )
        assert len(bursty) == len(base_trace)
        assert sorted(j.job_id for j in bursty) == sorted(j.job_id for j in base_trace)
        # Bursts create tighter minimum gaps than the original trace.
        def min_gap(trace):
            submits = sorted(j.submit_time for j in trace)
            return min(b - a for a, b in zip(submits, submits[1:]))
        assert min_gap(bursty) <= min_gap(base_trace)

    def test_arrival_thin_drops_jobs(self, base_trace):
        rng = np.random.default_rng(2)
        thinned = ArrivalThin(keep_fraction=0.5).apply(base_trace, rng)
        assert len(thinned) < len(base_trace)
        assert len(thinned) >= ArrivalThin().min_jobs

    def test_arrival_thin_keeps_minimum(self, base_trace):
        rng = np.random.default_rng(3)
        thinned = ArrivalThin(keep_fraction=0.0001, min_jobs=16).apply(base_trace, rng)
        assert len(thinned) >= 16

    def test_estimate_noise_perturbs_requests(self, base_trace):
        rng = np.random.default_rng(4)
        noisy = EstimateNoise(sigma=1.0).apply(base_trace, rng)
        changed = sum(
            1
            for a, b in zip(base_trace, noisy)
            if abs(a.requested_time - b.requested_time) > 1e-9
        )
        assert changed > len(base_trace) * 0.9
        assert all(j.requested_time >= 1.0 for j in noisy)

    def test_estimate_noise_floor_at_runtime(self, base_trace):
        rng = np.random.default_rng(5)
        noisy = EstimateNoise(sigma=2.0, allow_underestimate=False).apply(base_trace, rng)
        assert all(j.requested_time >= j.runtime - 1e-9 for j in noisy)

    def test_estimate_inflate(self, base_trace):
        rng = np.random.default_rng(6)
        inflated = EstimateInflate(3.0).apply(base_trace, rng)
        for a, b in zip(base_trace, inflated):
            assert b.requested_time == pytest.approx(a.requested_time * 3.0)

    def test_size_filter(self, base_trace):
        rng = np.random.default_rng(7)
        narrow = SizeFilter(min_processors=1, max_processors=4).apply(base_trace, rng)
        assert all(j.requested_processors <= 4 for j in narrow)
        with pytest.raises(ValueError):
            SizeFilter(min_processors=10_000).apply(base_trace, rng)

    def test_size_rescale_clips_to_machine(self, base_trace):
        rng = np.random.default_rng(8)
        wide = SizeRescale(1000.0).apply(base_trace, rng)
        assert all(j.requested_processors == base_trace.num_processors for j in wide)

    def test_transforms_are_pure(self, base_trace):
        before = [(j.submit_time, j.requested_time) for j in base_trace]
        apply_transforms(
            base_trace, [LoadScale(2.0), EstimateNoise(sigma=1.0)], seed=0
        )
        assert [(j.submit_time, j.requested_time) for j in base_trace] == before

    def test_apply_transforms_deterministic(self, base_trace):
        chain = [ArrivalThin(0.7), BurstInject(2, 8, 30.0), EstimateNoise(0.5)]
        a = apply_transforms(base_trace, chain, seed=11)
        b = apply_transforms(base_trace, chain, seed=11)
        assert [(j.job_id, j.submit_time, j.requested_time) for j in a] == [
            (j.job_id, j.submit_time, j.requested_time) for j in b
        ]
        c = apply_transforms(base_trace, chain, seed=12)
        assert [(j.job_id, j.submit_time) for j in a] != [
            (j.job_id, j.submit_time) for j in c
        ]

    def test_composition_is_order_sensitive(self, base_trace):
        """thin-then-burst bursts the survivors; burst-then-thin thins the
        bursts -- the two orders must not commute."""
        thin = ArrivalThin(keep_fraction=0.6)
        burst = BurstInject(num_bursts=3, burst_length=12, span_seconds=45.0)
        ab = apply_transforms(base_trace, [thin, burst], seed=5)
        ba = apply_transforms(base_trace, [burst, thin], seed=5)
        assert [(j.job_id, round(j.submit_time, 6)) for j in ab] != [
            (j.job_id, round(j.submit_time, 6)) for j in ba
        ]

    def test_compose_matches_apply_transforms(self, base_trace):
        chain = (LoadScale(1.5), EstimateInflate(2.0))
        composed = Compose(chain).apply(base_trace, np.random.default_rng(3))
        sequential = apply_transforms(base_trace, chain, np.random.default_rng(3))
        assert [(j.submit_time, j.requested_time) for j in composed] == [
            (j.submit_time, j.requested_time) for j in sequential
        ]

    def test_describe_is_json_serializable(self):
        chain = Compose((LoadScale(2.0), ArrivalThin(0.5), EstimateNoise(0.3)))
        json.dumps(chain.describe())


class TestDowntimeSpec:
    def test_exactly_one_timing_form(self):
        with pytest.raises(ValueError):
            DowntimeSpec(start=1.0, duration=2.0, start_fraction=0.1,
                         duration_fraction=0.1, processors=1)
        with pytest.raises(ValueError):
            DowntimeSpec(processors=1)

    def test_exactly_one_size_form(self):
        with pytest.raises(ValueError):
            DowntimeSpec(start=0.0, duration=1.0)
        with pytest.raises(ValueError):
            DowntimeSpec(start=0.0, duration=1.0, processors=2, fraction_of_machine=0.5)

    def test_fractional_resolution(self):
        spec = DowntimeSpec(start_fraction=0.25, duration_fraction=0.5,
                            fraction_of_machine=0.5)
        window = spec.resolve(span_seconds=1000.0, num_processors=64)
        assert window.start == pytest.approx(250.0)
        assert window.end == pytest.approx(750.0)
        assert window.processors == 32

    def test_absolute_resolution(self):
        spec = DowntimeSpec(start=10.0, duration=20.0, processors=3)
        window = spec.resolve(span_seconds=99999.0, num_processors=8)
        assert (window.start, window.end, window.processors) == (10.0, 30.0, 3)


class TestRegistry:
    def test_core_suite_is_large_enough(self):
        assert len(CORE_SUITE) >= 8
        assert len(set(CORE_SUITE)) == len(CORE_SUITE)
        for name in CORE_SUITE:
            assert get_scenario(name).name == name

    def test_core_suite_has_downtime_scenario(self):
        assert any(get_scenario(name).cluster.has_downtime for name in CORE_SUITE)

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_register_and_overwrite(self):
        spec = ScenarioSpec(name="tmp-test-scenario", base_trace="Lublin-1")
        register_scenario(spec)
        try:
            assert "tmp-test-scenario" in scenario_names()
            with pytest.raises(ValueError):
                register_scenario(spec)
            register_scenario(spec, overwrite=True)
        finally:
            from repro.scenarios import registry

            registry._REGISTRY.pop("tmp-test-scenario", None)

    def test_suite_resolution_forms(self):
        assert [s.name for s in suite_scenarios("core")] == list(CORE_SUITE)
        assert [s.name for s in suite_scenarios("baseline-sdsc,burst-storm")] == [
            "baseline-sdsc",
            "burst-storm",
        ]
        assert [s.name for s in suite_scenarios(["estimate-noise"])] == ["estimate-noise"]
        with pytest.raises(ValueError):
            suite_scenarios([])

    def test_build_is_seed_deterministic(self):
        spec = get_scenario("burst-storm")
        a = spec.build(seed=3, num_jobs=300)
        b = spec.build(seed=3, num_jobs=300)
        assert [(j.job_id, j.submit_time) for j in a.trace] == [
            (j.job_id, j.submit_time) for j in b.trace
        ]
        c = spec.build(seed=4, num_jobs=300)
        assert [(j.job_id, j.submit_time) for j in a.trace] != [
            (j.job_id, j.submit_time) for j in c.trace
        ]

    def test_build_applies_transforms(self):
        clean = get_scenario("baseline-sdsc").build(seed=0, num_jobs=300)
        surged = get_scenario("load-surge-1.5x").build(seed=0, num_jobs=300)
        assert surged.trace.duration < clean.trace.duration

    def test_capacity_schedule_resolution(self):
        built = get_scenario("downtime-half").build(seed=0, num_jobs=300)
        assert built.has_downtime
        windows = built.capacity_schedule(span_seconds=10_000.0)
        assert len(windows) == 1
        assert windows[0].processors == built.trace.num_processors // 2
        clean = get_scenario("baseline-sdsc").build(seed=0, num_jobs=300)
        assert clean.capacity_schedule(10_000.0) is None

    def test_describe_is_json_serializable(self):
        for name in CORE_SUITE:
            json.dumps(get_scenario(name).describe())


class TestEvaluationHarness:
    def test_make_configuration_heuristics(self):
        for policy in HEURISTIC_POLICIES:
            configuration = make_configuration(policy)
            assert configuration.label == policy
        with pytest.raises(ValueError):
            make_configuration("rl")  # needs an agent bundle
        with pytest.raises(KeyError):
            make_configuration("nope")

    def test_evaluate_cell_fields(self):
        scale = get_scale("smoke")
        built = get_scenario("baseline-lublin").build(seed=0, num_jobs=scale.trace_jobs)
        row = evaluate_cell(built, "easy", scale, seed=0)
        assert set(row) == set(METRIC_FIELDS)
        assert row["average_bounded_slowdown"] >= 1.0
        assert np.isnan(row["window_utilization"])  # no downtime here

    def test_downtime_cell_reports_window_utilization_below_capacity(self):
        """Acceptance criterion: capacity actually drops under every policy."""
        scale = get_scale("smoke")
        built = get_scenario("downtime-half").build(seed=0, num_jobs=scale.trace_jobs)
        sequences = scenario_sequences(built, scale, seed=0)
        for policy in HEURISTIC_POLICIES:
            row = evaluate_cell(built, policy, scale, seed=0, sequences=sequences)
            assert 0.0 <= row["window_utilization"] < 1.0

    def test_report_deterministic_and_worker_count_invariant(self):
        # An untrained agent: the bundle crossing into the workers is what
        # is pinned here, not the quality of the policy.
        kwargs = dict(
            suite="baseline-lublin,downtime-half",
            scale="smoke",
            seed=0,
            policies=(*HEURISTIC_POLICIES, "rl"),
            agent_bundle=AgentBundle.from_agent(RLBackfillAgent(seed=0)),
        )
        inline_report, _ = evaluate_suite(num_workers=0, **kwargs)
        inline_again, _ = evaluate_suite(num_workers=0, **kwargs)
        pooled_report, timing = evaluate_suite(num_workers=2, **kwargs)
        assert report_to_json(inline_report) == report_to_json(inline_again)
        assert report_to_json(inline_report) == report_to_json(pooled_report)
        assert timing["cells"] == 6
        assert timing["scenario_eval_wall_seconds"] > 0

    def test_report_seed_sensitivity(self):
        kwargs = dict(
            suite="baseline-lublin", scale="smoke", policies=("easy",), num_workers=0
        )
        a, _ = evaluate_suite(seed=0, **kwargs)
        b, _ = evaluate_suite(seed=1, **kwargs)
        assert report_to_json(a) != report_to_json(b)

    def test_report_structure(self):
        report, _ = evaluate_suite(
            suite="baseline-lublin,estimate-noise",
            scale="smoke",
            seed=0,
            policies=HEURISTIC_POLICIES,
            num_workers=0,
        )
        assert report["policies"] == list(HEURISTIC_POLICIES)
        for name in ("baseline-lublin", "estimate-noise"):
            block = report["scenarios"][name]
            assert set(block["policies"]) == set(HEURISTIC_POLICIES)
            assert block["ranking"][0] == block["best_policy"]
            assert sorted(block["ranking"]) == sorted(HEURISTIC_POLICIES)
        assert sum(report["summary"]["wins"].values()) == 2
        # Canonical serialization round-trips.
        parsed = json.loads(report_to_json(report))
        assert parsed["suite"] == "baseline-lublin,estimate-noise"

    def test_worker_error_propagates(self, monkeypatch):
        """A failing cell surfaces the worker's traceback, not a hang."""
        bad = ScenarioSpec(name="tmp-bad-scenario", base_trace="no-such-trace")
        monkeypatch.setattr(evaluate_module, "suite_scenarios", lambda suite: [bad])
        with pytest.raises(RuntimeError, match="'tmp-bad-scenario' x 'easy'") as info:
            evaluate_suite("tmp", scale="smoke", policies=("easy",), num_workers=1)
        assert "no-such-trace" in str(info.value.__cause__.__cause__)  # remote traceback

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched cell reaches the workers only through fork",
    )
    def test_worker_killed_mid_cell_raises_promptly(self, monkeypatch):
        parent = os.getpid()

        def die(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            raise AssertionError("the cell ran in the parent")

        def run():
            try:
                evaluate_suite(
                    "baseline-lublin,downtime-half", scale="smoke", policies=("easy",),
                    num_workers=2,
                )
            except RuntimeError as exc:
                errors.append(exc)

        monkeypatch.setattr(evaluate_module, "evaluate_cell", die)
        before = set(multiprocessing.active_children())
        errors = []
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "a dead worker hung the pool"
        assert len(errors) == 1
        assert "'baseline-lublin' x 'easy'" in str(errors[0])
        assert set(multiprocessing.active_children()) <= before

    def test_negative_worker_count_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            evaluate_suite("baseline-lublin", scale="smoke", policies=("easy",), num_workers=-1)
        spec = importlib.util.spec_from_file_location(
            "evaluate_scenarios",
            Path(__file__).resolve().parents[1] / "scripts" / "evaluate_scenarios.py",
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        with pytest.raises(SystemExit) as exit_info:
            script.main(["--quick", "--workers", "-1"])
        assert exit_info.value.code == 2

    def test_evaluate_configurations_accepts_scenario_names(self):
        """The runner wiring: scenario: names resolve through the registry."""
        from repro.experiments.runner import evaluate_configurations

        results = evaluate_configurations(
            "scenario:baseline-lublin",
            [make_configuration("easy")],
            scale="smoke",
            seed=0,
        )
        assert set(results) == {"easy"}
        assert results["easy"] >= 1.0
