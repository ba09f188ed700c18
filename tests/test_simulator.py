"""Tests for the discrete-event scheduling simulator."""

import pytest

from repro.prediction.predictors import ActualRuntime, UserEstimate
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.backfill.none import NoBackfill
from repro.scheduler.policies import FCFS, SJF
from repro.scheduler.simulator import Simulator
from repro.workloads.sampling import sample_sequence
from tests.conftest import make_job


class TestBasicScheduling:
    def test_single_job_runs_immediately(self):
        result = Simulator(num_processors=8).run([make_job(1, runtime=100, processors=4)])
        record = result.records[0]
        assert record.start_time == 0.0
        assert record.end_time == 100.0
        assert result.bsld == 1.0

    def test_two_independent_jobs_run_concurrently(self):
        jobs = [
            make_job(1, submit_time=0, runtime=100, processors=4),
            make_job(2, submit_time=0, runtime=100, processors=4),
        ]
        result = Simulator(num_processors=8).run(jobs)
        assert all(r.start_time == 0.0 for r in result.records)

    def test_contending_jobs_wait(self):
        jobs = [
            make_job(1, submit_time=0, runtime=100, processors=8),
            make_job(2, submit_time=0, runtime=100, processors=8),
        ]
        result = Simulator(num_processors=8).run(jobs)
        starts = sorted(r.start_time for r in result.records)
        assert starts == [0.0, 100.0]

    def test_job_starts_no_earlier_than_submit(self):
        jobs = [make_job(1, submit_time=500, runtime=10, processors=1)]
        result = Simulator(num_processors=8).run(jobs)
        assert result.records[0].start_time == 500.0

    def test_idle_gap_between_arrivals(self):
        jobs = [
            make_job(1, submit_time=0, runtime=10, processors=1),
            make_job(2, submit_time=1000, runtime=10, processors=1),
        ]
        result = Simulator(num_processors=8).run(jobs)
        assert result.record_for(2).start_time == 1000.0

    def test_fcfs_order_respected_without_backfill(self):
        jobs = [
            make_job(1, submit_time=0, runtime=100, processors=8),
            make_job(2, submit_time=1, runtime=10, processors=8),
            make_job(3, submit_time=2, runtime=10, processors=1),
        ]
        result = Simulator(num_processors=8, policy=FCFS(), backfill=NoBackfill()).run(jobs)
        # Job 3 fits alongside job 1 but must wait behind job 2 under pure FCFS
        # -- no, job 3 only needs 1 processor but FCFS + no backfilling blocks
        # the queue behind job 2 which needs the whole machine.
        assert result.record_for(3).start_time >= result.record_for(2).start_time

    def test_sjf_prefers_short_jobs(self):
        jobs = [
            make_job(1, submit_time=0, runtime=100, processors=8, requested_time=100),
            make_job(2, submit_time=1, runtime=500, processors=8, requested_time=500),
            make_job(3, submit_time=2, runtime=10, processors=8, requested_time=10),
        ]
        result = Simulator(num_processors=8, policy=SJF(), backfill=NoBackfill()).run(jobs)
        assert result.record_for(3).start_time < result.record_for(2).start_time

    def test_all_jobs_completed_exactly_once(self, small_trace):
        jobs = sample_sequence(small_trace, 100, seed=0)
        result = Simulator(small_trace.num_processors).run(jobs)
        assert len(result.records) == 100
        assert {r.job.job_id for r in result.records} == {j.job_id for j in jobs}

    def test_records_respect_runtime(self, small_trace):
        jobs = sample_sequence(small_trace, 80, seed=1)
        result = Simulator(small_trace.num_processors).run(jobs)
        for record in result.records:
            assert record.end_time == pytest.approx(record.start_time + record.job.runtime)
            assert record.start_time >= record.job.submit_time - 1e-9


class TestValidation:
    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            Simulator(num_processors=8).run([])

    def test_job_wider_than_machine(self):
        with pytest.raises(ValueError):
            Simulator(num_processors=8).run([make_job(1, processors=16)])

    def test_duplicate_job_ids(self):
        with pytest.raises(ValueError):
            Simulator(num_processors=8).run([make_job(1), make_job(1)])

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            Simulator(num_processors=0)


class TestBackfillingBehaviour:
    def _blocked_workload(self):
        """Job 1 occupies most of the machine; job 2 is blocked; job 3 could backfill."""
        return [
            make_job(1, submit_time=0, runtime=1000, requested_time=1000, processors=12),
            make_job(2, submit_time=10, runtime=100, requested_time=100, processors=12),
            make_job(3, submit_time=20, runtime=100, requested_time=100, processors=4),
        ]

    def test_easy_backfills_fitting_job(self):
        result = Simulator(
            16, backfill=EasyBackfill(), estimator=ActualRuntime()
        ).run(self._blocked_workload())
        assert result.record_for(3).start_time == 20.0
        assert result.record_for(3).backfilled
        assert result.backfill_count == 1

    def test_no_backfill_keeps_priority_order(self):
        result = Simulator(16, backfill=NoBackfill()).run(self._blocked_workload())
        assert result.record_for(3).start_time >= 1000.0
        assert result.backfill_count == 0

    def test_backfilled_job_does_not_delay_reserved_job(self):
        result = Simulator(
            16, backfill=EasyBackfill(), estimator=ActualRuntime()
        ).run(self._blocked_workload())
        # Job 2's reservation is at t=1000 (when job 1 finishes); job 3's
        # backfill (100s, done by 120) must not push job 2 beyond it.
        assert result.record_for(2).start_time == pytest.approx(1000.0)

    def test_easy_improves_or_matches_bsld(self, small_trace):
        jobs = sample_sequence(small_trace, 150, seed=2)
        easy = Simulator(small_trace.num_processors, backfill=EasyBackfill()).run(jobs)
        none = Simulator(small_trace.num_processors, backfill=NoBackfill()).run(jobs)
        assert easy.bsld <= none.bsld * 1.05  # allow tiny noise, EASY should not be worse

    def test_decision_count_positive_under_contention(self, small_trace):
        jobs = sample_sequence(small_trace, 150, seed=2)
        result = Simulator(small_trace.num_processors, backfill=EasyBackfill()).run(jobs)
        assert result.decision_count > 0

    def test_strategy_returning_non_candidate_rejected(self, small_trace):
        class Rogue(NoBackfill):
            def select_backfill(self, decision, estimator):
                return decision.reserved_job  # never a legal candidate

        jobs = sample_sequence(small_trace, 120, seed=3)
        simulator = Simulator(small_trace.num_processors, backfill=Rogue())
        with pytest.raises(ValueError):
            simulator.run(jobs)


class TestDecisionPointsGenerator:
    def test_manual_driving_matches_strategy_run(self, small_trace):
        jobs = sample_sequence(small_trace, 120, seed=4)
        simulator = Simulator(
            small_trace.num_processors, policy="FCFS", estimator=UserEstimate()
        )
        strategy = EasyBackfill()
        # Drive the generator by hand with the same strategy.
        gen = simulator.decision_points(jobs)
        try:
            decision = next(gen)
            while True:
                decision = gen.send(strategy.select_backfill(decision, simulator.estimator))
        except StopIteration as stop:
            manual = stop.value
        auto = simulator.run(jobs, backfill=EasyBackfill())
        assert manual.bsld == pytest.approx(auto.bsld)
        assert manual.backfill_count == auto.backfill_count

    def test_candidates_always_fit_free_processors(self, small_trace):
        jobs = sample_sequence(small_trace, 120, seed=5)
        simulator = Simulator(small_trace.num_processors)
        gen = simulator.decision_points(jobs)
        try:
            decision = next(gen)
            count = 0
            while count < 50:
                assert all(
                    j.requested_processors <= decision.machine.free_processors
                    for j in decision.candidates
                )
                assert all(j.job_id != decision.reserved_job.job_id for j in decision.candidates)
                decision = gen.send(None)
                count += 1
        except StopIteration:
            pass


class TestResultObject:
    def test_label(self):
        simulator = Simulator(8, policy="SJF", backfill=EasyBackfill(), estimator=ActualRuntime())
        assert simulator.label == "SJF+EASY(actual-runtime)"

    def test_record_for_missing(self):
        result = Simulator(num_processors=8).run([make_job(1)])
        with pytest.raises(KeyError):
            result.record_for(99)

    def test_metrics_utilization_bounds(self, small_trace):
        jobs = sample_sequence(small_trace, 100, seed=6)
        result = Simulator(small_trace.num_processors, backfill=EasyBackfill()).run(jobs)
        assert 0.0 < result.metrics.utilization <= 1.0
