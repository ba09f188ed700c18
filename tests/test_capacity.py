"""Capacity-change events: downtime windows in Machine, Simulator, profiles."""

import math

import numpy as np
import pytest

from repro.cluster.machine import DowntimeWindow, Machine
from repro.prediction.predictors import UserEstimate
from repro.scheduler.backfill.conservative import ConservativeBackfill
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.backfill.profile import ResourceProfile
from repro.scheduler.simulator import Simulator
from repro.workloads.job import Job


def _job(job_id, submit, runtime, procs, requested=None):
    return Job(
        job_id=job_id,
        submit_time=float(submit),
        runtime=float(runtime),
        requested_processors=int(procs),
        requested_time=float(requested if requested is not None else runtime),
    )


class TestDowntimeWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            DowntimeWindow(start=10.0, end=5.0, processors=2)
        with pytest.raises(ValueError):
            DowntimeWindow(start=0.0, end=5.0, processors=0)
        with pytest.raises(ValueError):
            DowntimeWindow(start=-1.0, end=5.0, processors=1)

    def test_active_at_half_open(self):
        window = DowntimeWindow(start=10.0, end=20.0, processors=4)
        assert not window.active_at(9.999)
        assert window.active_at(10.0)
        assert window.active_at(19.0)
        assert not window.active_at(20.0)


class TestMachineCapacity:
    def test_no_schedule_is_fast_path(self):
        machine = Machine(16)
        assert machine.capacity_schedule == ()
        assert machine.free_processors == 16
        assert machine.drained_processors() == 0
        assert machine.effective_capacity() == 16
        assert machine.next_capacity_event(0.0) is None
        assert machine.capacity_drains(0.0) == []

    def test_drained_processors_follow_clock(self):
        machine = Machine(16, capacity_schedule=[DowntimeWindow(10.0, 20.0, 6)])
        assert machine.free_processors == 16  # clock at 0
        machine.advance_to(10.0)
        assert machine.drained_processors() == 6
        assert machine.free_processors == 10
        assert machine.free_fraction == pytest.approx(10 / 16)
        machine.advance_to(20.0)
        assert machine.free_processors == 16

    def test_overlapping_windows_clip_to_machine(self):
        machine = Machine(8, capacity_schedule=[
            DowntimeWindow(0.0, 10.0, 6),
            DowntimeWindow(5.0, 15.0, 6),
        ])
        assert machine.drained_processors(7.0) == 8  # 12 clipped to the machine
        assert machine.drained_processors(2.0) == 6
        assert machine.drained_processors(12.0) == 6

    def test_can_start_respects_drain(self):
        machine = Machine(10, capacity_schedule=[DowntimeWindow(0.0, 100.0, 8)])
        assert machine.can_start(_job(1, 0, 10, 2))
        assert not machine.can_start(_job(2, 0, 10, 3))

    def test_start_into_drained_capacity_raises(self):
        machine = Machine(10, capacity_schedule=[DowntimeWindow(0.0, 100.0, 8)])
        with pytest.raises(RuntimeError):
            machine.start(_job(1, 0, 10, 5), now=0.0)

    def test_graceful_drain_keeps_running_jobs(self):
        machine = Machine(10, capacity_schedule=[DowntimeWindow(50.0, 100.0, 8)])
        machine.start(_job(1, 0, 200, 6), now=0.0)
        machine.advance_to(60.0)
        # 6 busy + 8 drained > 10: effective free clamps at 0, job keeps running.
        assert machine.free_processors == 0
        assert machine.num_running == 1

    def test_next_capacity_event(self):
        machine = Machine(4, capacity_schedule=[DowntimeWindow(10.0, 20.0, 2)])
        assert machine.next_capacity_event(0.0) == 10.0
        assert machine.next_capacity_event(10.0) == 20.0
        assert machine.next_capacity_event(20.0) is None

    def test_injected_window_renews_the_schedule_caches(self):
        machine = Machine(16, capacity_schedule=[DowntimeWindow(100.0, 200.0, 4)])
        machine.advance_to(10.0)
        # Fill both caches: the drained count of t=10 and the sorted boundaries.
        assert machine.free_processors == 16
        assert machine.next_capacity_event(10.0) == 100.0
        victims = machine.fail_nodes(now=10.0, processors=6, repair_end=50.0)
        assert victims == []
        assert machine.drained_processors() == 6
        assert machine.free_processors == 10
        assert machine.next_capacity_event(10.0) == 50.0
        assert machine.next_capacity_event(50.0) == 100.0

    def test_utilization_counts_busy_only(self):
        machine = Machine(10, capacity_schedule=[DowntimeWindow(0.0, 100.0, 5)])
        machine.start(_job(1, 0, 100, 5), now=0.0)
        machine.release_completed(100.0)
        # 5 busy of 10 nameplate over [0, 100): drained processors do not
        # count as busy.
        assert machine.utilization(100.0) == pytest.approx(0.5)

    def test_earliest_start_waits_for_window_end(self):
        machine = Machine(10, capacity_schedule=[DowntimeWindow(0.0, 100.0, 8)])
        reservation, extra, _ = machine.reservation(
            _job(1, 0, 10, 6), now=0.0, estimator=UserEstimate()
        )
        assert reservation == 100.0
        assert extra == 4

    def test_earliest_start_merges_releases_and_boundaries(self):
        estimator = UserEstimate()
        machine = Machine(10, capacity_schedule=[DowntimeWindow(0.0, 100.0, 4)])
        machine.start(_job(1, 0, 30, 6, requested=30), now=0.0)
        # Needs 8: at t=30 the release frees 6 (free 10 - 4 drained = 6 < 8);
        # only the window end at t=100 brings effective free to 10.
        reservation, extra, _ = machine.reservation(
            _job(2, 0, 10, 8), now=0.0, estimator=estimator
        )
        assert reservation == 100.0
        assert extra == 2
        # Needs 6: the release at t=30 suffices.
        reservation, extra, _ = machine.reservation(
            _job(3, 0, 10, 6), now=0.0, estimator=estimator
        )
        assert reservation == 30.0
        assert extra == 0

    def test_reset_keeps_schedule(self):
        machine = Machine(8, capacity_schedule=[DowntimeWindow(0.0, 10.0, 4)])
        machine.start(_job(1, 0, 5, 2), now=0.0)
        machine.reset()
        assert machine.capacity_schedule
        assert machine.num_running == 0


class TestProfileDrain:
    def test_drain_clips_at_zero(self):
        profile = ResourceProfile(10)
        profile.reserve(0.0, 50.0, 8)
        profile.drain(10.0, 20.0, 6)
        assert profile.free_at(5.0) == 2
        assert profile.free_at(15.0) == 0  # 2 - 6 clipped
        assert profile.free_at(40.0) == 2
        assert profile.free_at(60.0) == 10

    def test_drain_subtracts_where_capacity_exists(self):
        profile = ResourceProfile(10)
        profile.drain(0.0, 10.0, 4)
        assert profile.free_at(5.0) == 6
        assert profile.free_at(15.0) == 10

    def test_drain_rejects_bad_args(self):
        profile = ResourceProfile(10)
        with pytest.raises(ValueError):
            profile.drain(0.0, 10.0, 0)
        profile.drain(0.0, -1.0, 2)  # non-positive duration is a no-op
        assert profile.free_at(0.0) == 10


class TestSimulatorWithDowntime:
    def test_wide_job_waits_for_window_end(self):
        windows = [DowntimeWindow(50.0, 150.0, 8)]
        jobs = [
            _job(1, 0, 40, 6),
            _job(2, 60, 30, 6),
            _job(3, 61, 10, 2),
        ]
        for backfill in (EasyBackfill(), ConservativeBackfill()):
            result = Simulator(10, backfill=backfill, capacity_schedule=windows).run(jobs)
            starts = {r.job.job_id: r.start_time for r in result.records}
            assert starts[1] == 0.0
            assert starts[2] == 150.0  # 6 procs never fit beside the 8-proc drain
            assert 61.0 <= starts[3] < 150.0  # 2 procs fit inside the remainder

    def test_full_drain_blocks_everything(self):
        windows = [DowntimeWindow(0.0, 100.0, 4)]
        jobs = [_job(1, 0, 10, 2), _job(2, 1, 10, 4)]
        result = Simulator(4, capacity_schedule=windows).run(jobs)
        for record in result.records:
            assert record.start_time >= 100.0

    def test_window_before_first_arrival_is_ignored(self):
        windows = [DowntimeWindow(0.0, 50.0, 4)]
        jobs = [_job(1, 100, 10, 4)]
        result = Simulator(4, capacity_schedule=windows).run(jobs)
        assert result.records[0].start_time == 100.0

    def test_capacity_event_wakes_idle_machine(self):
        # Nothing running, nothing arriving, one queued job blocked by the
        # window: the simulator must advance to the window end, not deadlock.
        windows = [DowntimeWindow(0.0, 500.0, 7)]
        jobs = [_job(1, 10, 10, 5)]
        result = Simulator(8, capacity_schedule=windows).run(jobs)
        assert result.records[0].start_time == 500.0

    _NEVER = "job 1 can never start.*no running job, arrival, failure or capacity boundary"

    def _drained_for_good(self):
        return Simulator(
            8, backfill=EasyBackfill(), capacity_schedule=[DowntimeWindow(0.0, math.inf, 8)]
        )

    def test_queue_that_can_never_start_raises_in_run(self):
        # The window never ends: no event lies ahead of the blocked job.
        with pytest.raises(RuntimeError, match=self._NEVER):
            self._drained_for_good().run([_job(1, 10, 5, 4, 10)])

    def test_queue_that_can_never_start_raises_in_drain(self):
        session = self._drained_for_good().open_session()
        session.submit(_job(1, 10, 5, 4, 10))
        # A live session cannot know no submission will come: it waits.
        assert session.advance_to(math.inf) == []
        assert session.queue_depth == 1
        with pytest.raises(RuntimeError, match=self._NEVER):
            session.drain()

    def test_no_schedule_unchanged(self):
        jobs = [_job(1, 0, 10, 4), _job(2, 0, 20, 4)]
        with_param = Simulator(8, capacity_schedule=None).run(jobs)
        without = Simulator(8).run(jobs)
        assert [r.start_time for r in with_param.records] == [
            r.start_time for r in without.records
        ]

    def test_utilization_drops_during_window_under_every_policy(self):
        """The acceptance-criterion property at unit scale: over the window,
        busy processor-seconds stay below nameplate capacity."""
        rng = np.random.default_rng(0)
        jobs = []
        t = 0.0
        for i in range(60):
            t += float(rng.exponential(30.0))
            jobs.append(_job(i + 1, t, float(rng.uniform(50, 200)), int(rng.integers(1, 6))))
        horizon = t + 500.0
        window = DowntimeWindow(horizon * 0.2, horizon * 0.6, 8)
        for backfill in (EasyBackfill(), ConservativeBackfill(), None):
            result = Simulator(
                16, backfill=backfill, capacity_schedule=[window]
            ).run(jobs)
            busy = 0.0
            for record in result.records:
                overlap = min(record.end_time, window.end) - max(record.start_time, window.start)
                if overlap > 0:
                    busy += overlap * record.job.requested_processors
            capacity_area = (window.end - window.start) * 16
            assert busy < capacity_area, "window utilization must drop below nameplate"
            # And specifically below the in-service share plus the graceful
            # carry-over margin: never more than (16-8)/16 + carried jobs.
            assert busy / capacity_area < 1.0

    def test_reservation_features_expose_capacity(self):
        """DecisionPoint features the RL observation reads are capacity-aware."""
        windows = [DowntimeWindow(0.0, 1000.0, 6)]
        simulator = Simulator(8, backfill=EasyBackfill(), capacity_schedule=windows)
        jobs = [_job(1, 0, 100, 2), _job(2, 1, 100, 4), _job(3, 2, 50, 1)]
        gen = simulator.decision_points(jobs)
        # Job 1 fills the whole in-service capacity (2 of 8), so the first
        # actionable decision arises at its completion (t=100): job 2 is
        # selected, and the observed free count is the *effective* 2, not the
        # pool's raw 8.
        decision = next(gen)
        assert decision.time == pytest.approx(100.0)
        assert decision.reserved_job.job_id == 2
        assert decision.free_processors == 2
        assert decision.free_fraction == pytest.approx(2 / 8)
        # Job 2 (4 procs) can only start when the window lifts capacity, and
        # the extra-processor feature is computed against the restored pool.
        assert decision.reservation_time == pytest.approx(1000.0)
        assert decision.extra_processors == 4
        gen.close()
