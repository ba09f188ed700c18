"""Tests for the machine model: its processor count and running jobs."""

import pytest

from repro.cluster import ClusterTopology
from repro.cluster.machine import Machine, total_requested_processors
from repro.prediction.predictors import ActualRuntime, UserEstimate
from tests.conftest import make_job


def _zero_width_job():
    """A job no trace can hold (``Job`` rejects a non-positive width), for the
    machine's own guard."""
    job = make_job(1)
    object.__setattr__(job, "requested_processors", 0)
    return job


class TestResourcePool:
    """The machine's processor pool: one busy count over identical processors,
    and the guards every start and release keeps."""

    def test_initial_state(self):
        machine = Machine(64)
        assert machine.free_processors == 64
        assert machine.num_running == 0
        assert machine.free_fraction == 1.0

    def test_allocate_release(self):
        machine = Machine(16)
        machine.start(make_job(1, processors=10), now=0.0)
        assert machine.free_processors == 6
        machine.release(1)
        assert machine.free_processors == 16

    def test_allocate_too_many(self):
        machine = Machine(8)
        machine.start(make_job(1, processors=6), now=0.0)
        with pytest.raises(RuntimeError, match="only 2 are free"):
            machine.start(make_job(2, processors=3), now=0.0)
        assert machine.free_processors == 2
        assert machine.num_running == 1

    def test_allocate_more_than_machine(self):
        with pytest.raises(ValueError, match="the machine has 8"):
            Machine(8).start(make_job(1, processors=9), now=0.0)

    def test_allocate_non_positive(self):
        with pytest.raises(ValueError, match="requests 0 processors"):
            Machine(8).start(_zero_width_job(), now=0.0)

    def test_double_release(self):
        machine = Machine(8)
        machine.start(make_job(1, processors=4), now=0.0)
        machine.release(1)
        with pytest.raises(KeyError):
            machine.release(1)
        assert machine.free_processors == 8

    def test_can_allocate(self):
        machine = Machine(8)
        assert machine.can_start(make_job(1, processors=8))
        assert not machine.can_start(make_job(2, processors=9))
        assert not machine.can_start(_zero_width_job())

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            Machine(0)

    def test_reset(self):
        machine = Machine(8)
        machine.start(make_job(1, processors=5), now=0.0)
        machine.reset()
        assert machine.free_processors == 8


class TestMachine:
    def test_start_and_free_count(self):
        machine = Machine(16)
        machine.start(make_job(1, processors=10), now=0.0)
        assert machine.free_processors == 6
        assert machine.num_running == 1

    def test_cannot_start_twice(self):
        machine = Machine(16)
        job = make_job(1, processors=4)
        machine.start(job, now=0.0)
        with pytest.raises(RuntimeError):
            machine.start(job, now=1.0)

    def test_next_completion_time(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, processors=4), now=0.0)
        machine.start(make_job(2, runtime=50, processors=4), now=0.0)
        assert machine.next_completion_time() == 50

    def test_next_completion_empty(self):
        assert Machine(16).next_completion_time() is None

    def test_release_completed(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, processors=4), now=0.0)
        machine.start(make_job(2, runtime=50, processors=4), now=0.0)
        finished = machine.release_completed(60.0)
        assert [r.job.job_id for r in finished] == [2]
        assert machine.free_processors == 12

    def test_release_completed_keeps_running_jobs(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, processors=4), now=0.0)
        assert machine.release_completed(10.0) == []
        assert machine.num_running == 1

    def test_can_start(self):
        machine = Machine(8)
        machine.start(make_job(1, processors=6), now=0.0)
        assert machine.can_start(make_job(2, processors=2))
        assert not machine.can_start(make_job(3, processors=3))

    def test_utilization_accounting(self):
        machine = Machine(10)
        machine.start(make_job(1, runtime=100, processors=5), now=0.0)
        machine.release_completed(100.0)
        # 5 of 10 processors busy for the whole interval.
        assert machine.utilization(100.0) == pytest.approx(0.5)

    def test_time_cannot_go_backwards(self):
        machine = Machine(8)
        machine.start(make_job(1, processors=2), now=100.0)
        with pytest.raises(ValueError):
            machine.start(make_job(2, processors=2), now=50.0)

    def test_forced_release(self):
        machine = Machine(8)
        machine.start(make_job(1, processors=4), now=0.0)
        machine.release(1)
        assert machine.free_processors == 8
        with pytest.raises(KeyError):
            machine.release(1)

    def test_reset(self):
        machine = Machine(8)
        machine.start(make_job(1, processors=4), now=0.0)
        machine.reset()
        assert machine.free_processors == 8
        assert machine.num_running == 0


class TestEarliestStartEstimate:
    def test_immediate_when_fits(self):
        machine = Machine(16)
        start, extra, _ = machine.reservation(make_job(1, processors=8), 0.0, ActualRuntime())
        assert start == 0.0
        assert extra == 8

    def test_waits_for_release(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, processors=12), now=0.0)
        start, extra, _ = machine.reservation(
            make_job(2, processors=8), 0.0, ActualRuntime()
        )
        assert start == 100.0
        assert extra == 8  # 16 free after release, job takes 8

    def test_user_estimate_extends_reservation(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, requested_time=500, processors=12), now=0.0)
        start, _, _ = machine.reservation(make_job(2, processors=8), 0.0, UserEstimate())
        assert start == 500.0

    def test_accumulates_multiple_releases(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, processors=6), now=0.0)
        machine.start(make_job(2, runtime=200, processors=6), now=0.0)
        start, _, _ = machine.reservation(make_job(3, processors=14), 0.0, ActualRuntime())
        assert start == 200.0

    def test_impossible_job_raises(self):
        machine = Machine(16)
        with pytest.raises(RuntimeError):
            machine.reservation(make_job(1, processors=32), 0.0, ActualRuntime())

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the scalar walk returns at the first release that "
        "makes the job fit, missing the other releases at that instant",
    )
    def test_releases_at_one_instant_all_count_as_extra(self):
        """Two 14-wide jobs estimated to end together free 28 at t=100, so a
        20-wide reservation leaves 24 extra, as the one-group layout says."""

        def reserve(machine):
            for job_id in (1, 2):
                machine.start(
                    make_job(job_id, runtime=100, requested_time=100, processors=14), now=0.0
                )
            start, extra, _ = machine.reservation(make_job(3, processors=20), 0.0, UserEstimate())
            return start, extra

        one_group = reserve(Machine(44, topology=ClusterTopology.homogeneous(44)))
        assert one_group == (100.0, 24)
        assert reserve(Machine(44)) == one_group


def test_total_requested_processors():
    jobs = [make_job(1, processors=2), make_job(2, processors=5)]
    assert total_requested_processors(jobs) == 7
