"""Tests for the resource pool and machine model."""

import pytest

from repro.cluster.machine import Machine, total_requested_processors
from repro.cluster.resources import ResourcePool
from repro.prediction.predictors import ActualRuntime, UserEstimate
from tests.conftest import make_job


class TestResourcePool:
    def test_initial_state(self):
        pool = ResourcePool(total=64)
        assert pool.free == 64
        assert pool.used == 0
        assert pool.free_fraction == 1.0

    def test_allocate_release(self):
        pool = ResourcePool(total=16)
        alloc = pool.allocate(10)
        assert pool.free == 6
        pool.release(alloc)
        assert pool.free == 16

    def test_allocate_too_many(self):
        pool = ResourcePool(total=8)
        pool.allocate(6)
        with pytest.raises(RuntimeError):
            pool.allocate(3)

    def test_allocate_more_than_machine(self):
        with pytest.raises(ValueError):
            ResourcePool(total=8).allocate(9)

    def test_allocate_non_positive(self):
        with pytest.raises(ValueError):
            ResourcePool(total=8).allocate(0)

    def test_double_release(self):
        pool = ResourcePool(total=8)
        alloc = pool.allocate(4)
        pool.release(alloc)
        with pytest.raises(RuntimeError):
            pool.release(alloc)

    def test_can_allocate(self):
        pool = ResourcePool(total=8)
        assert pool.can_allocate(8)
        assert not pool.can_allocate(9)
        assert not pool.can_allocate(0)

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            ResourcePool(total=0)

    def test_reset(self):
        pool = ResourcePool(total=8)
        pool.allocate(5)
        pool.reset()
        assert pool.free == 8


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


def test_total_requested_processors():
    jobs = [make_job(1, processors=2), make_job(2, processors=5)]
    assert total_requested_processors(jobs) == 7
