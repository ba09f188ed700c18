"""Tests for the Job and Trace models."""

import dataclasses
import math

import pytest

from repro.workloads.job import Job, Trace, validate_sequence
from tests.conftest import make_job


class TestJob:
    def test_basic_construction(self):
        job = make_job(1, submit_time=5, runtime=100, processors=4, requested_time=200)
        assert job.job_id == 1
        assert job.submit_time == 5
        assert job.runtime == 100
        assert job.requested_processors == 4
        assert job.requested_time == 200

    @pytest.mark.parametrize("processors", [0, -1])
    def test_invalid_processors(self, processors):
        with pytest.raises(ValueError):
            Job(job_id=1, submit_time=0, runtime=10, requested_processors=processors, requested_time=10)

    @pytest.mark.parametrize("runtime", [0, -5])
    def test_invalid_runtime(self, runtime):
        with pytest.raises(ValueError):
            Job(job_id=1, submit_time=0, runtime=runtime, requested_processors=1, requested_time=10)

    def test_invalid_requested_time(self):
        with pytest.raises(ValueError):
            Job(job_id=1, submit_time=0, runtime=10, requested_processors=1, requested_time=0)

    def test_negative_submit_time(self):
        with pytest.raises(ValueError):
            Job(job_id=1, submit_time=-1, runtime=10, requested_processors=1, requested_time=10)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field_name", ["submit_time", "runtime", "requested_time"])
    def test_non_finite_times_are_rejected_by_name(self, field_name, value):
        fields = dict(
            job_id=1, submit_time=0.0, runtime=10.0, requested_processors=1, requested_time=10.0
        )
        fields[field_name] = value
        with pytest.raises(ValueError, match=f"job 1: {field_name} must be finite"):
            Job(**fields)

    def test_area(self):
        job = make_job(runtime=100, processors=4)
        assert job.area == 400

    def test_requested_area(self):
        job = make_job(runtime=100, processors=4, requested_time=300)
        assert job.requested_area == 1200

    def test_overestimation_factor(self):
        job = make_job(runtime=100, requested_time=250)
        assert job.overestimation_factor == pytest.approx(2.5)

    def test_shifted(self):
        job = make_job(submit_time=10)
        shifted = job.shifted(90)
        assert shifted.submit_time == 100
        assert shifted.job_id == job.job_id
        assert job.submit_time == 10  # original untouched

    def test_with_requested_time(self):
        job = make_job(requested_time=200)
        assert job.with_requested_time(500).requested_time == 500

    def test_copies_carry_every_field_and_are_validated(self):
        # One distinct value per declared field: a field the copies forgot would show.
        values = {f.name: 3 + index for index, f in enumerate(dataclasses.fields(Job))}
        job = Job(**values)
        assert job.shifted(1.5) == dataclasses.replace(job, submit_time=job.submit_time + 1.5)
        assert job.with_requested_time(9.25) == dataclasses.replace(job, requested_time=9.25)
        with pytest.raises(ValueError):
            job.shifted(-100.0)
        with pytest.raises(ValueError):
            job.with_requested_time(0.0)

    def test_immutability(self):
        job = make_job()
        with pytest.raises(AttributeError):
            job.runtime = 5


class TestTrace:
    def test_jobs_sorted_by_submit_time(self):
        jobs = [make_job(1, submit_time=50), make_job(2, submit_time=10)]
        trace = Trace.from_jobs("t", 16, jobs)
        assert [j.job_id for j in trace] == [2, 1]

    def test_len_and_getitem(self, tiny_trace):
        assert len(tiny_trace) == 8
        assert tiny_trace[0].job_id == 1

    def test_slice_returns_trace(self, tiny_trace):
        head = tiny_trace[:3]
        assert isinstance(head, Trace)
        assert len(head) == 3
        assert head.num_processors == tiny_trace.num_processors

    def test_head(self, tiny_trace):
        assert len(tiny_trace.head(2)) == 2
        assert len(tiny_trace.head(100)) == 8

    def test_subsequence(self, tiny_trace):
        jobs = tiny_trace.subsequence(2, 3)
        assert [j.job_id for j in jobs] == [3, 4, 5]

    def test_subsequence_out_of_range(self, tiny_trace):
        with pytest.raises(IndexError):
            tiny_trace.subsequence(6, 5)

    def test_subsequence_negative(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace.subsequence(-1, 2)

    def test_duration(self, tiny_trace):
        assert tiny_trace.duration == 70

    def test_empty_trace_duration(self):
        assert Trace("empty", 4).duration == 0.0

    def test_job_wider_than_machine_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_jobs("bad", 4, [make_job(1, processors=8)])

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            Trace("bad", 0)

    def test_has_user_estimates_true(self, tiny_trace):
        assert tiny_trace.has_user_estimates

    def test_has_user_estimates_false(self):
        jobs = [make_job(i, runtime=100, requested_time=100) for i in range(1, 4)]
        trace = Trace.from_jobs("ar-only", 16, jobs)
        assert not trace.has_user_estimates

    def test_describe(self, tiny_trace):
        text = tiny_trace.describe()
        assert "tiny" in text and "16" in text


class TestValidateSequence:
    def test_sorted_ok(self, tiny_trace):
        validate_sequence(list(tiny_trace))

    def test_unsorted_raises(self):
        jobs = [make_job(1, submit_time=100), make_job(2, submit_time=0)]
        with pytest.raises(ValueError):
            validate_sequence(jobs)
