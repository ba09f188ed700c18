"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.rl.autograd import Tensor
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.backfill.none import NoBackfill
from repro.scheduler.backfill.profile import ResourceProfile
from repro.scheduler.metrics import bounded_slowdown
from repro.scheduler.simulator import Simulator
from repro.workloads.job import Job, Trace
from repro.workloads.swf import parse_swf_lines, iter_swf_records

# -- strategies -------------------------------------------------------------

job_ids = st.integers(min_value=1, max_value=10_000)


@st.composite
def job_lists(draw, max_jobs=12, machine=16):
    """Random small job sequences that fit a 16-processor machine."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    submit = 0.0
    for i in range(n):
        submit += draw(st.floats(min_value=0.0, max_value=500.0))
        runtime = draw(st.floats(min_value=1.0, max_value=2000.0))
        procs = draw(st.integers(min_value=1, max_value=machine))
        over = draw(st.floats(min_value=1.0, max_value=5.0))
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=submit,
                runtime=runtime,
                requested_processors=procs,
                requested_time=runtime * over,
            )
        )
    return jobs


# -- scheduling invariants ----------------------------------------------------


class TestSchedulingInvariants:
    @given(job_lists())
    @settings(max_examples=40, deadline=None)
    def test_every_job_scheduled_exactly_once(self, jobs):
        result = Simulator(num_processors=16, backfill=EasyBackfill()).run(jobs)
        assert {r.job.job_id for r in result.records} == {j.job_id for j in jobs}

    @given(job_lists())
    @settings(max_examples=40, deadline=None)
    def test_no_job_starts_before_submission(self, jobs):
        result = Simulator(num_processors=16, backfill=EasyBackfill()).run(jobs)
        for record in result.records:
            assert record.start_time >= record.job.submit_time - 1e-9

    @given(job_lists())
    @settings(max_examples=40, deadline=None)
    def test_machine_never_oversubscribed(self, jobs):
        result = Simulator(num_processors=16, backfill=EasyBackfill()).run(jobs)
        events = []
        for record in result.records:
            events.append((record.start_time, record.job.requested_processors))
            events.append((record.end_time, -record.job.requested_processors))
        used = 0
        # At equal timestamps completions release their processors before new
        # starts claim them (the simulator's release-then-schedule order), so
        # negative deltas sort first.
        for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
            used += delta
            assert used <= 16 + 1e-9

    @given(job_lists())
    @settings(max_examples=30, deadline=None)
    def test_bsld_at_least_one(self, jobs):
        result = Simulator(num_processors=16, backfill=NoBackfill()).run(jobs)
        assert result.bsld >= 1.0

    @given(job_lists(), st.sampled_from(["FCFS", "SJF", "WFP3", "F1"]))
    @settings(max_examples=30, deadline=None)
    def test_all_policies_complete_all_jobs(self, jobs, policy):
        result = Simulator(num_processors=16, policy=policy, backfill=EasyBackfill()).run(jobs)
        assert len(result.records) == len(jobs)

    @given(job_lists())
    @settings(max_examples=25, deadline=None)
    def test_easy_never_delays_more_than_no_backfill_for_whole_schedule(self, jobs):
        """Backfilling can only change who waits, not lose or duplicate work:
        the total processor-seconds completed must be identical."""
        easy = Simulator(num_processors=16, backfill=EasyBackfill()).run(jobs)
        none = Simulator(num_processors=16, backfill=NoBackfill()).run(jobs)
        assert sum(r.job.area for r in easy.records) == sum(r.job.area for r in none.records)


class TestMetricProperties:
    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.1, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_slowdown_at_least_one(self, wait, runtime):
        assert bounded_slowdown(wait, runtime) >= 1.0

    @given(st.floats(min_value=0.1, max_value=1e5), st.floats(min_value=0.0, max_value=1e5))
    @settings(max_examples=100, deadline=None)
    def test_bounded_slowdown_monotone_in_wait(self, runtime, wait):
        assert bounded_slowdown(wait + 10.0, runtime) >= bounded_slowdown(wait, runtime)


class TestProfileProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1000.0),
                st.floats(min_value=1.0, max_value=500.0),
                st.integers(min_value=1, max_value=8),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_free_never_negative_nor_above_total(self, reservations):
        profile = ResourceProfile(32)
        for start, duration, procs in reservations:
            try:
                profile.reserve(start, duration, procs)
            except RuntimeError:
                continue
        for time, free in profile.steps():
            assert 0 <= free <= 32

    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=1.0, max_value=200.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_earliest_start_result_actually_fits(self, procs, duration):
        profile = ResourceProfile(16)
        profile.reserve(0.0, 100.0, 10)
        start = profile.earliest_start(procs, duration)
        assert profile.min_free_between(start, start + duration) >= procs


class TestSWFProperties:
    @given(job_lists())
    @settings(max_examples=30, deadline=None)
    def test_swf_round_trip_preserves_structure(self, jobs):
        trace = Trace.from_jobs("prop", 16, jobs)
        parsed = parse_swf_lines(["; MaxProcs: 16"] + list(iter_swf_records(trace)), name="prop")
        assert len(parsed) == len(trace)
        for original, back in zip(trace, parsed):
            assert back.requested_processors == original.requested_processors
            assert abs(back.runtime - original.runtime) <= 1.0


class TestAutogradProperties:
    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_log_softmax_normalizes(self, values):
        t = Tensor(np.array(values, dtype=np.float64)[None, :])
        probs = np.exp(t.log_softmax(axis=-1).numpy())
        assert probs.sum() == np.testing.assert_allclose(probs.sum(), 1.0, rtol=1e-9) or True

    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_sum_gradient_is_ones(self, values):
        t = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones(len(values)))

    @given(
        st.lists(st.floats(min_value=-2, max_value=2), min_size=2, max_size=8),
        st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_clip_output_within_bounds(self, values, bound):
        t = Tensor(np.array(values, dtype=np.float64))
        clipped = t.clip(-bound, bound).numpy()
        assert clipped.min() >= -bound - 1e-12
        assert clipped.max() <= bound + 1e-12
