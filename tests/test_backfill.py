"""Tests for the backfilling strategies and the availability profile."""

import math

import pytest

from repro.cluster.machine import Machine
from repro.cluster.resources import ClusterTopology
from repro.prediction.predictors import ActualRuntime, UserEstimate
from repro.scheduler.backfill.conservative import ConservativeBackfill
from repro.scheduler.backfill.easy import EasyBackfill, GreedyBackfill
from repro.scheduler.backfill.none import NoBackfill
from repro.scheduler.backfill.profile import ReservationProfile, ResourceProfile
from repro.scheduler.events import DecisionPoint
from tests.conftest import make_job


def make_decision(machine, rjob, candidates, queue=None, now=0.0, estimator=None):
    estimator = estimator or UserEstimate()
    reservation, extra, _ = machine.reservation(rjob, now, estimator)
    return DecisionPoint(
        time=now,
        reserved_job=rjob,
        reservation_time=reservation,
        extra_processors=extra,
        candidates=list(candidates),
        queue=sorted((queue or [rjob] + list(candidates)), key=lambda j: j.submit_time),
        machine=machine,
    )


class TestDecisionPoint:
    def test_would_delay_true_when_too_long_and_too_wide(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, requested_time=100, processors=12), now=0.0)
        rjob = make_job(2, processors=10)
        candidate = make_job(3, runtime=500, requested_time=500, processors=8)
        decision = make_decision(machine, rjob, [candidate], estimator=ActualRuntime())
        assert decision.would_delay(candidate, 500)

    def test_would_not_delay_when_short(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, requested_time=100, processors=12), now=0.0)
        rjob = make_job(2, processors=10)
        candidate = make_job(3, runtime=50, requested_time=50, processors=4)
        decision = make_decision(machine, rjob, [candidate], estimator=ActualRuntime())
        assert not decision.would_delay(candidate, 50)

    def test_would_not_delay_when_fits_beside_reservation(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, requested_time=100, processors=12), now=0.0)
        rjob = make_job(2, processors=10)
        # 16 - 10 = 6 extra processors at reservation time; a 4-wide job can
        # run arbitrarily long without delaying the reservation.
        candidate = make_job(3, runtime=10_000, requested_time=10_000, processors=4)
        decision = make_decision(machine, rjob, [candidate], estimator=ActualRuntime())
        assert not decision.would_delay(candidate, 10_000)


class TestNoBackfill:
    def test_always_none(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, processors=12), now=0.0)
        rjob = make_job(2, processors=10)
        candidate = make_job(3, processors=2, runtime=10)
        decision = make_decision(machine, rjob, [candidate])
        assert NoBackfill().select_backfill(decision, UserEstimate()) is None


class TestEasyBackfill:
    def _setup(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, requested_time=100, processors=12), now=0.0)
        rjob = make_job(2, submit_time=1, processors=10)
        return machine, rjob

    def test_picks_non_delaying_candidate(self):
        machine, rjob = self._setup()
        short = make_job(3, submit_time=2, runtime=50, requested_time=50, processors=4)
        long = make_job(4, submit_time=3, runtime=1000, requested_time=1000, processors=8)
        decision = make_decision(machine, rjob, [long, short], estimator=ActualRuntime())
        chosen = EasyBackfill().select_backfill(decision, ActualRuntime())
        assert chosen.job_id == 3

    def test_returns_none_when_all_delay(self):
        machine, rjob = self._setup()
        long = make_job(4, runtime=1000, requested_time=1000, processors=8)
        decision = make_decision(machine, rjob, [long], estimator=ActualRuntime())
        assert EasyBackfill().select_backfill(decision, ActualRuntime()) is None

    def test_fcfs_order_prefers_older_job(self):
        machine, rjob = self._setup()
        older = make_job(3, submit_time=2, runtime=50, requested_time=50, processors=2)
        newer = make_job(4, submit_time=5, runtime=20, requested_time=20, processors=2)
        decision = make_decision(machine, rjob, [newer, older], estimator=ActualRuntime())
        assert EasyBackfill(order="fcfs").select_backfill(decision, ActualRuntime()).job_id == 3

    def test_sjf_order_prefers_shorter_job(self):
        machine, rjob = self._setup()
        older = make_job(3, submit_time=2, runtime=50, requested_time=50, processors=2)
        newer = make_job(4, submit_time=5, runtime=20, requested_time=20, processors=2)
        decision = make_decision(machine, rjob, [older, newer], estimator=ActualRuntime())
        assert EasyBackfill(order="sjf").select_backfill(decision, ActualRuntime()).job_id == 4

    def test_user_estimate_can_block_backfill(self):
        machine, rjob = self._setup()
        # Runs 50s but requests 10000s: with the request-time estimator EASY
        # believes it would delay the reservation.
        overestimated = make_job(3, runtime=50, requested_time=10_000, processors=8)
        decision = make_decision(machine, rjob, [overestimated], estimator=UserEstimate())
        assert EasyBackfill().select_backfill(decision, UserEstimate()) is None
        assert EasyBackfill().select_backfill(decision, ActualRuntime()) is not None

    def test_invalid_order(self):
        for order in ("magic", "widest"):
            with pytest.raises(ValueError):
                EasyBackfill(order=order)

    def test_name(self):
        assert EasyBackfill().name == "EASY"
        assert EasyBackfill(order="sjf").name == "EASY-sjf"


class TestGreedyBackfill:
    def test_picks_even_delaying_candidates(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, requested_time=100, processors=12), now=0.0)
        rjob = make_job(2, processors=10)
        long = make_job(4, runtime=1000, requested_time=1000, processors=8)
        decision = make_decision(machine, rjob, [long], estimator=ActualRuntime())
        assert GreedyBackfill().select_backfill(decision, ActualRuntime()).job_id == 4

    def test_empty_candidates(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, processors=12), now=0.0)
        rjob = make_job(2, processors=10)
        decision = make_decision(machine, rjob, [])
        assert GreedyBackfill().select_backfill(decision, ActualRuntime()) is None


class TestResourceProfile:
    def test_initial_free(self):
        profile = ResourceProfile(64)
        assert profile.free_at(0) == 64
        assert profile.free_at(1e9) == 64

    def test_reserve_reduces_window(self):
        profile = ResourceProfile(64)
        profile.reserve(10, 100, 40)
        assert profile.free_at(5) == 64
        assert profile.free_at(10) == 24
        assert profile.free_at(109) == 24
        assert profile.free_at(110) == 64

    def test_overlapping_reservations(self):
        profile = ResourceProfile(10)
        profile.reserve(0, 100, 4)
        profile.reserve(50, 100, 4)
        assert profile.free_at(75) == 2
        assert profile.free_at(120) == 6

    def test_over_subscription_raises(self):
        profile = ResourceProfile(8)
        profile.reserve(0, 10, 6)
        with pytest.raises(RuntimeError):
            profile.reserve(5, 10, 4)

    def test_min_free_between(self):
        profile = ResourceProfile(16)
        profile.reserve(10, 10, 10)
        assert profile.min_free_between(0, 30) == 6
        assert profile.min_free_between(20, 30) == 16

    def test_earliest_start_immediate(self):
        profile = ResourceProfile(16)
        assert profile.earliest_start(8, 100) == 0.0

    def test_earliest_start_after_release(self):
        profile = ResourceProfile(16)
        profile.reserve(0, 100, 12)
        assert profile.earliest_start(8, 50) == 100.0

    def test_earliest_start_fits_in_gap(self):
        profile = ResourceProfile(16)
        profile.reserve(0, 100, 12)
        # 4 processors are free during the reservation: narrow jobs fit now.
        assert profile.earliest_start(4, 1000) == 0.0

    def test_earliest_start_respects_earliest_bound(self):
        profile = ResourceProfile(16)
        assert profile.earliest_start(4, 10, earliest=55.0) == 55.0

    def test_earliest_start_too_wide(self):
        with pytest.raises(ValueError):
            ResourceProfile(8).earliest_start(16, 10)

    def test_infinite_duration(self):
        profile = ResourceProfile(16)
        profile.reserve(0, 100, 12)
        assert profile.earliest_start(8, math.inf) == 100.0

    def test_from_running_jobs(self):
        profile = ReservationProfile.from_running_jobs(
            ClusterTopology.homogeneous(16), now=0.0, grants=[("all", 100.0, (12, 0, 0))]
        )
        cpus = profile.step_function()
        assert cpus.free_at(0) == 4
        assert cpus.free_at(150) == 16


class TestConservativeBackfill:
    def test_does_not_delay_second_queued_job(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, requested_time=100, processors=10), now=0.0)
        rjob = make_job(2, submit_time=1, requested_time=100, runtime=100, processors=8)
        # queued3 would fit right beside rjob once job 1 finishes; a very long
        # 6-wide candidate does not delay rjob (it fits in the extra
        # processors at the reservation) but would delay queued3.
        queued3 = make_job(3, submit_time=2, requested_time=100, runtime=100, processors=8)
        candidate = make_job(4, submit_time=3, requested_time=5000, runtime=5000, processors=6)
        queue = [rjob, queued3, candidate]
        decision = make_decision(
            machine, rjob, [candidate], queue=queue, estimator=ActualRuntime()
        )
        easy_choice = EasyBackfill().select_backfill(decision, ActualRuntime())
        conservative_choice = ConservativeBackfill().select_backfill(decision, ActualRuntime())
        assert easy_choice is not None  # EASY only protects the reserved job
        assert conservative_choice is None  # conservative protects everyone

    def test_accepts_harmless_candidate(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, requested_time=100, processors=12), now=0.0)
        rjob = make_job(2, submit_time=1, processors=10)
        candidate = make_job(3, submit_time=2, runtime=40, requested_time=40, processors=4)
        decision = make_decision(machine, rjob, [candidate], estimator=ActualRuntime())
        assert ConservativeBackfill().select_backfill(decision, ActualRuntime()).job_id == 3

    def test_requires_machine_state(self):
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, processors=12), now=0.0)
        rjob = make_job(2, processors=10)
        candidate = make_job(3, processors=2, runtime=10)
        decision = make_decision(machine, rjob, [candidate])
        decision.machine = None
        with pytest.raises(ValueError):
            ConservativeBackfill().select_backfill(decision, UserEstimate())

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            ConservativeBackfill(order="widest")


class TestBoundedConservative:
    """The reservation_depth / max_candidates bounds (Slurm bf_max_job_test)."""

    def test_defaults_are_unbounded(self):
        strategy = ConservativeBackfill()
        assert strategy.reservation_depth is None
        assert strategy.max_candidates is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ConservativeBackfill(reservation_depth=0)
        with pytest.raises(ValueError):
            ConservativeBackfill(max_candidates=0)

    def test_bounded_matches_unbounded_on_shallow_queue(self):
        """With depth >= queue length the bound is a no-op."""
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, requested_time=100, processors=10), now=0.0)
        rjob = make_job(2, submit_time=1, requested_time=100, runtime=100, processors=8)
        queued3 = make_job(3, submit_time=2, requested_time=100, runtime=100, processors=8)
        candidate = make_job(4, submit_time=3, requested_time=5000, runtime=5000, processors=6)
        queue = [rjob, queued3, candidate]
        decision = make_decision(
            machine, rjob, [candidate], queue=queue, estimator=ActualRuntime()
        )
        bounded = ConservativeBackfill(reservation_depth=10, max_candidates=10)
        unbounded = ConservativeBackfill()
        assert bounded.select_backfill(decision, ActualRuntime()) == \
            unbounded.select_backfill(decision, ActualRuntime())

    def test_depth_limits_the_guarantee(self):
        """A job beyond the reservation depth holds no reservation, so a
        candidate that would delay only it is accepted."""
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, requested_time=100, processors=10), now=0.0)
        rjob = make_job(2, submit_time=1, requested_time=100, runtime=100, processors=8)
        queued3 = make_job(3, submit_time=2, requested_time=100, runtime=100, processors=8)
        candidate = make_job(4, submit_time=3, requested_time=5000, runtime=5000, processors=6)
        queue = [rjob, queued3, candidate]
        decision = make_decision(
            machine, rjob, [candidate], queue=queue, estimator=ActualRuntime()
        )
        # Depth 2 plans only (rjob, queued3): still protected -> still None.
        assert ConservativeBackfill(reservation_depth=2).select_backfill(
            decision, ActualRuntime()
        ) is None
        # Depth 1 plans only the rjob; the candidate fits beside its
        # reservation, and queued3 is no longer protected -> accepted.
        choice = ConservativeBackfill(reservation_depth=1).select_backfill(
            decision, ActualRuntime()
        )
        assert choice is not None and choice.job_id == 4

    def test_max_candidates_truncates_attempts(self):
        # The setup of test_does_not_delay_second_queued_job: the 6-wide
        # long 'blocker' candidate would delay queued3's reservation and is
        # rejected; a small short candidate behind it is harmless.
        machine = Machine(16)
        machine.start(make_job(1, runtime=100, requested_time=100, processors=10), now=0.0)
        rjob = make_job(2, submit_time=1, requested_time=100, runtime=100, processors=8)
        queued3 = make_job(3, submit_time=2, requested_time=100, runtime=100, processors=8)
        blocker = make_job(4, submit_time=3, requested_time=5000, runtime=5000, processors=6)
        harmless = make_job(5, submit_time=4, requested_time=10, runtime=10, processors=2)
        queue = [rjob, queued3, blocker, harmless]
        decision = make_decision(
            machine, rjob, [blocker, harmless], queue=queue, estimator=ActualRuntime()
        )
        # Unbounded: rejects the blocker, then accepts the harmless one.
        unbounded = ConservativeBackfill().select_backfill(decision, ActualRuntime())
        assert unbounded is not None and unbounded.job_id == 5
        # Capped at one attempt: only the (rejected) blocker is ever tried.
        capped = ConservativeBackfill(max_candidates=1).select_backfill(
            decision, ActualRuntime()
        )
        assert capped is None
