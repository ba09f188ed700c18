"""Conservative backfilling (Mu'alem & Feitelson 2001).

Unlike EASY, conservative backfilling guarantees that **no** waiting job is
delayed by a backfill: every waiting job holds a reservation in a
free-processor profile, and a candidate may only start now if, after
re-planning the whole queue with the candidate running, no higher-priority
job's reservation moves later.

The plan is re-derived at every decision point from the availability profile
(running jobs under the active estimator plus the waiting queue in base-policy
priority order), which keeps the strategy stateless between decision points.
Decision points are *not* rare -- one contended quick-scale cell spent 41 s
replanning -- so a decision does the least work that yields the same floats.
With q waiting jobs, c candidates tried and b breakpoints (up to running + 2q):

* before (kept as the oracle in ``tests/test_conservative_fast_path.py``): 1 + c
  profile builds from ``machine.running_jobs`` and 1 + c whole replans, every
  reservation scanning from each breakpoint -- O(c q b^2);
* now: one build cloned per trial (``copy()``), a one-sweep ``earliest_start``
  (O(b)), trials that stop at the first job pushed past its baseline start,
  and each job's duration, request and eligible groups worked out once per
  decision -- O(c q b) at worst, and most rejected trials end at job one or two.

Production schedulers bound the replan the way this class optionally does:
``reservation_depth`` plans reservations for only the first N waiting jobs
(Slurm's ``bf_max_job_test`` / Moab's reservation depth -- the no-delay
guarantee then covers those N jobs), and ``max_candidates`` caps how many
backfill candidates are *tried* per decision.  Both default to ``None``
(unbounded, the textbook algorithm).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.cluster.resources import ResourceVector
from repro.prediction.predictors import RuntimeEstimator
from repro.scheduler.backfill.base import BackfillStrategy
from repro.scheduler.backfill.profile import GroupReservationProfile, ResourceProfile
from repro.scheduler.events import DecisionPoint, arrival_key
from repro.workloads.job import Job

__all__ = ["ConservativeBackfill"]


class _Need(NamedTuple):
    """What one job's reservation asks of the profile."""

    duration: float
    amount: Union[int, ResourceVector]
    groups: Optional[List[str]]  # eligible node groups; ``None`` on a scalar machine


# The two profiles differ only in how a reservation is addressed: each returns where
# a need lands earliest and the ``reserve`` arguments that commit it there.
def _place_scalar(profile: ResourceProfile, need: _Need) -> Tuple[float, tuple]:
    start = profile.earliest_start(need.amount, need.duration)
    return start, (start, need.duration, need.amount)


def _place_grouped(profile: GroupReservationProfile, need: _Need) -> Tuple[float, tuple]:
    start, group = profile.earliest_start(need.amount, need.duration, need.groups)
    return start, (group, start, need.duration, need.amount)


class ConservativeBackfill(BackfillStrategy):
    """Backfill only jobs that delay no reservation of any waiting job."""

    name = "conservative"

    def __init__(
        self,
        order: str = "fcfs",
        reservation_depth: int | None = None,
        max_candidates: int | None = None,
    ):
        if order not in ("fcfs", "sjf"):
            raise ValueError(f"unsupported candidate order {order!r}")
        if reservation_depth is not None and reservation_depth <= 0:
            raise ValueError("reservation_depth must be positive when given")
        if max_candidates is not None and max_candidates <= 0:
            raise ValueError("max_candidates must be positive when given")
        self.order = order
        self.reservation_depth = reservation_depth
        self.max_candidates = max_candidates

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _base_profile(decision: DecisionPoint, estimator: RuntimeEstimator) -> ResourceProfile:
        machine = decision.machine
        if machine is None:
            raise ValueError("conservative backfilling requires machine state on the decision point")
        running = [
            (r.estimated_end_time(estimator), r.allocation.processors)
            for r in machine.running_jobs
        ]
        profile = ResourceProfile.from_running_jobs(machine.num_processors, decision.time, running)
        # Scheduled capacity drains shape availability exactly like running
        # jobs do, except they may overlap processors already committed to
        # running jobs (graceful drain), hence the clipped subtraction.
        for start, end, processors in machine.capacity_drains(decision.time):
            profile.drain(start, end - start, processors)
        return profile

    @staticmethod
    def _hetero_base_profile(
        decision: DecisionPoint, estimator: RuntimeEstimator
    ) -> GroupReservationProfile:
        """Per-group vector profiles: running grants reserved where they live."""
        machine = decision.machine
        now = decision.time
        profile = GroupReservationProfile(machine.topology, origin=now)
        for record in machine.running_jobs:
            grant = machine.group_allocation(record.job.job_id)
            end = max(record.estimated_end_time(estimator), now + 1.0)
            profile.reserve(grant.group, now, end - now, grant.vector)
        for start, end, group, vector in machine.hetero_capacity_drains(now):
            profile.drain(group, start, end - start, vector)
        return profile

    @staticmethod
    def _need(job: Job, estimator: RuntimeEstimator, hetero_machine) -> _Need:
        duration = max(float(estimator(job)), 1.0)
        if hetero_machine is None:
            return _Need(duration, job.requested_processors, None)
        request, eligible = hetero_machine.job_need(job)
        return _Need(duration, request, [group.name for group in eligible])

    @staticmethod
    def _plan(
        profile,
        place: Callable,
        queue: List[Job],
        needs: Dict[int, _Need],
        baseline: Optional[Dict[int, float]] = None,
    ) -> Optional[Dict[int, float]]:
        """Greedily reserve every queued job in order; return job_id -> start time.

        With a ``baseline`` plan this is a trial: it stops with ``None`` at the
        first job that would start later than the baseline promised it.
        """
        plan: Dict[int, float] = {}
        for job in queue:
            start, claim = place(profile, needs[job.job_id])
            if baseline is not None and start > baseline[job.job_id] + 1e-6:
                return None
            profile.reserve(*claim)
            plan[job.job_id] = start
        return plan

    def _queue_in_order(self, decision: DecisionPoint) -> List[Job]:
        # The reserved job is planned first (it is the base policy's pick);
        # the remaining queue keeps submission order, which is the ordering
        # conservative backfilling traditionally promises not to delay.
        rest = [j for j in decision.queue if j.job_id != decision.reserved_job.job_id]
        if not decision.queue_sorted:
            rest.sort(key=arrival_key)
        return [decision.reserved_job] + rest

    # -- strategy ----------------------------------------------------------
    def select_backfill(
        self, decision: DecisionPoint, estimator: RuntimeEstimator
    ) -> Optional[Job]:
        queue = self._queue_in_order(decision)
        if self.reservation_depth is not None:
            # Reservations (and thus the no-delay guarantee) cover only the
            # first N waiting jobs, like Slurm's bf_max_job_test.
            queue = queue[: self.reservation_depth]
        machine = decision.machine
        hetero = machine is not None and getattr(machine, "topology", None) is not None
        hetero_machine = machine if hetero else None
        # The estimator is first asked about the running jobs, then the queue in
        # plan order, then the candidates: a noisy estimator draws in that order.
        base = (self._hetero_base_profile if hetero else self._base_profile)(decision, estimator)
        place = _place_grouped if hetero else _place_scalar
        needs = {job.job_id: self._need(job, estimator, hetero_machine) for job in queue}
        baseline_plan = self._plan(base.copy(), place, queue, needs)

        candidates = decision.candidates
        if self.order == "sjf":
            candidates = sorted(candidates, key=lambda j: (estimator(j), j.submit_time, j.job_id))
        elif not decision.queue_sorted:
            candidates = sorted(candidates, key=arrival_key)
        if self.max_candidates is not None:
            candidates = candidates[: self.max_candidates]

        graceful = bool(getattr(machine, "capacity_schedule", ()))
        for candidate in candidates:
            where: tuple = ()
            if hetero:
                # The trial debits the group the allocator would actually pick
                # right now, keeping the what-if consistent with placement.
                group = machine.placement_group(candidate)
                if group is None:
                    continue
                where = (group,)
            need = needs.get(candidate.job_id) or self._need(candidate, estimator, hetero_machine)
            # Pretend the candidate starts right now.  Under a capacity schedule it
            # may gracefully straddle a drain window it starts before (the drain
            # never preempts), so its reservation uses the clipped drain-subtraction;
            # the planner's own reservations still go through the raising ``reserve``.
            trial = base.copy()
            claim = trial.drain if graceful else trial.reserve
            claim(*where, decision.time, need.duration, need.amount)
            remaining = [j for j in queue if j.job_id != candidate.job_id]
            if self._plan(trial, place, remaining, needs, baseline_plan) is not None:
                return candidate
        return None
