"""Conservative backfilling (Mu'alem & Feitelson 2001).

Unlike EASY, conservative backfilling guarantees that **no** waiting job is
delayed by a backfill: every waiting job holds a reservation in a
free-capacity profile, and a candidate may only start now if, after
re-planning the whole queue with the candidate running, no higher-priority
job's reservation moves later.  The profile is one class on every machine
(:class:`~repro.scheduler.backfill.profile.ReservationProfile`, a step
function per resource per node group); the machine says what it plans from
-- held grants, drains ahead, a job's need and eligible groups, where a
candidate would be placed -- and the scalar machine answers as one cpu-only
group.

**The definition** is the trial replan: the *baseline plan* reserves the queue
greedily, in base-policy priority order, on the availability profile (running
jobs under the active estimator, scheduled drains); a candidate's *trial*
claims the candidate now and replans the others, and the candidate is refused
at the first job whose start moves more than ``1e-6`` past its baseline.
Decision points are *not* rare -- one contended quick-scale cell spent 41 s
replanning -- so a decision does the least work that yields the same floats.
With q planned jobs, c candidates and b breakpoints (up to running + 2q):

* the textbook form (its schedules are pinned by the golden decision streams
  in ``tests/golden/``): 1 + c profile builds and 1 + c whole replans, every
  reservation scanning from each breakpoint -- O(c q b^2);
* PR 14: one build cloned per trial, a one-sweep ``earliest_start`` (O(b)),
  trials that stop at the first delayed job -- O(c q b);
* now: at most one baseline plan per instant, O(q b), and **a trial only where
  the plan cannot answer** (proofs in docs/simulator.md).  With ``t`` the
  decision time and ``s_c`` the candidate's start in the baseline plan:
  **(A)** ``s_c == t`` in the group the candidate would be placed in now, and
  the claim clips nothing -- the trial would repeat the baseline reservation
  for reservation, so the candidate is accepted untried; **(R)** ``s_c > t``
  where the plan is one step function (one group, one resource) -- some job
  planned before the candidate must move to a later instant of the profile,
  so it is refused untried; **(C)** the next call at the same
  instant, after (A)'s candidate was started, takes over the plan minus that
  candidate instead of planning again.

The rules read instants off the profile as if they were exact, so they apply
only to a *spaced* plan: every two distinct instants of the planned profile,
and the candidate's end against its neighbours, more than ``2e-6`` apart (one
pass per plan).  Everything else -- a clipped claim under a capacity schedule,
a candidate beyond ``reservation_depth``, an unspaced profile -- runs the
trial.  A stateful estimator is asked exactly as before (running jobs by true
end time, the queue in plan order, the candidate sort, each tried candidate)
and nothing of it is kept.

**What is kept between calls**, for a ``stateless`` estimator only: each job's
duration, request and eligible groups, until the next sequence or another
machine or estimator; and, after an (A) acceptance with the whole snapshot
planned, that decision's base profile, plan and planned profile with the
candidate moved from the queue to the running jobs.  The next call uses them
only if it comes with the same machine, estimator and capacity schedule at the
same instant, the machine's running-set version moved by exactly one, the
candidate running where it was planned, and the queue it would plan being the
kept one; it is dropped by any other call, by ``on_sequence_start``, and by
copying or pickling the strategy.

Production schedulers bound the replan the way this class optionally does:
``reservation_depth`` plans reservations for only the first N waiting jobs
(Slurm's ``bf_max_job_test`` / Moab's reservation depth -- the no-delay
guarantee then covers those N jobs), and ``max_candidates`` caps how many
backfill candidates are *tried* per decision.  Both default to ``None``
(unbounded, the textbook algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.prediction.predictors import RuntimeEstimator
from repro.scheduler.backfill.base import BackfillStrategy
from repro.scheduler.backfill.profile import ReservationProfile, clear_of, spaced
from repro.scheduler.events import DecisionPoint, arrival_key
from repro.workloads.job import Job

__all__ = ["ConservativeBackfill"]

#: A trial start this far past its baseline is a delay.
_DELAY = 1e-6
#: Instants further apart than this are told apart by the delay test and never
#: merged by the profile (which merges within 1e-9).
_SPACING = 2e-6


class _Need(NamedTuple):
    """What one job's reservation asks of the profile, in ``reserve_earliest``'s order."""

    amounts: Tuple[int, ...]  # ``(cpus, memory, gpus)``
    duration: float
    groups: Sequence[str]  # the groups that could ever host it, in placement order


@dataclass(slots=True)
class _Plan:
    """One decision's planning inputs and the baseline plan made from them."""

    base: ReservationProfile  # running jobs and drains, nothing planned
    queue: List[Job]  # the planned jobs, in plan order
    needs: Dict[int, _Need]  # at least every planned job's
    placed: Dict[int, Tuple[float, str]]  # the baseline plan: each job's start and group
    planned: ReservationProfile  # ``base`` with every planned job reserved
    instants: Optional[Sequence[float]]  # ``planned``'s, ``None`` unless spaced


class _Kept(NamedTuple):
    """An (A) acceptance, and what the next call must find to take over its plan."""

    machine: object
    version: int
    schedule: tuple
    time: float
    estimator: RuntimeEstimator
    candidate: Job
    group: str
    plan: _Plan  # the candidate already moved from the queue to the running jobs


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
        self.on_sequence_start()

    def on_sequence_start(self) -> None:
        self._kept: Optional[_Kept] = None
        # job_id -> (job, need) under ``_needs_of``'s machine and estimator.
        self._needs_memo: Dict[int, Tuple[Job, _Need]] = {}
        self._needs_of: Optional[Tuple[object, RuntimeEstimator]] = None

    def __getstate__(self) -> dict:
        # The options only: what is kept between calls refers to one live machine.
        return {
            "order": self.order,
            "reservation_depth": self.reservation_depth,
            "max_candidates": self.max_candidates,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.on_sequence_start()

    # -- planning inputs ---------------------------------------------------
    @staticmethod
    def _base_profile(decision: DecisionPoint, estimator: RuntimeEstimator) -> ReservationProfile:
        """Running grants reserved where they live, and the drains ahead."""
        machine, now = decision.machine, decision.time
        if machine is None:
            raise ValueError("conservative backfilling requires machine state on the decision point")
        groups, profile = machine.layout, None
        if getattr(estimator, "stateless", False):
            profile = ReservationProfile.from_releases(groups, now, machine.held_grants(estimator))
        if profile is None:
            # One reservation per grant, by true end time: the order a stateful
            # estimator is asked in, and the order that decides which of two
            # ends within eps of each other stays a breakpoint.
            held = machine.held_grants(estimator, by_end=True)
            profile = ReservationProfile.from_running_jobs(groups, now, held)
        # Scheduled capacity drains shape availability exactly like running
        # jobs do, except they may overlap processors already committed to
        # running jobs (graceful drain), hence the clipped subtraction.
        for start, end, group, amounts in machine.capacity_drains(now):
            profile.drain(group, start, end - start, amounts)
        return profile

    def _need_once(self, job: Job, estimator: RuntimeEstimator, machine) -> _Need:
        """What ``job``'s reservation asks, worked out once per job for a stateless estimator."""
        stateless = getattr(estimator, "stateless", False)
        entry = self._needs_memo.get(job.job_id) if stateless else None
        if entry is None or entry[0] is not job:
            duration = max(float(estimator(job)), 1.0)
            request, eligible = machine.job_need(job)
            entry = (job, _Need(request.amounts, duration, [group.name for group in eligible]))
            if stateless:
                self._needs_memo[job.job_id] = entry
        return entry[1]

    def _queue_in_order(self, decision: DecisionPoint) -> List[Job]:
        # The reserved job is planned first (it is the base policy's pick);
        # the remaining queue keeps submission order, which is the ordering
        # conservative backfilling traditionally promises not to delay.
        # Reservations (and thus the no-delay guarantee) cover only the first
        # ``reservation_depth`` waiting jobs, like Slurm's bf_max_job_test.
        reserved = decision.reserved_job
        rest = (j for j in decision.queue if j.job_id != reserved.job_id)
        depth = self.reservation_depth
        if not decision.queue_sorted:
            rest = sorted(rest, key=arrival_key)
        return [reserved, *(rest if depth is None else islice(rest, depth - 1))]

    def _candidates(self, decision: DecisionPoint, estimator: RuntimeEstimator) -> List[Job]:
        if self.order == "sjf":
            candidates = sorted(
                decision.candidates, key=lambda j: (estimator(j), j.submit_time, j.job_id)
            )
        elif decision.queue_sorted:
            return decision.first_candidates(self.max_candidates)
        else:
            candidates = sorted(decision.candidates, key=arrival_key)
        return candidates[: self.max_candidates]

    def _from_scratch(
        self, decision: DecisionPoint, estimator: RuntimeEstimator, queue: List[Job]
    ) -> _Plan:
        # The estimator is first asked about the running jobs, then the queue in
        # plan order, then the candidates: a noisy estimator draws in that order.
        base = self._base_profile(decision, estimator)
        needs = {job.job_id: self._need_once(job, estimator, decision.machine) for job in queue}
        planned = base.copy()
        placed = {job.job_id: planned.reserve_earliest(*needs[job.job_id]) for job in queue}
        instants = planned.instants()
        return _Plan(
            base, queue, needs, placed, planned, instants if spaced(instants, _SPACING) else None
        )

    # -- (C): the accepted plan is the next decision's baseline -------------
    def _keep(
        self,
        plan: _Plan,
        decision: DecisionPoint,
        estimator: RuntimeEstimator,
        candidate: Job,
        group: str,
    ) -> Optional[_Kept]:
        """What the next call may take over once ``candidate`` was accepted by (A)."""
        machine, now = decision.machine, decision.time
        if not getattr(estimator, "stateless", False) or len(plan.queue) != len(decision.queue):
            return None  # a job beyond the depth would enter the plan
        need = plan.needs[candidate.job_id]
        # The running candidate is reserved as ``from_running_jobs`` will reserve it,
        # and must end on the very float its planned reservation ends on.
        held = max(now + max(float(estimator(candidate)), 0.0), now + 1.0) - now
        if now + held != now + need.duration:
            return None
        plan.base.reserve(group, now, held, need.amounts)
        plan.queue = [job for job in plan.queue if job is not candidate]
        del plan.placed[candidate.job_id]
        return _Kept(
            machine, machine.version, machine.capacity_schedule, now, estimator,
            candidate, group, plan,
        )

    @staticmethod
    def _carried(
        kept: _Kept, decision: DecisionPoint, estimator: RuntimeEstimator, queue: List[Job]
    ) -> Optional[_Plan]:
        """``kept``'s plan if this call's from-scratch inputs are the kept ones."""
        machine = decision.machine
        if (
            machine is kept.machine
            and machine.version == kept.version + 1
            and machine.capacity_schedule is kept.schedule
            and decision.time == kept.time
            and estimator is kept.estimator
            and machine.running_group(kept.candidate.job_id) == kept.group
            and queue == kept.plan.queue
        ):
            return kept.plan
        return None

    # -- one candidate -------------------------------------------------------
    @staticmethod
    def _untried(
        plan: _Plan, now: float, need: _Need, placed: Optional[tuple], group: str, graceful: bool
    ) -> Optional[bool]:
        """The trial's verdict read off the baseline plan, ``None`` where it cannot be."""
        if placed is None or plan.instants is None:
            return None
        end = now + need.duration
        if not clear_of(plan.instants, end, _SPACING):
            return None
        if placed == (now, group):
            # (A).  Planned at ``now``, the candidate has its whole request free in
            # ``base`` until ``end``, so the claim clips nothing even when it drains.
            return True
        cpus = plan.base.step_function()
        if cpus is None:
            return None  # a displaced job may find the same start in another group or resource
        if graceful and cpus.min_free_between(now, end) < need.amounts[0]:
            return None  # a clipped claim takes less than the plan refused it for
        return False  # (R)

    @staticmethod
    def _trial(
        plan: _Plan, now: float, candidate: Job, need: _Need, group: str, graceful: bool
    ) -> bool:
        """Whether the queue replanned beside ``candidate`` started now delays no job."""
        # Under a capacity schedule the candidate may gracefully straddle a drain
        # window it starts before (the drain never preempts), so its reservation
        # uses the clipped drain-subtraction; the planner's own reservations
        # still go through the raising ``reserve``.
        trial = plan.base.copy()
        (trial.drain if graceful else trial.reserve)(group, now, need.duration, need.amounts)
        needs, placed, skip = plan.needs, plan.placed, candidate.job_id
        for job in plan.queue:
            job_id = job.job_id
            if job_id != skip:
                latest = placed[job_id][0] + _DELAY
                if trial.reserve_earliest(*needs[job_id], latest)[0] > latest:
                    return False
        return True

    # -- strategy ----------------------------------------------------------
    def select_backfill(
        self, decision: DecisionPoint, estimator: RuntimeEstimator
    ) -> Optional[Job]:
        machine, now = decision.machine, decision.time
        memo_of = self._needs_of
        if memo_of is None or memo_of[0] is not machine or memo_of[1] is not estimator:
            self._needs_memo, self._needs_of = {}, (machine, estimator)
        kept, self._kept = self._kept, None
        queue = self._queue_in_order(decision)
        plan = None if kept is None else self._carried(kept, decision, estimator, queue)
        if plan is None:
            plan = self._from_scratch(decision, estimator, queue)

        graceful = bool(machine.capacity_schedule)
        for candidate in self._candidates(decision, estimator):
            need = plan.needs.get(candidate.job_id) or self._need_once(candidate, estimator, machine)
            # The trial debits the group the candidate would actually be placed
            # in right now, keeping the what-if consistent with placement; a
            # candidate (it can start now) with one eligible group goes there.
            group = need.groups[0] if len(need.groups) == 1 else machine.placement_group(candidate)
            if group is None:
                continue
            placed = plan.placed.get(candidate.job_id)
            verdict = self._untried(plan, now, need, placed, group, graceful)
            if verdict:
                self._kept = self._keep(plan, decision, estimator, candidate, group)
            elif verdict is None:
                verdict = self._trial(plan, now, candidate, need, group, graceful)
            if verdict:
                return candidate
        return None
