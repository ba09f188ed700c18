"""Event and decision-point types exchanged between the simulator and policies.

The simulator is a generator that yields :class:`DecisionPoint` objects
whenever a backfilling opportunity arises (the selected job cannot start).
Heuristic strategies and the RL agent both answer a decision point with the
job to backfill next, or ``None`` to pass; this single interface is what lets
the trained RL policy plug into exactly the same simulation loop that the
EASY baselines use.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence

from repro.workloads.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.cluster.machine import Machine
    from repro.cluster.resources import ResourceVector

__all__ = ["JobArrival", "JobCompletion", "DecisionPoint", "arrival_key"]

#: Waiting-queue order: the sort key ``(submit_time, job_id)`` of a job.
arrival_key = attrgetter("submit_time", "job_id")


@dataclass(frozen=True, slots=True)
class JobArrival:
    """A job entered the waiting queue at ``time``."""

    time: float
    job: Job


@dataclass(frozen=True, slots=True)
class JobCompletion:
    """A running job finished and released its processors at ``time``."""

    time: float
    job: Job
    start_time: float


class DecisionPoint:
    """A backfilling opportunity.

    Attributes
    ----------
    time:
        Current simulation time.
    reserved_job:
        The job selected by the base policy that cannot start yet (the
        paper's *rjob*); backfilled jobs should not delay it.
    reservation_time:
        The rjob's estimated earliest start time under the active runtime
        estimator.
    extra_processors:
        Processors that remain free at ``reservation_time`` after setting the
        rjob's processors aside; jobs at most this wide can never delay the
        reservation regardless of how long they run.
    candidates:
        Waiting jobs (excluding the rjob) that could be started immediately,
        **in queue order** -- a subsequence of ``queue``.  This class owns the
        rule (:meth:`candidate_slots`): unless the producer listed them, a
        candidate is a job of the ``queue`` snapshot, other than the rjob, no
        wider than the free processor count *captured when the point was
        built*.  The list is derived on first read and kept, so a reader that
        never asks (the RL encoder reads its window only) never pays for it,
        and a point read after it was answered still returns the same list.
        A producer for which fitting is not a width comparison (node-group
        placement) passes ``candidates=`` and that list is the rule.
    queue:
        Snapshot of the full waiting queue (including the rjob), sorted by
        submission time -- the observation the RL agent sees.
    machine:
        Live machine state (read-only use expected).
    queue_sorted:
        Producer's promise that ``queue`` (and so ``candidates``) is already
        sorted by ``(submit_time, job_id)``; lets the observation encoder and
        the arrival-order strategies skip their defensive re-sort.  Leave
        ``False`` for hand-built decision points unless the ordering is
        guaranteed.
    spare_vectors:
        Heterogeneous clusters only: per-group resource vectors that remain
        free at ``reservation_time`` after setting the rjob aside (from
        :meth:`Machine.hetero_reservation`).  ``None`` on scalar machines,
        where ``extra_processors`` carries the whole story.
    """

    __slots__ = (
        "time",
        "reserved_job",
        "reservation_time",
        "extra_processors",
        "queue",
        "machine",
        "queue_sorted",
        "spare_vectors",
        "_candidates",
        "_free",
    )

    def __init__(
        self,
        time: float,
        reserved_job: Job,
        reservation_time: float,
        extra_processors: int,
        candidates: Optional[List[Job]] = None,
        queue: Optional[List[Job]] = None,
        machine: Optional["Machine"] = None,
        queue_sorted: bool = False,
        spare_vectors: Optional[Mapping[str, "ResourceVector"]] = None,
    ):
        self.time = time
        self.reserved_job = reserved_job
        self.reservation_time = reservation_time
        self.extra_processors = extra_processors
        self.queue: List[Job] = [] if queue is None else queue
        self.machine = machine
        self.queue_sorted = queue_sorted
        self.spare_vectors = spare_vectors
        self._candidates = candidates
        # The free count the width rule compares against; ``None`` when the
        # producer's own list is the rule.  Captured now: the machine moves on
        # once the point is answered.
        self._free: Optional[int] = None
        if candidates is None:
            self._free = machine.free_processors if machine is not None else 0

    def __repr__(self) -> str:
        return (
            f"DecisionPoint(time={self.time!r}, reserved_job={self.reserved_job.job_id}, "
            f"reservation_time={self.reservation_time!r}, "
            f"extra_processors={self.extra_processors}, queue={len(self.queue)} jobs)"
        )

    @property
    def free_processors(self) -> int:
        return self.machine.free_processors if self.machine is not None else 0

    @property
    def free_fraction(self) -> float:
        return self.machine.free_fraction if self.machine is not None else 0.0

    def candidate_slots(self, jobs: Sequence[Job]) -> List[int]:
        """Positions in ``jobs`` -- queued jobs, in any order -- that hold a candidate.

        The one statement of "a queued job, other than the reserved one, that
        can start now": ``candidates`` is this over the whole snapshot, the
        encoder asks it about its window, the simulator about the job a
        strategy chose.
        """
        reserved_id = self.reserved_job.job_id
        free = self._free
        if free is not None:
            return [
                slot
                for slot, job in enumerate(jobs)
                if job.requested_processors <= free and job.job_id != reserved_id
            ]
        listed = {job.job_id for job in self._candidates}
        return [
            slot
            for slot, job in enumerate(jobs)
            if job.job_id in listed and job.job_id != reserved_id
        ]

    @property
    def candidates(self) -> List[Job]:
        if self._candidates is None:
            queue = self.queue
            self._candidates = [queue[slot] for slot in self.candidate_slots(queue)]
        return self._candidates

    def first_candidates(self, limit: Optional[int]) -> List[Job]:
        """``candidates[:limit]`` without deriving the candidates past ``limit``.

        The snapshot is asked :meth:`candidate_slots` a stretch at a time; a
        walk that reaches its end has derived the whole list, which is kept.
        """
        if limit is None or self._candidates is not None:
            return self.candidates[:limit]
        queue, found = self.queue, []
        stretch = 4 * limit
        for lo in range(0, len(queue), stretch):
            part = queue[lo : lo + stretch]
            found += [part[slot] for slot in self.candidate_slots(part)]
            if len(found) >= limit:
                return found[:limit]
        self._candidates = found
        return found

    def candidate_ids(self) -> Sequence[int]:
        return [job.job_id for job in self.candidates]

    def would_delay(self, job: Job, estimated_runtime: float) -> bool:
        """Whether backfilling ``job`` (believed to run ``estimated_runtime``)
        would delay the reserved job under the EASY rules.

        On heterogeneous machines (``spare_vectors`` set) the "fits beside the
        reservation" arm is per-resource: some eligible group must hold the
        candidate's full vector both right now and within the spare envelope
        at the reservation instant, so a long-running backfill can never eat
        into the resources the reservation counts on.
        """
        finishes_in_time = self.time + estimated_runtime <= self.reservation_time + 1e-9
        if self.spare_vectors is not None and self.machine is not None:
            if finishes_in_time:
                return False
            return not self.machine.fits_beside(job, self.spare_vectors)
        fits_beside_reservation = job.requested_processors <= self.extra_processors
        return not (finishes_in_time or fits_beside_reservation)
