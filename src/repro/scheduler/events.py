"""Event and decision-point types exchanged between the simulator and policies.

The simulator is a generator that yields :class:`DecisionPoint` objects
whenever a backfilling opportunity arises (the selected job cannot start).
Heuristic strategies and the RL agent both answer a decision point with the
job to backfill next, or ``None`` to pass; this single interface is what lets
the trained RL policy plug into exactly the same simulation loop that the
EASY baselines use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence

from repro.workloads.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.cluster.machine import Machine
    from repro.cluster.resources import ResourceVector

__all__ = ["JobArrival", "JobCompletion", "DecisionPoint"]


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


@dataclass(slots=True)
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
        Waiting jobs (excluding the rjob) that fit in the currently free
        processors and could be started immediately.  Producers promise a
        **subsequence of** ``queue`` **in queue order**: the simulator filters
        its sorted queue, and filters that list again after each accepted
        backfill.  The observation encoder relies on it -- the candidates
        inside its queue window are then a prefix of this list.
    queue:
        Snapshot of the full waiting queue (including the rjob), sorted by
        submission time -- the observation the RL agent sees.
    machine:
        Live machine state (read-only use expected).
    queue_sorted:
        Producer's promise that ``queue`` is already sorted by
        ``(submit_time, job_id)``; lets the observation encoder skip its
        defensive re-sort on the rollout hot path.  Leave ``False`` for
        hand-built decision points unless the ordering is guaranteed.
    spare_vectors:
        Heterogeneous clusters only: per-group resource vectors that remain
        free at ``reservation_time`` after setting the rjob aside (from
        :meth:`Machine.hetero_reservation`).  ``None`` on scalar machines,
        where ``extra_processors`` carries the whole story.
    """

    time: float
    reserved_job: Job
    reservation_time: float
    extra_processors: int
    candidates: List[Job]
    queue: List[Job] = field(default_factory=list)
    machine: Optional["Machine"] = None
    queue_sorted: bool = False
    spare_vectors: Optional[Mapping[str, "ResourceVector"]] = None

    @property
    def free_processors(self) -> int:
        return self.machine.free_processors if self.machine is not None else 0

    @property
    def free_fraction(self) -> float:
        return self.machine.free_fraction if self.machine is not None else 0.0

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
