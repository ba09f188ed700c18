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
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterator, List, Mapping, Optional, Sequence

from repro.workloads.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.cluster.machine import Machine
    from repro.cluster.resources import ResourceVector

__all__ = ["JobArrival", "JobCompletion", "DecisionPoint", "StaleDecisionError", "arrival_key"]

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


class StaleDecisionError(RuntimeError):
    """A decision point's deferred reservation was read after the point was answered."""


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
    spare_vectors:
        Node-group machines only: per-group resource vectors that remain free
        at ``reservation_time`` after setting the rjob aside.  ``None`` on
        scalar machines, where ``extra_processors`` carries the whole story.
        The three fields are one :meth:`Machine.reservation
        <repro.cluster.machine.Machine.reservation>` answer, which a producer
        may pass whole as ``reservation=`` -- or a call that returns it, made
        on the first read of any of the three and never if no reader asks.
        The call is valid only while the machine is where the point left it:
        once the producer calls :meth:`expire` (the simulator does when it
        resumes), an unread reservation raises :class:`StaleDecisionError`.
    candidates:
        Waiting jobs (excluding the rjob) that could be started immediately,
        **in queue order** -- a subsequence of ``queue``.  This class owns the
        rule (:meth:`candidate_slots`): unless the producer listed them, a
        candidate is a job of the ``queue`` snapshot, other than the rjob,
        that fits the machine *as captured when the point was built* -- no
        wider than the free processor count on a scalar machine, placeable on
        the free-map snapshot of a node-group machine
        (:meth:`Machine.fit_rule <repro.cluster.machine.Machine.fit_rule>`).
        The list is derived on first read and kept, so a reader that never
        asks (the RL encoder reads its window only) never pays for it, and a
        point read after it was answered still returns the same list.  A
        producer that passes ``candidates=`` makes that list the rule.
    queue:
        Snapshot of the full waiting queue (including the rjob), sorted by
        submission time -- the observation the RL agent sees.
    machine:
        Live machine state (read-only use expected).
    free_processors, free_fraction:
        The free processor count at the point's instant, and its share of the
        machine.  A scalar machine's count is captured when the point is
        built; a node-group machine's is read on first ask and kept, under
        the reservation's rule: a first read after :meth:`expire` raises
        :class:`StaleDecisionError`.
    queue_sorted:
        Producer's promise that ``queue`` (and so ``candidates``) is already
        sorted by ``(submit_time, job_id)``; lets the observation encoder and
        the arrival-order strategies skip their defensive re-sort.  Leave
        ``False`` for hand-built decision points unless the ordering is
        guaranteed.
    """

    __slots__ = (
        "time",
        "reserved_job",
        "queue",
        "machine",
        "queue_sorted",
        "_reservation",
        "_reserve",
        "_candidates",
        "_free",
        "_fits",
        "_count",
        "_expired",
    )

    def __init__(
        self,
        time: float,
        reserved_job: Job,
        reservation_time: Optional[float] = None,
        extra_processors: Optional[int] = None,
        candidates: Optional[List[Job]] = None,
        queue: Optional[List[Job]] = None,
        machine: Optional["Machine"] = None,
        queue_sorted: bool = False,
        spare_vectors: Optional[Mapping[str, "ResourceVector"]] = None,
        reservation: Optional[tuple | Callable[[], tuple]] = None,
    ):
        self.time = time
        self.reserved_job = reserved_job
        self.queue: List[Job] = [] if queue is None else queue
        self.machine = machine
        self.queue_sorted = queue_sorted
        if reservation is None:
            reservation = (reservation_time, extra_processors, spare_vectors)
        deferred = callable(reservation)
        self._reserve = reservation if deferred else None
        self._reservation = None if deferred else tuple(reservation)
        self._expired = False
        self._candidates = candidates
        # The free count of the point's instant: captured now on a scalar
        # machine, where the width rule holds it anyway; on a node-group
        # machine, where no rule needs it, read when first asked for
        # (``_live``).
        if machine is None:
            count = 0
        elif machine.allocator is None:
            count = machine.free_processors
        else:
            count = None
        self._count: Optional[int] = count
        # The rule the candidates are derived by, captured now: the machine
        # moves on once the point is answered.  ``_free`` is the free count
        # of the width rule, ``_fits`` a node-group machine's placement rule;
        # both ``None`` when the producer's own list is the rule.
        self._free: Optional[int] = None
        self._fits: Optional[Callable[[Job], bool]] = None
        if candidates is None:
            if count is not None:
                self._free = count
            else:
                self._fits = machine.fit_rule()

    def __repr__(self) -> str:
        reservation = self._reservation
        if reservation is None:
            shown = "expired" if self._expired else "deferred"
        else:
            shown = f"reservation_time={reservation[0]!r}, extra_processors={reservation[1]}"
        return (
            f"DecisionPoint(time={self.time!r}, reserved_job={self.reserved_job.job_id}, "
            f"{shown}, queue={len(self.queue)} jobs)"
        )

    def _live(self, what: str) -> None:
        """Guard a first read of ``what`` off the live machine: valid only
        until the point is answered."""
        if self._expired:
            raise StaleDecisionError(
                f"{self!r}: the {what} was first read after the point was "
                f"answered, and the machine has moved on since"
            )

    def _reserved(self) -> tuple:
        reservation = self._reservation
        if reservation is None:
            self._live("reservation")
            reservation = self._reservation = self._reserve()
        return reservation

    def expire(self) -> None:
        """The machine is moving on: what has not been read off it can no longer be."""
        self._expired = True

    @property
    def reservation_time(self) -> float:
        return self._reserved()[0]

    @property
    def extra_processors(self) -> int:
        return self._reserved()[1]

    @property
    def spare_vectors(self) -> Optional[Mapping[str, "ResourceVector"]]:
        return self._reserved()[2]

    @property
    def free_processors(self) -> int:
        """Processors free at the point's instant (0 without a machine)."""
        count = self._count
        if count is None:
            self._live("free count")
            count = self._count = self.machine.free_processors
        return count

    @property
    def free_fraction(self) -> float:
        """``free_processors`` over the machine's size (0.0 without a machine)."""
        if self.machine is None:
            return 0.0
        return self.free_processors / self.machine.num_processors

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
        fits = self._fits
        if fits is not None:
            return [
                slot for slot, job in enumerate(jobs) if job.job_id != reserved_id and fits(job)
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

    def iter_candidates(self) -> Iterator[Job]:
        """``candidates``, derived job by job as the reader walks them: a reader
        that stops at an early candidate never asks about the rest of the
        snapshot.  A walk that reaches the end keeps the list it derived."""
        if self._candidates is not None:
            yield from self._candidates
            return
        reserved_id, free, fits, found = self.reserved_job.job_id, self._free, self._fits, []
        for job in self.queue:
            if job.job_id != reserved_id and (
                job.requested_processors <= free if free is not None else fits(job)
            ):
                found.append(job)
                yield job
        self._candidates = found

    def first_candidates(self, limit: Optional[int]) -> List[Job]:
        """``candidates[:limit]`` without deriving the candidates past ``limit``."""
        if limit is None:
            return self.candidates
        return list(islice(self.iter_candidates(), limit))

    def candidate_ids(self) -> Sequence[int]:
        return [job.job_id for job in self.candidates]

    def would_delay(self, job: Job, estimated_runtime: float) -> bool:
        """Whether backfilling ``job`` (believed to run ``estimated_runtime``)
        would delay the reserved job under the EASY rules.

        On node-group machines (``spare_vectors`` set) the "fits beside the
        reservation" arm is per-resource: some eligible group must hold the
        candidate's full vector both right now and within the spare envelope
        at the reservation instant, so a long-running backfill can never eat
        into the resources the reservation counts on.
        """
        reservation_time, extra, spares = self._reservation or self._reserved()
        if self.time + estimated_runtime <= reservation_time + 1e-9:
            return False
        if spares is not None and self.machine is not None:
            return not self.machine.fits_beside(job, spares)
        return job.requested_processors > extra
