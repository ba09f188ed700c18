"""Batch job model and trace container following the Standard Workload Format.

A :class:`Job` carries the attributes the paper's Table 1 lists (submit time,
requested nodes, requested time) plus the actual runtime recorded by the
archive after execution.  Jobs are immutable; all scheduling state (start
time, completion time, wait time) lives in the simulator so the same trace
object can be scheduled many times concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Iterable, Iterator, List, Sequence

__all__ = ["Job", "Trace"]


@dataclass(frozen=True, slots=True)
class Job:
    """A single rigid batch job.

    Attributes
    ----------
    job_id:
        Identifier unique within the trace (SWF field 1).
    submit_time:
        Submission time in seconds from the start of the trace (SWF field 2).
    runtime:
        Actual runtime in seconds observed after the job ran (SWF field 4).
        This is the ground truth the EASY-AR baseline and the noisy runtime
        predictors draw from.
    requested_processors:
        Number of processors requested; the job occupies exactly this many
        nodes for ``runtime`` seconds once started (rigid job model).
    requested_time:
        User-provided wall-time estimate (SWF field 9).  Always an upper
        bound used by EASY backfilling; ``-1`` in the archive means missing
        and is normalized to ``runtime`` at construction time by the parsers.
    user_id, group_id, executable, queue, partition, status:
        Optional SWF metadata kept for completeness; ``partition`` binds the
        job to a node group on heterogeneous clusters (see docs/cluster.md),
        the rest is unused by the scheduler.
    used_memory, requested_memory:
        Per-processor memory in the trace's unit (SWF fields 7 and 10, KB in
        the archives); ``-1`` is the archive's "missing" sentinel.  The
        allocator layer turns these into a per-job memory requirement
        (:func:`repro.cluster.allocator.job_request`).
    requested_gpus:
        GPUs the job occupies while running.  SWF has no GPU field; scenario
        transforms assign this (default 0 -- no GPU demand, the homogeneous
        case).
    """

    job_id: int
    submit_time: float
    runtime: float
    requested_processors: int
    requested_time: float
    user_id: int = -1
    group_id: int = -1
    executable: int = -1
    queue: int = -1
    partition: int = -1
    status: int = 1
    used_memory: int = -1
    requested_memory: int = -1
    requested_gpus: int = 0

    def __post_init__(self) -> None:
        # NaN passes every comparison below (each is False), and an infinite
        # time never completes: both would hang the event loop.
        if not (isfinite(self.submit_time) and isfinite(self.runtime) and isfinite(self.requested_time)):
            for name in ("submit_time", "runtime", "requested_time"):
                value = getattr(self, name)
                if not isfinite(value):
                    raise ValueError(f"job {self.job_id}: {name} must be finite, got {value}")
        if self.requested_processors <= 0:
            raise ValueError(
                f"job {self.job_id}: requested_processors must be positive, "
                f"got {self.requested_processors}"
            )
        if self.runtime <= 0:
            raise ValueError(f"job {self.job_id}: runtime must be positive, got {self.runtime}")
        if self.requested_time <= 0:
            raise ValueError(
                f"job {self.job_id}: requested_time must be positive, got {self.requested_time}"
            )
        if self.submit_time < 0:
            raise ValueError(
                f"job {self.job_id}: submit_time must be non-negative, got {self.submit_time}"
            )
        if self.used_memory < -1 or self.requested_memory < -1:
            raise ValueError(
                f"job {self.job_id}: memory fields must be >= -1 (-1 = missing), "
                f"got used={self.used_memory}, requested={self.requested_memory}"
            )
        if self.requested_gpus < 0:
            raise ValueError(
                f"job {self.job_id}: requested_gpus must be non-negative, "
                f"got {self.requested_gpus}"
            )

    @property
    def area(self) -> float:
        """Processor-seconds actually consumed (runtime x processors)."""
        return self.runtime * self.requested_processors

    @property
    def requested_area(self) -> float:
        """Processor-seconds reserved according to the user estimate."""
        return self.requested_time * self.requested_processors

    @property
    def overestimation_factor(self) -> float:
        """Ratio of the user wall-time estimate to the actual runtime (>= 0)."""
        return self.requested_time / self.runtime

    # One positional call each (validation runs): a sampled sequence shifts every
    # job, and ``dataclasses.replace`` costs twice the construction it ends in.
    def shifted(self, delta: float) -> "Job":
        """Return a copy whose submit time is shifted by ``delta`` seconds."""
        return Job(
            self.job_id, self.submit_time + delta, self.runtime, self.requested_processors,
            self.requested_time, self.user_id, self.group_id, self.executable, self.queue,
            self.partition, self.status, self.used_memory, self.requested_memory,
            self.requested_gpus,
        )

    def with_requested_time(self, requested_time: float) -> "Job":
        """Return a copy with a different wall-time estimate."""
        return Job(
            self.job_id, self.submit_time, self.runtime, self.requested_processors,
            requested_time, self.user_id, self.group_id, self.executable, self.queue,
            self.partition, self.status, self.used_memory, self.requested_memory,
            self.requested_gpus,
        )


@dataclass(frozen=True, slots=True)
class Trace:
    """An ordered collection of jobs plus the cluster size they ran on.

    Jobs are stored sorted by submit time (ties broken by job id) so trace
    slicing and sequence sampling are well defined.
    """

    name: str
    num_processors: int
    jobs: tuple[Job, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_processors <= 0:
            raise ValueError(f"trace {self.name}: num_processors must be positive")
        ordered = tuple(sorted(self.jobs, key=lambda j: (j.submit_time, j.job_id)))
        object.__setattr__(self, "jobs", ordered)
        for job in ordered:
            if job.requested_processors > self.num_processors:
                raise ValueError(
                    f"trace {self.name}: job {job.job_id} requests "
                    f"{job.requested_processors} processors but the cluster has "
                    f"{self.num_processors}"
                )

    @classmethod
    def from_jobs(cls, name: str, num_processors: int, jobs: Iterable[Job]) -> "Trace":
        return cls(name=name, num_processors=num_processors, jobs=tuple(jobs))

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(name=self.name, num_processors=self.num_processors, jobs=self.jobs[index])
        return self.jobs[index]

    def head(self, n: int) -> "Trace":
        """Return the first ``n`` jobs (the paper uses the first 10K jobs)."""
        return self[: max(0, n)]

    def subsequence(self, start: int, length: int) -> List[Job]:
        """Return ``length`` consecutive jobs starting at index ``start``."""
        if start < 0 or length < 0:
            raise ValueError("start and length must be non-negative")
        if start + length > len(self.jobs):
            raise IndexError(
                f"subsequence [{start}, {start + length}) out of range for trace of "
                f"length {len(self.jobs)}"
            )
        return list(self.jobs[start : start + length])

    @property
    def duration(self) -> float:
        """Span between the first and last submission, in seconds."""
        if not self.jobs:
            return 0.0
        return self.jobs[-1].submit_time - self.jobs[0].submit_time

    @property
    def has_user_estimates(self) -> bool:
        """Whether the trace carries user wall-time estimates distinct from runtimes.

        Synthetic Lublin traces only carry actual runtimes (the paper omits
        their EASY columns); this flag drives that behaviour downstream.
        """
        return any(abs(j.requested_time - j.runtime) > 1e-9 for j in self.jobs)

    def describe(self) -> str:
        return (
            f"Trace({self.name!r}, processors={self.num_processors}, jobs={len(self.jobs)}, "
            f"duration={self.duration:.0f}s)"
        )


def validate_sequence(jobs: Sequence[Job]) -> None:
    """Raise ``ValueError`` if ``jobs`` is not sorted by submit time."""
    for previous, current in zip(jobs, list(jobs)[1:]):
        if current.submit_time < previous.submit_time:
            raise ValueError(
                "job sequence is not sorted by submit time: "
                f"job {current.job_id} at {current.submit_time} follows "
                f"job {previous.job_id} at {previous.submit_time}"
            )
