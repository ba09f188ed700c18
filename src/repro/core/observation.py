"""Observation encoding for the RLBackfilling agent (paper §3.2).

The observation covers three things: the current waiting queue, the selected
(reserved) job, and the resource availability.  Each job becomes a fixed
feature vector; the queue is sorted by submission time and truncated/padded
to ``max_queue_size`` slots (the paper's ``MAX_OBSV_SIZE``, default 128).
Resource availability is appended to every job vector rather than being a
separate padded scalar, exactly as the paper describes, so the kernel network
sees machine state alongside every job.

One deviation is made explicit here: the reserved job occupies a normal slot
but is flagged and masked so the agent can never pick it, per the paper.  The
action space is the backfill candidates of the window and nothing else; the
agent always starts one of them.

A job's feature row is computed by one function,
:meth:`ObservationBuilder.feature_rows`, with two row selections:
:meth:`ObservationBuilder.encode_batch` encodes every slot of the window (the
rollouts and the PPO update need the whole observation),
:meth:`ObservationBuilder.build` only the candidate slots (a deployed decision
scores those and nothing else).  Every feature is an elementwise operation
over the rows, so a row's floats depend on its job and its decision alone,
and the two selections agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.allocator import job_request
from repro.scheduler.events import DecisionPoint, arrival_key
from repro.workloads.job import Job

__all__ = ["ObservationConfig", "ObservationBuilder", "JOB_FEATURES"]

#: Number of features per job slot in the homogeneous single-resource layout:
#: wait, requested time, width (fraction of the machine), can run, is
#: reserved, 0 (a retired flag, kept so the layout and trained weights stay),
#: free fraction, reservation horizon, extra processors (fraction), occupied.
#: Each additional resource tracked by :attr:`ObservationConfig.num_resources`
#: appends two features per slot.
JOB_FEATURES = 10

#: Resources beyond cpus, in the order their feature pairs are appended.
_EXTRA_RESOURCES = ("memory", "gpus")

#: Queue order, and the columns of :meth:`ObservationBuilder.static_rows`.
_static_columns = attrgetter("submit_time", "requested_time", "requested_processors", "job_id")

#: Normalization caps (seconds) for the logarithmic time features.
#: :meth:`ObservationBuilder.feature_rows` folds the wait and runtime features
#: into one ``log1p`` call, which requires the first two caps to stay equal.
_MAX_WAIT = 8.0 * 86400.0        # 8 days
_MAX_RUNTIME = 8.0 * 86400.0     # 8 days
_MAX_HORIZON = 8.0 * 86400.0
assert _MAX_WAIT == _MAX_RUNTIME


def _log_norm(value: float, cap: float) -> float:
    """Map ``value`` (seconds) into [0, 1] with a logarithmic scale."""
    value = min(max(value, 0.0), cap)
    return math.log1p(value) / math.log1p(cap)


def _log_norm_array(values: np.ndarray, cap: float) -> np.ndarray:
    """Vectorized :func:`_log_norm`.

    ``np.log1p`` may differ from ``math.log1p`` by one ulp on some inputs, so
    this matches the scalar form to floating-point rounding, not bit-for-bit.
    """
    return np.log1p(np.clip(values, 0.0, cap)) / math.log1p(cap)


def _decision_columns(decision: DecisionPoint) -> Tuple[float, float, float, float, float]:
    """What every row of one decision shares: ``(time, free fraction,
    reservation horizon feature, extra processors, machine processors or 0)``."""
    machine = decision.machine
    return (
        decision.time,
        decision.free_fraction,
        _log_norm(decision.reservation_time - decision.time, _MAX_HORIZON),
        float(decision.extra_processors),
        float(machine.num_processors) if machine is not None else 0.0,
    )


@dataclass(frozen=True, slots=True)
class ObservationConfig:
    """Shape of the observation and action space."""

    max_queue_size: int = 128         # MAX_OBSV_SIZE in the paper
    job_features: int = JOB_FEATURES
    #: Resources visible per job slot: 1 = cpus only (the paper's layout,
    #: byte-identical to the pre-heterogeneity encoder), 2 adds memory, 3 adds
    #: GPUs.  Each extra resource appends ``(free_fraction_r, request_r)`` to
    #: every slot; ``job_features`` grows by two per extra resource (and is
    #: auto-derived when left at its default).
    num_resources: int = 1

    def __post_init__(self) -> None:
        if self.max_queue_size <= 0:
            raise ValueError("max_queue_size must be positive")
        if not 1 <= self.num_resources <= 1 + len(_EXTRA_RESOURCES):
            raise ValueError(
                f"num_resources must be in [1, {1 + len(_EXTRA_RESOURCES)}], "
                f"got {self.num_resources}"
            )
        expected = JOB_FEATURES + 2 * (self.num_resources - 1)
        if self.job_features == JOB_FEATURES and expected != JOB_FEATURES:
            object.__setattr__(self, "job_features", expected)
        elif self.job_features != expected:
            raise ValueError(
                f"job_features is fixed at {expected} for num_resources="
                f"{self.num_resources} by the encoder implementation"
            )

    @property
    def observation_size(self) -> int:
        return self.max_queue_size * self.job_features

    @property
    def num_actions(self) -> int:
        """One action per window slot."""
        return self.max_queue_size


class ObservationBuilder:
    """Builds feature rows and action masks from decision points."""

    def __init__(self, config: ObservationConfig | None = None):
        self.config = config or ObservationConfig()

    # -- encoding ------------------------------------------------------------
    def feature_rows(self, items: Sequence[tuple]) -> np.ndarray:
        """The feature rows of the jobs of many decisions, stacked: ``(jobs, job_features)``.

        Each item is ``(decision, jobs, static_rows, can_run)``: ``jobs`` the
        jobs to encode, ``static_rows`` their :meth:`static_rows` and
        ``can_run`` their can-run feature (an array over ``jobs``, or one
        number for all of them).  Every feature is one numpy operation over
        all the rows, each elementwise, so a row's floats depend on its job
        and its decision only -- not on which other rows share the call.
        With one item, what its rows share is read as scalars and broadcast;
        with many, it is repeated per row.  Both give every row the same
        floats.
        """
        cfg = self.config
        if len(items) == 1:
            decision, _, static, can_run = items[0]
            reserved = decision.reserved_job.job_id
            now, free, horizon, extra, total = _decision_columns(decision)
            if total <= 0.0:
                total = np.maximum(static[:, 2], 1.0)
        else:
            counts = [len(item[1]) for item in items]
            static = np.concatenate([item[2] for item in items])
            can_run = np.concatenate([np.broadcast_to(item[3], (len(item[1]),)) for item in items])
            shared = np.array(
                [_decision_columns(d) + (d.reserved_job.job_id,) for d, *_ in items],
                dtype=np.float64,
            )
            now, free, horizon, extra, total, reserved = np.repeat(shared, counts, axis=0).T
            total = np.where(total > 0.0, total, np.maximum(static[:, 2], 1.0))

        rows = len(static)
        features = np.zeros((rows, cfg.job_features), dtype=np.float64)
        # _MAX_WAIT and _MAX_RUNTIME share one cap, so both logarithmic
        # time features go through a single log1p call.
        times = np.empty((2, rows))
        times[0] = now - static[:, 0]
        times[1] = static[:, 1]
        features[:, 0:2] = _log_norm_array(times, _MAX_WAIT).T
        features[:, 2] = np.minimum(static[:, 2] / total, 1.0)
        features[:, 3] = can_run
        features[:, 4] = static[:, 3] == reserved
        # column 5 stays zero.
        features[:, 6] = free
        features[:, 7] = horizon
        features[:, 8] = np.minimum(extra / total, 1.0)
        features[:, 9] = 1.0  # slot occupied
        if cfg.num_resources > 1:
            # Heterogeneous layouts are off the rollout hot path; a plain
            # per-row loop keeps the vectorized base features untouched.
            row = iter(features)
            for decision, jobs, *_ in items:
                for job in jobs:
                    self._extra_resource_features(next(row), job, decision)
        return features

    def _extra_resource_features(
        self, features: np.ndarray, job: Job, decision: DecisionPoint
    ) -> None:
        """Fill the per-resource feature pairs beyond cpus (hetero layouts).

        For each extra resource ``r``: the machine's aggregate free fraction
        of ``r`` and the job's request as a fraction of the machine total
        (both 0 when the machine has none of ``r`` or is absent).
        """
        machine = decision.machine
        request = job_request(job)
        free_vec = machine.free_resource_vector() if machine is not None else None
        total_vec = machine.total_resource_vector() if machine is not None else None
        for index, name in enumerate(_EXTRA_RESOURCES[: self.config.num_resources - 1]):
            base = JOB_FEATURES + 2 * index
            total = total_vec.component(name) if total_vec is not None else 0
            if total > 0:
                features[base] = free_vec.component(name) / total
                features[base + 1] = min(request.component(name) / total, 1.0)

    # -- the window ----------------------------------------------------------
    def window(self, decision: DecisionPoint) -> Tuple[List[Job], List[int], List[Optional[Job]]]:
        """``(queue, slots, slot_jobs)``: the sorted, truncated slot queue, the
        slots of its candidates (ascending) and the slot -> job map."""
        size = self.config.max_queue_size
        queue = decision.queue
        if not decision.queue_sorted:
            queue = sorted(queue, key=arrival_key)
        if len(queue) > size:
            queue = queue[:size]
        slot_jobs: List[Optional[Job]] = [None] * size
        slot_jobs[: len(queue)] = queue
        # Which window slots can run is the decision point's rule (the
        # reserved job is visible but never a valid action, §3.2); asking it
        # about the window only is what keeps a decision independent of how
        # long the queue behind the window is.
        return queue, decision.candidate_slots(queue), slot_jobs

    def prepare(
        self, decision: DecisionPoint
    ) -> Tuple[List[Job], np.ndarray, List[Optional[Job]]]:
        """Cheap, feature-free half of the encoding.

        Returns ``(queue, mask, slot_jobs)`` where ``queue`` is the sorted,
        truncated slot queue that :meth:`encode_batch` will turn into
        features.  The environment uses this to decide whether a decision
        point is actionable (``mask``) without paying for feature encoding,
        and the vectorized engine uses it to defer encoding until the
        observations of every lane can be batched into one numpy pass.
        """
        queue, slots, slot_jobs = self.window(decision)
        mask = np.zeros(self.config.max_queue_size, dtype=np.float64)
        if slots:
            mask[slots] = 1.0
        return queue, mask, slot_jobs

    @staticmethod
    def static_rows(jobs: Sequence[Job]) -> np.ndarray:
        """What never changes while a job waits, one row per job:
        ``(submit_time, requested_time, requested_processors, job_id)``."""
        flat = chain.from_iterable(map(_static_columns, jobs))
        return np.fromiter(flat, dtype=np.float64, count=4 * len(jobs)).reshape(len(jobs), 4)

    def encode_batch(
        self,
        items: Sequence[tuple],
    ) -> np.ndarray:
        """Encode many prepared decisions into one ``(batch, observation_size)`` matrix.

        Each item is ``(decision, queue, static_rows, can_run)``: ``queue`` as
        returned by :meth:`prepare`, ``static_rows`` its :meth:`static_rows`
        and ``can_run`` the action mask over the queue slots (the reserved
        job is never a candidate, so that is exactly the can-run feature).
        :meth:`~repro.core.environment.BackfillEnvironment.pending_encode`
        slices the rows out of the ones it gathered for the whole episode.
        The rows of every queue come from one :meth:`feature_rows` call and
        are scattered into their padded windows -- the vectorized engine calls
        this once per lockstep iteration instead of once per lane.
        """
        cfg = self.config
        batch = len(items)
        observation = np.zeros((batch, cfg.max_queue_size, cfg.job_features), dtype=np.float64)
        counts = [len(item[1]) for item in items]
        if sum(counts):
            features = self.feature_rows(items)
            offset = 0
            for row, count in enumerate(counts):
                observation[row, :count] = features[offset : offset + count]
                offset += count
        return observation.reshape(batch, -1)

    def build(
        self, decision: DecisionPoint, window: Optional[tuple] = None
    ) -> Tuple[List[int], Optional[np.ndarray], List[Optional[Job]]]:
        """What a deployed decision reads: ``(slots, rows, slot_jobs)``.

        ``slots`` are the window slots that hold a candidate (ascending),
        ``rows`` their feature rows -- :meth:`encode_batch`'s rows at those
        slots, bit for bit, and no other row is encoded -- and
        ``slot_jobs[i]`` the job in slot ``i`` (``None`` for padding), which
        is how an action index is mapped back to the job to backfill.  With
        no candidate inside the queue window there is nothing to choose:
        ``slots`` is empty, ``rows`` is ``None`` and the caller passes, as the
        environment does on :meth:`prepare` alone.  ``window`` is
        :meth:`window`'s answer for ``decision``, when the caller has cut it.
        """
        queue, slots, slot_jobs = self.window(decision) if window is None else window
        if not slots:
            return slots, None, slot_jobs
        jobs = [queue[slot] for slot in slots]
        return slots, self.feature_rows([(decision, jobs, self.static_rows(jobs), 1.0)]), slot_jobs

    def action_to_job(self, action: int, slot_jobs: List[Optional[Job]]) -> Optional[Job]:
        """Translate an action index into the job in that slot (``None`` for padding)."""
        if not 0 <= action < self.config.num_actions:
            raise ValueError(f"action {action} outside [0, {self.config.num_actions})")
        return slot_jobs[action]
