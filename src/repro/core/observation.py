"""Observation encoding for the RLBackfilling agent (paper §3.2).

The observation covers three things: the current waiting queue, the selected
(reserved) job, and the resource availability.  Each job becomes a fixed
feature vector; the queue is sorted by submission time and truncated/padded
to ``max_queue_size`` slots (the paper's ``MAX_OBSV_SIZE``, default 128).
Resource availability is appended to every job vector rather than being a
separate padded scalar, exactly as the paper describes, so the kernel network
sees machine state alongside every job.

Two deviations are made explicit here (see also DESIGN.md):

* The reserved job occupies a normal slot but is flagged and masked so the
  agent can never pick it, per the paper.
* One extra slot encodes the **skip** action ("do not backfill anything at
  this opportunity").  The paper leaves implicit what the agent does when
  every candidate would delay the reservation; an explicit no-op keeps the
  action space well defined and lets the trained policy fall back to
  EASY-like passivity.  The skip slot reuses the reserved job's features with
  its own flag so the same kernel network scores it.
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

#: Number of features per job slot (see :meth:`ObservationBuilder._job_features`)
#: in the homogeneous single-resource layout; each additional resource tracked
#: by :attr:`ObservationConfig.num_resources` appends two features per slot.
JOB_FEATURES = 10

#: Resources beyond cpus, in the order their feature pairs are appended.
_EXTRA_RESOURCES = ("memory", "gpus")

#: Queue order, and the columns of :meth:`ObservationBuilder.static_rows`.
_static_columns = attrgetter("submit_time", "requested_time", "requested_processors", "job_id")

#: Normalization caps (seconds) for the logarithmic time features.  The
#: vectorized encoder in :meth:`ObservationBuilder.build` folds the wait and
#: runtime features into one ``log1p`` call, which requires the first two
#: caps to stay equal.
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


@dataclass(frozen=True, slots=True)
class ObservationConfig:
    """Shape of the observation and action space."""

    max_queue_size: int = 128         # MAX_OBSV_SIZE in the paper
    job_features: int = JOB_FEATURES
    #: Add an explicit "do not backfill anything" action.  The paper's action
    #: space contains only the backfill candidates (the agent always starts
    #: one of them), which is the default here; the skip action is kept as an
    #: ablation switch.
    include_skip_action: bool = False
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
    def num_slots(self) -> int:
        """Job slots plus the optional skip slot."""
        return self.max_queue_size + (1 if self.include_skip_action else 0)

    @property
    def skip_slot(self) -> int | None:
        """Index of the skip (no-backfill) action, or ``None`` when disabled."""
        return self.max_queue_size if self.include_skip_action else None

    @property
    def observation_size(self) -> int:
        return self.num_slots * self.job_features

    @property
    def num_actions(self) -> int:
        return self.num_slots


class ObservationBuilder:
    """Builds flat observation vectors and action masks from decision points."""

    def __init__(self, config: ObservationConfig | None = None):
        self.config = config or ObservationConfig()

    # -- encoding ------------------------------------------------------------
    def _job_features(
        self,
        job: Job,
        decision: DecisionPoint,
        *,
        is_reserved: bool,
        is_skip: bool,
        can_run: bool,
    ) -> np.ndarray:
        machine = decision.machine
        total = machine.num_processors if machine is not None else max(job.requested_processors, 1)
        features = np.zeros(self.config.job_features, dtype=np.float64)
        features[0] = _log_norm(decision.time - job.submit_time, _MAX_WAIT)
        features[1] = _log_norm(job.requested_time, _MAX_RUNTIME)
        features[2] = min(job.requested_processors / total, 1.0)
        features[3] = 1.0 if can_run else 0.0
        features[4] = 1.0 if is_reserved else 0.0
        features[5] = 1.0 if is_skip else 0.0
        features[6] = decision.free_fraction
        features[7] = _log_norm(decision.reservation_time - decision.time, _MAX_HORIZON)
        features[8] = min(decision.extra_processors / total, 1.0) if total else 0.0
        features[9] = 1.0  # slot occupied
        if self.config.num_resources > 1:
            self._extra_resource_features(features, job, decision)
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
        cfg = self.config
        queue = decision.queue
        if not decision.queue_sorted:
            queue = sorted(queue, key=arrival_key)
        if len(queue) > cfg.max_queue_size:
            queue = queue[: cfg.max_queue_size]

        mask = np.zeros(cfg.num_slots, dtype=np.float64)
        slot_jobs: List[Optional[Job]] = [None] * cfg.num_slots
        slot_jobs[: len(queue)] = queue
        # Which window slots can run is the decision point's rule (the
        # reserved job is visible but never a valid action, §3.2); asking it
        # about the window only is what keeps a decision independent of how
        # long the queue behind the window is.
        valid = decision.candidate_slots(queue)
        if valid:
            mask[valid] = 1.0
        if cfg.skip_slot is not None:
            mask[cfg.skip_slot] = 1.0
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
        :meth:`build` makes one such item per decision;
        :meth:`~repro.core.environment.BackfillEnvironment.pending_encode`
        slices the rows out of the ones it gathered for the whole episode.
        All queues are concatenated so every feature is computed with a
        single numpy operation across the whole batch -- the vectorized
        engine calls this once per lockstep iteration instead of once per
        lane.  A batch of one performs exactly the same operations per row,
        which keeps the serial path, the ``num_envs=1`` engine and any larger
        batch bit-identical.
        """
        cfg = self.config
        batch = len(items)
        observation = np.zeros((batch, cfg.num_slots, cfg.job_features), dtype=np.float64)
        counts = [len(item[1]) for item in items]
        total_jobs = sum(counts)
        if total_jobs:
            # One pass over all queues gathers every per-job quantity; the
            # feature math below is pure numpy over the concatenation.
            # Columns: submit, requested_time, processors, is_reserved, can_run.
            blocks: List[np.ndarray] = []
            for decision, queue, static, can_run in items:
                block = np.empty((len(queue), 5), dtype=np.float64)
                block[:, 0:3] = static[:, 0:3]
                block[:, 3] = static[:, 3] == decision.reserved_job.job_id
                block[:, 4] = can_run
                blocks.append(block)
            raw = blocks[0] if batch == 1 else np.concatenate(blocks, axis=0)
            procs = raw[:, 2]
            # Per-decision scalars, repeated once per job of that decision.
            scalars = np.array(
                [
                    (
                        d.time,
                        d.free_fraction,
                        _log_norm(d.reservation_time - d.time, _MAX_HORIZON),
                        float(d.extra_processors),
                        float(d.machine.num_processors) if d.machine is not None else 0.0,
                    )
                    for d, *_ in items
                ],
                dtype=np.float64,
            )
            rep = np.repeat(scalars, counts, axis=0)
            total = np.where(rep[:, 4] > 0.0, rep[:, 4], np.maximum(procs, 1.0))

            features = np.zeros((total_jobs, cfg.job_features), dtype=np.float64)
            # _MAX_WAIT and _MAX_RUNTIME share one cap, so both logarithmic
            # time features go through a single log1p call.
            times = np.empty((2, total_jobs))
            times[0] = rep[:, 0] - raw[:, 0]
            times[1] = raw[:, 1]
            features[:, 0:2] = _log_norm_array(times, _MAX_WAIT).T
            features[:, 2] = np.minimum(procs / total, 1.0)
            features[:, 3] = raw[:, 4]  # can_run
            features[:, 4] = raw[:, 3]  # is_reserved
            # column 5 (is_skip) stays zero for queue slots.
            features[:, 6] = rep[:, 1]
            features[:, 7] = rep[:, 2]
            features[:, 8] = np.minimum(rep[:, 3] / total, 1.0)
            features[:, 9] = 1.0  # slot occupied
            if cfg.num_resources > 1:
                # Heterogeneous layouts are off the rollout hot path; a plain
                # per-item loop keeps the vectorized base features untouched.
                offset = 0
                for item, count in zip(items, counts):
                    decision, queue = item[0], item[1]
                    for slot, job in enumerate(queue):
                        self._extra_resource_features(
                            features[offset + slot], job, decision
                        )
                    offset += count

            offset = 0
            for row, count in enumerate(counts):
                observation[row, :count] = features[offset : offset + count]
                offset += count

        if cfg.skip_slot is not None:
            # Skip slot: always valid, encoded from the reserved job's features.
            for row, item in enumerate(items):
                decision = item[0]
                observation[row, cfg.skip_slot] = self._job_features(
                    decision.reserved_job,
                    decision,
                    is_reserved=True,
                    is_skip=True,
                    can_run=False,
                )
        return observation.reshape(batch, -1)

    def build(
        self, decision: DecisionPoint
    ) -> Tuple[Optional[np.ndarray], np.ndarray, List[Optional[Job]]]:
        """Encode ``decision`` into ``(observation, action_mask, slot_jobs)``.

        ``slot_jobs[i]`` is the job occupying slot ``i`` (``None`` for padding
        and for the skip slot), which is how an action index is mapped back to
        the job to backfill.  With no candidate inside the queue window there
        is nothing to choose: ``observation`` is ``None``, nothing is encoded
        and the caller passes, as the environment does on :meth:`prepare` alone.

        Composed of :meth:`prepare` + :meth:`encode_batch` with a batch of
        one; :meth:`_job_features` remains the scalar reference
        implementation and agrees with the vectorized encoder to
        floating-point rounding (``np.log1p`` vs ``math.log1p`` can differ by
        one ulp).
        """
        queue, mask, slot_jobs = self.prepare(decision)
        can_run = mask[: len(queue)]
        if not can_run.any():
            return None, mask, slot_jobs
        item = (decision, queue, self.static_rows(queue), can_run)
        return self.encode_batch([item])[0], mask, slot_jobs

    def action_to_job(self, action: int, slot_jobs: List[Optional[Job]]) -> Optional[Job]:
        """Translate an action index into the job to backfill (``None`` = skip)."""
        if not 0 <= action < self.config.num_actions:
            raise ValueError(f"action {action} outside [0, {self.config.num_actions})")
        if self.config.skip_slot is not None and action == self.config.skip_slot:
            return None
        return slot_jobs[action]
