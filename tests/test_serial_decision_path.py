"""The serial decision path against the parent's do-everything code (ISSUE 17).

A served decision now costs what it uses: ``ObservationBuilder.build``
declines before it encodes, ``prepare`` marks the window with one merge walk
instead of a set over every candidate, ``encode_batch`` has one input form,
the policy calls ``ActorCritic.act`` (no value forward, no logit grid for the
argmax), an accepted backfill costs the simulator one pass over the
candidates, and the replay log is read as a stream.  The parent commit's code
lives on here, verbatim, as the ``Parent*`` classes and functions -- and only
here: every comparison is ``==`` on floats, ``is`` on jobs and ``==`` on
exception text.

ISSUE 19 moved the candidate rule into :class:`DecisionPoint` (derived on
first read from the snapshot and the free count captured at construction),
replaced the simulator's full-queue scan by a census of queued widths, and
made a session count its decisions instead of keeping them.  The same oracles
serve: ``ParentSimulator`` still yields eager candidate lists and
``ParentBuilder`` still marks its window from them.

A decision now encodes the feature rows of its candidate slots only and
scores them on arrays.  That path is checked against the rollout's own,
``encode_batch`` + ``step``, and the rollout's array forward against the
``Tensor`` graph (``policy_logits`` / ``value`` under ``no_grad``).
"""

from __future__ import annotations

import contextlib
import copy
import gc
import json
import tracemalloc
from collections import Counter
from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import DowntimeWindow, Machine
from repro.cluster.resources import ClusterTopology, NodeGroup
from repro.core.agent import RLBackfillAgent
from repro.core.observation import (
    _MAX_HORIZON,
    _MAX_WAIT,
    ObservationBuilder,
    ObservationConfig,
    _log_norm,
    _log_norm_array,
)
from repro.core.rlbackfill import RLBackfillPolicy
from repro.prediction.predictors import UserEstimate
from repro.faults.plan import NodeFailure
from repro.rl import ppo
from repro.rl.autograd import Tensor, no_grad
from repro.rl.ppo import MASK_PENALTY
from repro.scheduler.backfill.base import BackfillStrategy
from repro.scheduler.backfill.conservative import ConservativeBackfill
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.backfill.none import NoBackfill
from repro.scheduler.events import DecisionPoint
from repro.scheduler.simulator import ServedDecision, Simulator, capture_decisions
from repro.service.replay import (
    ReplayLogWriter,
    _JsonlRecords,
    job_from_wire,
    job_to_wire,
    read_replay_log,
    verify_replay_log,
)
from repro.workloads.job import Job

# -- the oracle: parent commit, verbatim ---------------------------------------


class ParentBuilder(ObservationBuilder):
    """The parent's ``prepare`` / ``encode_batch`` (its tuple arm) / ``build``."""

    def prepare(self, decision):
        cfg = self.config
        candidate_ids = {job.job_id for job in decision.candidates}
        if decision.queue_sorted:
            queue = decision.queue
        else:
            queue = sorted(decision.queue, key=lambda j: (j.submit_time, j.job_id))
        if len(queue) > cfg.max_queue_size:
            queue = queue[: cfg.max_queue_size]

        mask = np.zeros(cfg.max_queue_size, dtype=np.float64)
        slot_jobs: List[Optional[Job]] = [None] * cfg.max_queue_size
        slot_jobs[: len(queue)] = queue
        reserved_id = decision.reserved_job.job_id
        for slot, job in enumerate(queue):
            # The reserved job is visible but never a valid action (§3.2).
            if job.job_id in candidate_ids and job.job_id != reserved_id:
                mask[slot] = 1.0
        return queue, mask, slot_jobs

    def encode_batch(self, items):
        cfg = self.config
        batch = len(items)
        observation = np.zeros((batch, cfg.max_queue_size, cfg.job_features), dtype=np.float64)
        counts = [len(item[1]) for item in items]
        total_jobs = sum(counts)
        if total_jobs:
            blocks: List[np.ndarray] = []
            for item in items:
                decision, queue = item[0], item[1]
                reserved_id = decision.reserved_job.job_id
                cand_ids = {job.job_id for job in decision.candidates}
                block = np.array(
                    [
                        (
                            j.submit_time,
                            j.requested_time,
                            j.requested_processors,
                            j.job_id == reserved_id,
                            j.job_id in cand_ids,
                        )
                        for j in queue
                    ],
                    dtype=np.float64,
                ).reshape(len(queue), 5)
                blocks.append(block)
            raw = blocks[0] if batch == 1 else np.concatenate(blocks, axis=0)
            procs = raw[:, 2]
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
            times = np.empty((2, total_jobs))
            times[0] = rep[:, 0] - raw[:, 0]
            times[1] = raw[:, 1]
            features[:, 0:2] = _log_norm_array(times, _MAX_WAIT).T
            features[:, 2] = np.minimum(procs / total, 1.0)
            features[:, 3] = raw[:, 4]  # can_run
            features[:, 4] = raw[:, 3]  # is_reserved
            features[:, 6] = rep[:, 1]
            features[:, 7] = rep[:, 2]
            features[:, 8] = np.minimum(rep[:, 3] / total, 1.0)
            features[:, 9] = 1.0  # slot occupied
            if cfg.num_resources > 1:
                offset = 0
                for item, count in zip(items, counts):
                    decision, queue = item[0], item[1]
                    for slot, job in enumerate(queue):
                        self._extra_resource_features(features[offset + slot], job, decision)
                    offset += count

            offset = 0
            for row, count in enumerate(counts):
                observation[row, :count] = features[offset : offset + count]
                offset += count
        return observation.reshape(batch, -1)

    def build(self, decision):
        queue, mask, slot_jobs = self.prepare(decision)
        observation = self.encode_batch([(decision, queue)])[0]
        return observation, mask, slot_jobs


class ParentPolicy(RLBackfillPolicy):
    """The parent's ``select_backfill``: build everything, then look at the mask."""

    def __init__(self, agent, **kwargs):
        super().__init__(agent, **kwargs)
        self.builder = ParentBuilder(agent.observation_config)

    def select_backfill(self, decision, estimator):
        observation, mask, slot_jobs = self.builder.build(decision)
        if not mask.any():
            return None
        action, _, _ = self.agent.step(
            observation, mask, rng=self.rng, deterministic=self.deterministic
        )
        return self.builder.action_to_job(action, slot_jobs)


class ParentSimulator(Simulator):
    """The parent's ``_backfill_opportunity``: an id set, a list without the
    chosen job and a refit filter per accepted choice."""

    def _backfill_opportunity(self, state, rjob):
        rjob_id = rjob.job_id
        hetero = self.topology is not None
        previous: Optional[List[Job]] = None
        while True:
            if hetero:
                pool = state.queue if previous is None else previous
                candidates = [
                    job
                    for job in pool
                    if job.job_id != rjob_id and state.machine.can_start(job)
                ]
            else:
                free = state.machine.free_processors
                if previous is None:
                    candidates = [
                        job
                        for job in state.queue
                        if job.requested_processors <= free and job.job_id != rjob_id
                    ]
                else:
                    candidates = [
                        job for job in previous if job.requested_processors <= free
                    ]
            if not candidates:
                return
            spares = None
            if hetero:
                reservation_time, extra, spares = state.machine.hetero_reservation(
                    rjob, state.now, self.estimator
                )
            else:
                reservation_time, extra = state.machine.earliest_start_estimate(
                    rjob, state.now, self.estimator
                )
            decision = DecisionPoint(
                time=state.now,
                reserved_job=rjob,
                reservation_time=reservation_time,
                extra_processors=extra,
                candidates=candidates,
                queue=list(state.queue),
                machine=state.machine,
                queue_sorted=True,
                spare_vectors=spares,
            )
            state.decision_count += 1
            choice = yield decision
            if choice is None:
                return
            candidate_ids = {job.job_id for job in candidates}
            if choice.job_id not in candidate_ids:
                raise ValueError(
                    f"backfill strategy returned job {choice.job_id} which is not a candidate "
                    f"(candidates: {sorted(candidate_ids)})"
                )
            self._start(state, choice, backfilled=True)
            # The parent's ``_remove(state.queue, id)``; the queue now changes
            # through the state only (it keeps a census beside it).
            state.dequeue(state.queue_index(choice.job_id))
            previous = [job for job in candidates if job.job_id != choice.job_id]


def parent_parse_jsonl(text: str, allow_torn_tail: bool, label: str):
    """The parent's whole-text ``_parse_jsonl``: ``(records, torn character offset)``."""
    records = []
    pending_error: Optional[Tuple[int, int, str]] = None  # (offset, lineno, detail)
    offset = 0
    for lineno, line in enumerate(text.splitlines(keepends=True), start=1):
        start = offset
        offset += len(line)
        if not line.strip():
            continue
        if pending_error is not None:
            raise ValueError(
                f"{label}: corrupt record on line {pending_error[1]} "
                f"(not the final line): {pending_error[2]}"
            )
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            pending_error = (start, lineno, str(error))
    if pending_error is None:
        return records, None
    if not allow_torn_tail:
        raise ValueError(
            f"{label}: torn final record on line {pending_error[1]} "
            f"(crash mid-write?): {pending_error[2]}; "
            "pass allow_torn_tail=True to drop it"
        )
    return records, pending_error[0]


# -- decision points -------------------------------------------------------------

_TOPOLOGY = ClusterTopology((NodeGroup(name="cpu", cpus=24), NodeGroup(name="gpu", cpus=8, gpus=8)))


def _job(job_id: int, submit_time: float, processors: int = 2, gpus: int = 0) -> Job:
    return Job(
        job_id=job_id, submit_time=submit_time, runtime=50.0 + job_id,
        requested_processors=processors, requested_time=80.0 + 3 * job_id, requested_gpus=gpus,
    )


@st.composite
def decision_points(draw):
    """Hand-built decision points around a window of 1..6 slots.

    Submit times come from a handful of values so that ties, broken by job
    id, are common.  With ``queue_sorted`` the producer's promise holds: the
    queue is in arrival order and the candidates are in that order too --
    including the ones that are *not* in the queue, which a real producer
    never emits and the parent ignored.
    """
    window = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=14, unique=True))
    times = st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.0])
    jobs = [_job(i, draw(times), draw(st.integers(1, 6)), draw(st.integers(0, 2))) for i in ids]
    in_queue = draw(st.lists(st.booleans(), min_size=len(jobs), max_size=len(jobs)))
    queue = [job for job, keep in zip(jobs, in_queue) if keep]
    absent = [job for job, keep in zip(jobs, in_queue) if not keep]
    reserved = draw(st.sampled_from(jobs))  # in the queue, or (hand-built) not
    picked = draw(st.lists(st.booleans(), min_size=len(jobs), max_size=len(jobs)))
    candidates = [job for job, pick in zip(queue + absent, picked) if pick and job is not reserved]
    if draw(st.booleans()):
        candidates.append(reserved)  # never by a real producer; must stay masked
    queue_sorted = draw(st.booleans())
    if queue_sorted:
        queue.sort(key=lambda j: (j.submit_time, j.job_id))
        candidates.sort(key=lambda j: (j.submit_time, j.job_id))
    else:
        queue = draw(st.permutations(queue))
        candidates = draw(st.permutations(candidates))
    num_resources = draw(st.sampled_from([1, 3]))
    machine = Machine(32, topology=_TOPOLOGY if num_resources == 3 else None)
    machine.start(_job(99, 0.0, processors=6, gpus=3 if num_resources == 3 else 0), now=0.0)
    config = ObservationConfig(max_queue_size=window, num_resources=num_resources)
    decision = DecisionPoint(
        time=8.0, reserved_job=reserved, reservation_time=draw(st.sampled_from([8.0, 90.0, 4e5])),
        extra_processors=draw(st.integers(0, 8)), candidates=list(candidates),
        queue=list(queue), machine=machine, queue_sorted=queue_sorted,
    )
    return config, decision


@settings(max_examples=400, deadline=None)
@given(decision_points())
def test_prepare_and_build_equal_the_parents(case):
    config, decision = case
    queue, mask, slot_jobs = ObservationBuilder(config).prepare(decision)
    parent_queue, parent_mask, parent_slot_jobs = ParentBuilder(config).prepare(decision)
    assert queue == parent_queue and all(a is b for a, b in zip(queue, parent_queue))
    assert mask.tolist() == parent_mask.tolist()
    assert len(slot_jobs) == len(parent_slot_jobs)
    assert all(a is b for a, b in zip(slot_jobs, parent_slot_jobs))

    expected = ParentBuilder(config).build(decision)[0].reshape(config.max_queue_size, -1)
    # A reserved job listed as a candidate (no producer does that) read
    # can_run=1 in the parent's tuple arm and 0 in its static-row arm, the one
    # the rollouts always used; the one arm left is the latter.
    for slot, job in enumerate(parent_queue):
        if job.job_id == decision.reserved_job.job_id:
            expected[slot, 3] = 0.0
    builder = ObservationBuilder(config)
    item = (decision, queue, builder.static_rows(queue), mask[: len(queue)])
    observation = builder.encode_batch([item])
    assert observation.tobytes() == expected.reshape(-1).tobytes()

    slots, rows, built_slots = builder.build(decision)
    assert slots == np.flatnonzero(parent_mask).tolist()
    assert len(built_slots) == len(parent_slot_jobs)
    assert all(a is b for a, b in zip(built_slots, parent_slot_jobs))
    assert (rows is None) == (not parent_mask.any())  # the parent's select_backfill rule
    if rows is not None:
        # The rows of the candidate slots, in slot order, and no other row.
        assert rows.tobytes() == expected[slots].tobytes()


def test_candidates_beyond_the_window_decline_without_encoding():
    config = ObservationConfig(max_queue_size=2)
    queue = [_job(i, float(i), processors=1 if i > 2 else 8) for i in range(1, 7)]
    decision = DecisionPoint(
        time=9.0, reserved_job=queue[0], reservation_time=50.0, extra_processors=0,
        candidates=queue[2:], queue=queue, machine=Machine(32), queue_sorted=True,
    )
    builder = ObservationBuilder(config)
    builder.feature_rows = builder.encode_batch = None  # calling either would raise
    slots, rows, slot_jobs = builder.build(decision)
    assert slots == [] and rows is None and slot_jobs == queue[:2]


def test_static_rows_are_the_episode_gather():
    jobs = [_job(3, 1.5, 4), _job(1, 0.25, 1), _job(2**40, 1e9 / 3, 64)]
    rows = ObservationBuilder.static_rows(jobs)
    expected = np.array(
        [(j.submit_time, j.requested_time, j.requested_processors, j.job_id) for j in jobs],
        dtype=np.float64,
    )
    assert rows.dtype == np.float64 and rows.tobytes() == expected.tobytes()
    assert ObservationBuilder.static_rows([]).shape == (0, 4)


# -- act --------------------------------------------------------------------------

_ACT_CONFIG = ObservationConfig(max_queue_size=12)


def _agent(row_block, config=_ACT_CONFIG, seed=3):
    agent = RLBackfillAgent(config, seed=seed)
    return agent if row_block is None else RLBackfillPolicy(agent, row_block=row_block).agent


@contextlib.contextmanager
def _tensors_built():
    """``[n]``: how many :class:`Tensor` objects the block constructed."""
    built = [0]
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    Tensor.__init__ = counting
    try:
        yield built
    finally:
        Tensor.__init__ = init


@contextlib.contextmanager
def _sampler_inputs():
    """The log-probability grids the block handed to the sampler, in call order."""
    grids = []
    sample = ppo._sample_actions

    def recording(log_probs, rngs):
        grids.append(log_probs.copy())
        return sample(log_probs, rngs)

    ppo._sample_actions = recording
    try:
        yield grids
    finally:
        ppo._sample_actions = sample


def _check_act_against_step(agent, observation, mask, rows, slots, rng) -> Tuple[int, int]:
    """``act`` on the candidate ``rows`` / ``slots`` takes the action ``step``
    takes on the whole observation, deterministic and sampled; it builds no
    ``Tensor``, hands the sampler ``step``'s log-probability grid bit for bit
    and draws one uniform.  Returns ``(greedy, sampled)`` and advances ``rng``
    by that uniform."""
    mine, theirs = copy.deepcopy(rng), copy.deepcopy(rng)
    with _tensors_built() as built, _sampler_inputs() as grids:
        greedy = agent.act(rows, slots, mask.size, deterministic=True)
        sampled = agent.act(rows, slots, mask.size, rng=mine)
    assert built == [0]
    assert greedy == agent.step(observation, mask, deterministic=True)[0]
    with _sampler_inputs() as expected:
        assert sampled == agent.step(observation, mask, rng=theirs)[0]
    assert len(grids) == len(expected) == 1 and grids[0].tobytes() == expected[0].tobytes()
    rng.random()  # exactly one uniform per call
    assert mine.bit_generator.state == theirs.bit_generator.state == rng.bit_generator.state
    return greedy, sampled


def _check_step_batch_against_the_graph(agent, observations, masks, seed: int) -> None:
    """``step_batch``'s actions, values and log-probs, sampled and greedy, are
    the ``Tensor`` forward's (``policy_logits`` / ``value`` under ``no_grad``)
    bit for bit; ``step_batch`` itself builds no ``Tensor``."""
    def rngs():
        return [np.random.default_rng(seed + row) for row in range(len(masks))]

    with _tensors_built() as built:
        sampled = agent.step_batch(observations, masks, rngs=rngs())
        greedy = agent.step_batch(observations, masks, deterministic=True)
    assert built == [0]
    with no_grad():
        logits = agent.policy_logits(Tensor(observations))
        log_probs = (logits + Tensor((1.0 - masks) * -MASK_PENALTY)).log_softmax(axis=-1).numpy()
        values = agent.value(Tensor(observations)).numpy()
    index = np.arange(len(masks))
    for (actions, got_values, got_log_probs), expected in (
        (sampled, ppo._sample_actions(log_probs, rngs())),
        (greedy, np.argmax(log_probs, axis=1)),
    ):
        assert actions.tolist() == expected.tolist()
        assert got_values.tobytes() == values.tobytes()
        assert got_log_probs.tobytes() == log_probs[index, expected].tobytes()


def _act_on(agent, observation, mask, **kwargs):
    """``act`` on the valid rows of a whole observation, as ``build`` hands them over."""
    slots = np.flatnonzero(mask).tolist()
    return agent.act(observation.reshape(mask.size, -1)[slots], slots, mask.size, **kwargs)


@st.composite
def act_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slots = _ACT_CONFIG.max_queue_size
    observation = rng.standard_normal(_ACT_CONFIG.observation_size) * draw(
        st.sampled_from([0.1, 1.0, 30.0])
    )
    valid = draw(st.integers(1, slots))
    mask = np.zeros(slots)
    mask[rng.choice(slots, size=valid, replace=False)] = 1.0
    return observation, mask, draw(st.sampled_from([None, 1])), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(act_cases())
def test_act_returns_the_action_of_step(case):
    observation, mask, row_block, seed = case
    agent = _agent(row_block)
    slots = np.flatnonzero(mask).tolist()
    rows = observation.reshape(mask.size, -1)[slots]
    rng = np.random.default_rng(seed)
    for _ in range(3):
        _check_act_against_step(agent, observation, mask, rows, slots, rng)
    _check_step_batch_against_the_graph(agent, observation[None], mask[None], seed)


@pytest.mark.parametrize("row_block", [None, 1])
def test_act_breaks_an_exact_score_tie_towards_the_lower_slot(row_block):
    agent = _agent(row_block)
    observation = np.random.default_rng(0).standard_normal(_ACT_CONFIG.observation_size)
    rows = observation.reshape(_ACT_CONFIG.max_queue_size, -1)  # a view
    rows[[7, 2, 9]] = rows[4]  # one feature row, hence one score, in three slots
    mask = np.zeros(_ACT_CONFIG.max_queue_size)
    mask[[2, 7, 9]] = 1.0
    assert _act_on(agent, observation, mask, deterministic=True) == 2
    assert agent.step(observation, mask, deterministic=True)[0] == 2


def test_act_rejects_a_mask_without_a_valid_action():
    agent = _agent(1)
    nothing = np.zeros((0, _ACT_CONFIG.job_features))
    with pytest.raises(ValueError, match="at least one valid slot"):
        agent.act(nothing, [], _ACT_CONFIG.max_queue_size, deterministic=True)
    with pytest.raises(ValueError, match="at least one valid slot"):
        agent.act(nothing, [], _ACT_CONFIG.max_queue_size, rng=np.random.default_rng(0))


# -- whole simulations -------------------------------------------------------------

_MACHINES = {
    "scalar": None,
    "one-group": ClusterTopology((NodeGroup(name="all", cpus=16, gpus=4),)),
    "multi-group": ClusterTopology(
        (NodeGroup(name="cpu", cpus=10), NodeGroup(name="gpu", cpus=6, gpus=4, partition=1))
    ),
}


@st.composite
def simulations(draw):
    """A contended 16-processor machine; a window mostly far shorter than its
    queue (candidates behind it), sometimes longer than any queue it sees."""
    kind = draw(st.sampled_from(sorted(_MACHINES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jobs, now = [], 0.0
    for job_id in range(1, draw(st.integers(20, 60)) + 1):
        now += float(rng.exponential(4.0)) * (rng.random() < 0.7)  # bursts share an instant
        wide = rng.random() < 0.25
        runtime = float(rng.exponential(60.0 if wide else 15.0)) + 1.0
        jobs.append(
            Job(
                job_id=job_id, submit_time=now, runtime=runtime,
                requested_processors=int(rng.integers(5, 7) if wide else rng.integers(1, 4)),
                requested_time=runtime * float(rng.uniform(1.0, 3.0)),
                requested_gpus=int(rng.integers(0, 3)) if kind != "scalar" and not wide else 0,
            )
        )
    config = ObservationConfig(
        max_queue_size=draw(st.one_of(st.integers(2, 6), st.just(64))),
        num_resources=draw(st.sampled_from([1, 3])),
    )
    return kind, jobs, config, draw(st.booleans()), draw(st.integers(0, 1000))


class _AgainstTheRollout(BackfillStrategy):
    """Decides with ``build`` + ``act``; checks every decision against the
    rollout's ``encode_batch`` + ``step`` and keeps what it encoded."""

    name = "against-the-rollout"

    def __init__(self, agent, deterministic: bool, seed: int):
        self.agent, self.deterministic = agent, deterministic
        self.builder = ObservationBuilder(agent.observation_config)
        self.rng = np.random.default_rng(seed)
        self.observations: List[np.ndarray] = []
        self.masks: List[np.ndarray] = []
        self.declined = 0

    def select_backfill(self, decision, estimator):
        builder = self.builder
        queue, mask, slot_jobs = builder.prepare(decision)
        slots, rows, built_slot_jobs = builder.build(decision)
        assert slots == np.flatnonzero(mask).tolist()
        assert len(built_slot_jobs) == len(slot_jobs)
        assert all(a is b for a, b in zip(built_slot_jobs, slot_jobs))
        if not slots:
            self.declined += 1
            return None
        item = (decision, queue, builder.static_rows(queue), mask[: len(queue)])
        observation = builder.encode_batch([item])[0]
        assert rows.tobytes() == observation.reshape(mask.size, -1)[slots].tobytes()
        greedy, sampled = _check_act_against_step(
            self.agent, observation, mask, rows, slots, self.rng
        )
        self.observations.append(observation)
        self.masks.append(mask)
        return slot_jobs[greedy if self.deterministic else sampled]


@settings(max_examples=60, deadline=None)
@given(simulations(), st.sampled_from([None, 1]))
def test_every_serial_decision_is_the_rollouts(case, row_block):
    kind, jobs, config, deterministic, seed = case
    agent = _agent(row_block, config, seed)
    strategy = _AgainstTheRollout(agent, deterministic, seed)
    simulator = Simulator(16, backfill=strategy, estimator=UserEstimate(), topology=_MACHINES[kind])
    result = simulator.run(jobs)
    assert len(result.records) == len(jobs)
    if strategy.masks:  # every decision of the run, forwarded as one batch
        _check_step_batch_against_the_graph(
            agent, np.array(strategy.observations), np.array(strategy.masks), seed
        )


def test_the_rollout_comparisons_reach_every_arm():
    """Vacuous unless decisions decline and choose, on every machine, with
    candidates behind the window, and the batched check sees many rows."""
    totals = Counter()
    for seed in range(6):
        for kind in sorted(_MACHINES):
            jobs = _contended_jobs(np.random.default_rng(seed), 16, 60)
            config = ObservationConfig(
                max_queue_size=3 if seed % 2 else 64, num_resources=3 if seed % 3 == 0 else 1
            )
            agent = _agent(seed % 2 or None, config, seed)
            strategy = _AgainstTheRollout(agent, seed % 4 < 2, seed)
            Simulator(16, backfill=strategy, topology=_MACHINES[kind]).run(jobs)
            totals["chosen", kind] += len(strategy.masks)
            totals["declined", kind] += strategy.declined
    for kind in _MACHINES:
        assert totals["chosen", kind] > 150 and totals["declined", kind] > 50


class _BothPolicies(BackfillStrategy):
    """Asks the policy and the parent's policy; checks the decision point itself."""

    name = "both"

    def __init__(self, agent, deterministic: bool, seed: int):
        self.mine = RLBackfillPolicy(agent, deterministic=deterministic, seed=seed, row_block=1)
        self.parent = ParentPolicy(agent, deterministic=deterministic, seed=seed, row_block=1)
        self.rows_encoded: List[int] = []
        self.value_runs = 0
        self.decisions = self.declined = 0
        feature_rows, infer = self.mine.builder.feature_rows, self.mine.agent.value_net.infer

        def counted_rows(items):
            rows = feature_rows(items)
            self.rows_encoded.append(len(rows))
            return rows

        def counted_value(observations):
            self.value_runs += 1
            return infer(observations)

        self.mine.builder.feature_rows = counted_rows
        self.mine.agent.value_net.infer = counted_value

    def select_backfill(self, decision, estimator):
        machine, reserved = decision.machine, decision.reserved_job
        # What a scan of the whole queue finds -- also after an accepted
        # backfill, when the simulator only filters the previous candidates.
        if machine.topology is None:
            fitting = [
                j for j in decision.queue
                if j.requested_processors <= machine.free_processors and j is not reserved
            ]
        else:
            fitting = [j for j in decision.queue if j is not reserved and machine.can_start(j)]
        assert len(decision.candidates) == len(fitting)
        assert all(a is b for a, b in zip(decision.candidates, fitting))

        encoded = len(self.rows_encoded)
        with _tensors_built() as built:
            chosen = self.mine.select_backfill(decision, estimator)
        expected = self.parent.select_backfill(decision, estimator)
        assert chosen is expected and built == [0]
        self.decisions += 1
        # One encode of exactly the candidates inside the window, or none at all.
        in_window = int(self.parent.builder.prepare(decision)[1].sum())
        assert self.rows_encoded[encoded:] == ([in_window] if in_window else [])
        if not in_window:
            self.declined += 1
            assert chosen is None
        assert self.value_runs == 0
        return chosen


@settings(max_examples=60, deadline=None)
@given(simulations())
def test_every_decision_of_a_simulation_is_the_parents(case):
    kind, jobs, config, deterministic, seed = case
    both = _BothPolicies(RLBackfillAgent(config, seed=seed), deterministic, seed)
    simulator = Simulator(16, backfill=both, estimator=UserEstimate(), topology=_MACHINES[kind])
    result = simulator.run(jobs)
    assert len(result.records) == len(jobs) and result.decision_count == both.decisions


def test_the_simulations_reach_both_arms():
    """The property above is vacuous unless some decisions decline and some choose."""
    totals = {"decisions": 0, "declined": 0, "backfilled": 0}
    for seed in range(6):
        rng = np.random.default_rng(seed)
        jobs = [
            Job(
                job_id=i, submit_time=float(i // 4), runtime=float(rng.integers(5, 60)),
                requested_processors=int(rng.integers(1, 7)), requested_time=120.0,
            )
            for i in range(1, 61)
        ]
        both = _BothPolicies(RLBackfillAgent(ObservationConfig(max_queue_size=3), seed=seed), True, 0)
        result = Simulator(16, backfill=both, estimator=UserEstimate()).run(jobs)
        totals["decisions"] += both.decisions
        totals["declined"] += both.declined
        totals["backfilled"] += result.backfill_count
    assert totals["declined"] > 20 and totals["backfilled"] > 20
    assert totals["decisions"] > totals["declined"]


# -- the simulator's accepted-choice pass ---------------------------------------------

_CONTENDED = [
    _job(1, 0.0, processors=9), _job(2, 0.0, processors=8), _job(3, 0.0, processors=2),
    _job(4, 0.0, processors=2), _job(5, 1.0, processors=1), _job(6, 0.0, processors=8),
]


class _Scripted(BackfillStrategy):
    name = "scripted"

    def __init__(self, answer):
        self.answer = answer
        self.seen: List[DecisionPoint] = []

    def select_backfill(self, decision, estimator):
        self.seen.append(decision)
        return self.answer(decision)


@pytest.mark.parametrize("kind", sorted(_MACHINES))
def test_a_choice_outside_the_candidates_raises_the_parents_message(kind):
    stranger = _job(77, 0.0, processors=1)  # not queued
    answers = (
        lambda decision: stranger,
        lambda decision: decision.reserved_job,
        lambda decision: decision.queue[-1],  # job 6: queued, but wider than what is free
        lambda decision: replace(decision.queue[-1]),
    )
    for answer in answers:
        messages = []
        for simulator in (Simulator, ParentSimulator):
            with pytest.raises(ValueError) as raised:
                simulator(16, backfill=_Scripted(answer), topology=_MACHINES[kind]).run(_CONTENDED)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert "which is not a candidate (candidates: [3, 4])" in messages[0]


def test_an_equal_copy_of_a_candidate_is_accepted_and_leaves_the_candidates():
    strategy = _Scripted(lambda decision: replace(decision.candidates[0]))
    result = Simulator(16, backfill=strategy).run(_CONTENDED)
    first, second = strategy.seen[0], strategy.seen[1]
    assert [j.job_id for j in first.candidates] == [3, 4]
    # Same instant: the job just started still fits the free count, and is gone.
    assert second.time == first.time and [j.job_id for j in second.candidates] == [4]
    backfilled = {record.job.job_id for record in result.records if record.backfilled}
    assert {3, 4} <= backfilled and len(result.records) == len(_CONTENDED)


@settings(max_examples=60, deadline=None)
@given(simulations(), st.sampled_from(["fcfs", "sjf"]))
def test_easy_schedules_equal_the_parent_simulators(case, order):
    """EASY picks deep into the candidate list and accepts many backfills at
    one instant, the case the one-pass refilter serves."""
    kind, jobs, _config, _deterministic, _seed = case
    mine, parent = (
        simulator(16, backfill=EasyBackfill(order=order), topology=_MACHINES[kind]).run(jobs)
        for simulator in (Simulator, ParentSimulator)
    )
    assert mine.records == parent.records
    assert (mine.decision_count, mine.backfill_count) == (
        parent.decision_count, parent.backfill_count
    )


# -- the census, the derived candidates, the session's count (ISSUE 19) -----------------------


class CensusCheckedSimulator(Simulator):
    """The simulator under test, recounting its queue at every decision point."""

    def _backfill_opportunity(self, state, rjob):
        inner = super()._backfill_opportunity(state, rjob)
        try:
            decision = next(inner)
            while True:
                recount = Counter(job.requested_processors for job in state.queue)
                assert state.queued_widths == recount
                decision = inner.send((yield decision))
        except StopIteration:
            return


class _Kept(BackfillStrategy):
    """Answers as ``inner`` does and keeps every point, to be read after the run."""

    def __init__(self, inner):
        self.inner, self.name = inner, inner.name
        self.points: List[DecisionPoint] = []
        self.answers: List[Optional[int]] = []

    def on_sequence_start(self):
        self.inner.on_sequence_start()

    def select_backfill(self, decision, estimator):
        choice = self.inner.select_backfill(decision, estimator)
        self.points.append(decision)
        self.answers.append(None if choice is None else choice.job_id)
        return choice


_STRATEGIES = {
    "easy-fcfs": lambda: EasyBackfill(order="fcfs"),
    "easy-sjf": lambda: EasyBackfill(order="sjf"),
    "conservative": ConservativeBackfill,
    "rl": lambda: RLBackfillPolicy(
        RLBackfillAgent(ObservationConfig(max_queue_size=4), seed=5), row_block=1
    ),
    "pass": NoBackfill,  # never reads the candidates: they are first derived after the run
}


def _schedule(kind: str, procs: int) -> dict:
    if kind == "drains":
        return {"capacity_schedule": (
            DowntimeWindow(start=10.0, end=70.0, processors=procs // 4),
            DowntimeWindow(start=40.0, end=150.0, processors=procs // 8),
        )}
    if kind == "failures":
        return {"restart_policy": "requeue", "node_failures": (
            NodeFailure(time=15.0, processors=procs // 2, repair_duration=40.0),
            NodeFailure(time=90.0, processors=procs // 3, repair_duration=25.0),
        )}
    return {}


def _contended_jobs(rng, procs: int, count: int) -> List[Job]:
    jobs, now = [], 0.0
    for job_id in range(1, count + 1):
        now += float(rng.exponential(4.0)) * (rng.random() < 0.7)  # bursts share an instant
        wide = rng.random() < 0.25
        runtime = float(rng.exponential(60.0 if wide else 15.0)) + 1.0
        width = rng.integers(procs // 3, procs // 2 + 1) if wide else rng.integers(1, procs // 5 + 1)
        jobs.append(
            Job(
                job_id=job_id, submit_time=now, runtime=runtime, requested_processors=int(width),
                requested_time=runtime * float(rng.uniform(1.0, 3.0)),
            )
        )
    return jobs


def _differential_run(procs, jobs, policy, strategy, kind) -> Tuple[_Kept, "SimulationResult"]:
    """One trace through the simulator and through the parent's; every census,
    point, answer and the result compared.  Returns the change's side."""
    config = dict(policy=policy, estimator=UserEstimate(), **_schedule(kind, procs))
    mine, parent = _Kept(_STRATEGIES[strategy]()), _Kept(_STRATEGIES[strategy]())
    result = CensusCheckedSimulator(procs, backfill=mine, **config).run(jobs)
    expected = ParentSimulator(procs, backfill=parent, **config).run(jobs)
    assert result == expected
    assert mine.answers == parent.answers
    assert len(mine.points) == len(parent.points) == result.decision_count
    # Every point is read here, after it was answered and the machine moved
    # on; the parent's lists were built eagerly, before the answer.
    for point, eager in zip(mine.points, parent.points):
        assert point.time == eager.time and point.reserved_job is eager.reserved_job
        for derived, scanned in ((point.queue, eager.queue), (point.candidates, eager.candidates)):
            assert len(derived) == len(scanned) and all(a is b for a, b in zip(derived, scanned))
        assert point.candidates is point.candidates  # derived once, then kept

    # The same stream from a live session, which hands its decisions out and keeps a count.
    served, offline = capture_decisions(
        ParentSimulator(procs, backfill=_STRATEGIES[strategy](), **config), jobs
    )
    session = Simulator(procs, backfill=_STRATEGIES[strategy](), **config).open_session()
    for job in jobs:
        session.submit(job)
    live = session.advance_to(jobs[len(jobs) // 2].submit_time) + session.drain()
    assert live == served and session.decisions_served == len(served)
    assert [(d.time, d.reserved_job_id, d.chosen_job_id) for d in served] == [
        (point.time, point.reserved_job.job_id, answer)
        for point, answer in zip(mine.points, mine.answers)
    ]
    assert session.result() == offline == result
    return mine, result


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.sampled_from([16, 32, 64]), st.integers(15, 45),
    st.sampled_from(["FCFS", "SJF", "F1"]), st.sampled_from(sorted(_STRATEGIES)),
    st.sampled_from(["none", "drains", "failures"]),
)
def test_census_and_derived_candidates_equal_the_parents_scans(seed, procs, count, policy, strategy, kind):
    jobs = _contended_jobs(np.random.default_rng(seed), procs, count)
    _differential_run(procs, jobs, policy, strategy, kind)


def test_the_differential_runs_reach_every_arm():
    """Vacuous unless candidates exist, backfills are accepted after one
    another at one instant, and a failure requeues into the census."""
    totals = Counter()
    for seed, (strategy, kind) in enumerate(
        (s, k) for s in sorted(_STRATEGIES) for k in ("none", "drains", "failures")
    ):
        jobs = _contended_jobs(np.random.default_rng(seed), 32, 60)
        kept, result = _differential_run(32, jobs, "SJF" if seed % 2 else "FCFS", strategy, kind)
        totals["decisions", strategy] += result.decision_count
        totals["backfilled", strategy] += result.backfill_count
        totals["requeued", kind] += result.requeue_count
        totals["candidates"] += sum(len(point.candidates) for point in kept.points)
        totals["same instant"] += sum(
            a.time == b.time for a, b in zip(kept.points, kept.points[1:])
        )
    for strategy in _STRATEGIES:
        assert totals["decisions", strategy] > 30
        assert (totals["backfilled", strategy] > 10) == (strategy != "pass")
    assert totals["requeued", "failures"] > 5 and totals["requeued", "none"] == 0
    assert totals["candidates"] > 1000 and totals["same instant"] > 50


def test_a_hand_built_point_derives_from_its_snapshot_or_takes_the_list_it_is_given():
    machine = Machine(16)
    machine.start(_job(99, 0.0, processors=12), now=0.0)  # 4 free
    queue = [_job(1, 0.0, 6), _job(2, 1.0, 4), _job(3, 1.0, 5), _job(4, 2.0, 1)]
    derived = DecisionPoint(
        time=3.0, reserved_job=queue[0], reservation_time=60.0, extra_processors=0,
        queue=queue, machine=machine, queue_sorted=True,
    )
    assert derived.candidate_slots(queue) == [1, 3] and derived.candidate_slots(queue[2:]) == [1]
    machine.start(queue[1], now=3.0)  # the machine moves on: 0 free
    assert derived.candidates == [queue[1], queue[3]] and derived.candidate_ids() == [2, 4]
    given = DecisionPoint(
        time=3.0, reserved_job=queue[0], reservation_time=60.0, extra_processors=0,
        candidates=[queue[2], queue[0]], queue=queue, machine=machine,
    )
    assert given.candidates == [queue[2], queue[0]]  # the list as given ...
    assert given.candidate_slots(queue) == [2]  # ... but the reserved job is never a candidate
    assert given.first_candidates(1) == [queue[2]] and given.first_candidates(None) == given.candidates
    # ``first_candidates`` stops at its limit: the snapshot's tail is not walked (and so not
    # kept as the list) until a limit reaches past the last candidate.
    long_queue = queue + [_job(10 + i, 3.0, 1 + i % 7) for i in range(40)]
    fitting = [job for job in long_queue[1:] if job.requested_processors <= 4]
    for limit in (1, 2, 5, len(fitting), len(fitting) + 3, None):
        lazy = DecisionPoint(
            time=3.0, reserved_job=queue[0], reservation_time=60.0, extra_processors=0,
            queue=long_queue, machine=Machine(4), queue_sorted=True,
        )
        taken = lazy.first_candidates(limit)
        assert len(taken) == len(fitting[:limit]) and all(a is b for a, b in zip(taken, fitting))
        if limit is None or limit > len(fitting):
            assert lazy._candidates is not None
        elif limit <= 5:
            assert lazy._candidates is None
        assert lazy.candidates == fitting
    assert DecisionPoint(3.0, queue[0], 60.0, 0, queue=queue).candidates == []  # no machine, none free


# -- what a session and the verifier retain (ISSUE 19) -----------------------------------------


def _live(session, jobs):
    """Submit ``jobs`` as they arrive, advancing between arrival instants;
    yields the decisions of each advance and then those of the drain."""
    for job, following in zip(jobs, [*jobs[1:], None]):
        session.submit(job)
        if following is None or following.submit_time > job.submit_time:
            yield session.advance_to(job.submit_time)
    yield from ([decision] for decision in session.iter_drain())


def _served_decision_blocks(snapshot) -> int:
    """Live bytes allocated where the simulator constructs a ``ServedDecision``."""
    import inspect

    from repro.scheduler import simulator

    lines, first = inspect.getsourcelines(simulator._serve)
    start = next(i for i, line in enumerate(lines) if "yield ServedDecision(" in line)
    call = range(first + start, first + start + 6)  # the call and its four arguments
    filters = [tracemalloc.Filter(True, simulator.__file__, lineno=lineno) for lineno in call]
    return sum(stat.size for stat in snapshot.filter_traces(filters).statistics("lineno"))


def test_a_session_keeps_no_decision_it_has_handed_out():
    jobs = _contended_jobs(np.random.default_rng(3), 64, 5500)
    session = Simulator(64, backfill=EasyBackfill(), estimator=UserEstimate()).open_session()
    tracemalloc.start()
    try:
        handed_out = [decision for served in _live(session, jobs) for decision in served]
        held = _served_decision_blocks(tracemalloc.take_snapshot())
        count = len(handed_out)
        assert all(type(decision) is ServedDecision for decision in handed_out)
        del handed_out
        gc.collect()  # a finished generator's frame can sit in a cycle with its StopIteration
        dropped = _served_decision_blocks(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert count >= 5000 and session.decisions_served == count
    assert held >= 48 * count  # the filter does see them while the caller holds them
    assert dropped == 0
    assert len(session.result().records) == len(jobs)  # what result() needs stayed


def _recorded_log(path, count: int) -> int:
    """Serve ``count`` jobs from a live session into a log file at ``path``, as
    the service does (64 processors, the ``--quick`` agent); the decisions served."""
    strategy = RLBackfillPolicy(RLBackfillAgent(seed=0), deterministic=True, row_block=1)
    session = Simulator(64, backfill=strategy, estimator=UserEstimate()).open_session()
    writer = ReplayLogWriter(path, durability="none")
    writer.header(64, "FCFS", 1000.0, 1, 10.0)
    jobs = _contended_jobs(np.random.default_rng(11), 64, count)
    for job in jobs:
        writer.submit("tenant", job)
    for served in _live(session, jobs):
        for decision in served:
            writer.decision(decision)
    writer.drain({"jobs": session.jobs_submitted, "decisions_served": session.decisions_served})
    writer.close()
    return session.decisions_served


def _verify_peak(path, decisions: int) -> Tuple[int, int]:
    """``(bytes of the log's jobs, tracemalloc peak of verifying the file)``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        jobs = [
            job_from_wire(record["job"])
            for record in _JsonlRecords(path, False) if record["type"] == "submit"
        ]
        jobs_bytes = tracemalloc.get_traced_memory()[0] - before
        del jobs
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        check = verify_replay_log(path, RLBackfillAgent(seed=0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert check.matched and check.decisions == decisions
    return jobs_bytes, peak


def test_verifying_a_log_file_costs_under_two_and_a_half_times_the_jobs_it_must_hold(tmp_path):
    """The jobs are what a replay must hold; the parent also held the log's
    decisions and the replay's, whole (4.6x the jobs on these logs, 5x on a
    ``load_service.py --quick`` one).  Two log sizes, so that what a replay
    costs whatever its length -- the policy's copy of the weights, 0.7 MB --
    cancels and the bound is on bytes per job."""
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    small_decisions, large_decisions = _recorded_log(small, 500), _recorded_log(large, 3000)
    assert large_decisions > 4500  # vacuous unless decision records outnumber the jobs
    small_jobs, small_peak = _verify_peak(small, small_decisions)
    large_jobs, large_peak = _verify_peak(large, large_decisions)
    assert large_peak - small_peak <= 2.5 * (large_jobs - small_jobs), (
        f"{large_peak} - {small_peak} bytes to verify {large_jobs} - {small_jobs} bytes of jobs"
    )


# -- the streaming log reader ------------------------------------------------------------

_LINES = st.one_of(
    st.builds(
        lambda tenant, index: json.dumps(
            {"type": "decision", "tenant": tenant, "index": index}, ensure_ascii=False
        ),
        st.text(alphabet="aé日\U0001f600 ", max_size=4), st.integers(0, 99),
    ),
    st.sampled_from(["", "   ", '{"type": "subm', "not json", '{"a": 1} trailing', "[1, 2"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=8), st.booleans(), st.booleans())
def test_stream_reader_equals_the_parents_whole_text_parser(tmp_path_factory, lines, newline, allow):
    text = "\n".join(lines) + ("\n" if newline else "")
    path = tmp_path_factory.mktemp("jsonl") / "log.jsonl"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected, torn_chars = parent_parse_jsonl(text, allow, label=str(path))
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            list(_JsonlRecords(path, allow))
        assert str(raised.value) == str(error)
        return
    stream = _JsonlRecords(path, allow)
    assert list(stream) == expected
    # The parent counted characters and converted; the stream counts bytes.
    torn_bytes = None if torn_chars is None else len(text[:torn_chars].encode("utf-8"))
    assert stream.torn_at == torn_bytes


def _write_log(path, records, tail=""):
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        handle.write(tail)


def test_a_torn_tail_is_cut_at_its_byte_offset_with_non_ascii_tenants(tmp_path):
    path = tmp_path / "log.jsonl"
    records = [
        {"type": "header", "num_processors": 8},
        {"type": "submit", "tenant": "ténant-日本", "job": job_to_wire(_job(1, 0.0))},
        {"type": "submit", "tenant": "\U0001f600", "job": job_to_wire(_job(2, 1.0))},
    ]
    _write_log(path, records, tail='{"type": "submit", "tenant": "日\n\n  \n')
    whole = path.read_bytes()
    with pytest.raises(ValueError, match=r"torn final record on line 4 \(crash mid-write\?\)"):
        read_replay_log(path)
    log = read_replay_log(path, allow_torn_tail=True)
    assert log.torn_tail and log.tenants == ("ténant-日本", "\U0001f600") and len(log.jobs) == 2

    writer = ReplayLogWriter(path, resume=True)
    assert writer.records == []
    writer.write({"type": "drain"})
    writer.close()
    kept = whole[: whole.index(b'{"type": "submit", "tenant": "\xe6\x97\xa5\n')]
    assert path.read_bytes() == kept + b'{"type": "drain"}\n'
    assert not read_replay_log(path).torn_tail


def test_corruption_before_the_final_record_raises_the_parents_text(tmp_path):
    path = tmp_path / "log.jsonl"
    text = '{"type": "header"}\n{"type": "subm\n\n{"type": "drain"}\n'
    path.write_text(text, encoding="utf-8")
    for allow in (False, True):
        with pytest.raises(ValueError) as expected:
            parent_parse_jsonl(text, allow, label=str(path))
        with pytest.raises(ValueError) as raised:
            read_replay_log(path, allow_torn_tail=allow)
        assert str(raised.value) == str(expected.value)
        assert f"{path}: corrupt record on line 2 (not the final line): " in str(raised.value)


def test_in_memory_records_are_iterated_not_copied():
    records = iter([{"type": "header", "num_processors": 4}, {"type": "reject"}])
    log = read_replay_log(records)  # a one-shot iterator is enough
    assert log.header == {"num_processors": 4} and log.rejects == 1 and not log.torn_tail


def test_a_file_backed_writer_keeps_no_copy_of_the_log(tmp_path):
    writer = ReplayLogWriter(tmp_path / "log.jsonl")
    writer.header(8, "FCFS", 1000.0, 1, 10.0)
    writer.submit("t", _job(1, 0.0))
    writer.close()
    assert writer.records == []
    assert len(read_replay_log(tmp_path / "log.jsonl").jobs) == 1
    memory = ReplayLogWriter(None)
    memory.header(8, "FCFS", 1000.0, 1, 10.0)
    assert [record["type"] for record in memory.records] == ["header"]


def test_reading_a_long_log_peaks_below_twice_the_log_it_returns(tmp_path):
    path = tmp_path / "log.jsonl"
    records: List[dict] = [{"type": "header", "num_processors": 64}]
    for index in range(10_000):
        job = _job(index + 1, float(index))
        records.append({"type": "submit", "tenant": f"tenant-{index % 4}", "job": job_to_wire(job)})
        records.append(
            {"type": "decision", "index": index, "time": float(index), "reserved_job_id": 1,
             "chosen_job_id": None if index % 3 else index + 1}
        )
    _write_log(path, records)
    tracemalloc.start()
    try:
        log = read_replay_log(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log.jobs) == len(log.decisions) == 10_000
    assert peak < 2 * held, f"peak {peak} bytes while the returned log holds {held}"
