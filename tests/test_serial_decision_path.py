"""The serial decision path does only what a decision uses.

A served decision costs what it uses: ``ObservationBuilder.build`` declines
before it encodes and encodes the feature rows of its candidate slots only,
the policy scores them on arrays (``ActorCritic.act``: no value forward, no
``Tensor``) -- or, greedy with one window candidate, encodes and scores
nothing -- the reservation is made on its first read and expires when the
simulator resumes, an accepted backfill costs the simulator one pass over the
candidates, and the replay log is read as a stream.  The candidate rule
lives in :class:`DecisionPoint` (derived on first read from the snapshot and
the free count, or a node-group machine's fit rule, captured at
construction), the simulator asks a census of
queued widths instead of scanning the queue, and a session counts its
decisions instead of keeping them.

That no decision moved is pinned by the golden decision streams
(``tests/golden/``).  The tests here check each path against the one it must
equal: ``act`` against the rollout's ``step``, a served simulation against
the parent's whole-window rule, the array forward against the ``Tensor``
graph, derived candidates against a scan of the queue made when the point
was answered, and the stream reader against the whole-text parser it
replaced (``parent_parse_jsonl``, kept as the reader's oracle).
"""

from __future__ import annotations

import contextlib
import copy
import gc
import json
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import DowntimeWindow, Machine
from repro.cluster.resources import ClusterTopology, NodeGroup
from repro.core.agent import RLBackfillAgent
from repro.core.observation import ObservationBuilder, ObservationConfig
from repro.core.rlbackfill import RLBackfillPolicy
from repro.prediction.predictors import NoisyPrediction, UserEstimate
from repro.faults.plan import NodeFailure
from repro.rl import ppo
from repro.rl.autograd import Tensor, no_grad
from repro.rl.ppo import MASK_PENALTY
from repro.scheduler.backfill.base import BackfillStrategy
from repro.scheduler.backfill.conservative import ConservativeBackfill
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.backfill.none import NoBackfill
from repro.scheduler.events import DecisionPoint, StaleDecisionError
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

# -- the whole-text replay-log parser the stream reader replaced -------------------


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

def _job(job_id: int, submit_time: float, processors: int = 2, gpus: int = 0) -> Job:
    return Job(
        job_id=job_id, submit_time=submit_time, runtime=50.0 + job_id,
        requested_processors=processors, requested_time=80.0 + 3 * job_id, requested_gpus=gpus,
    )


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


def test_an_unsorted_hand_built_queue_is_windowed_in_arrival_order():
    """Without the sortedness promise the window is sorted, ties by job id."""
    queue = [_job(5, 2.0), _job(4, 1.0), _job(3, 1.0), _job(1, 7.0)]
    decision = DecisionPoint(
        time=9.0, reserved_job=queue[0], reservation_time=50.0, extra_processors=0,
        queue=queue, machine=Machine(32),
    )
    slots, _, slot_jobs = ObservationBuilder(ObservationConfig(max_queue_size=3)).build(decision)
    assert [job.job_id for job in slot_jobs] == [3, 4, 5] and slots == [0, 1]


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
def _calls(owner, name: str):
    """``(args, result)`` of every call of ``owner.name`` made inside the block."""
    calls = []
    method = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append((args, method(*args, **kwargs)))
        return calls[-1][1]

    setattr(owner, name, recording)
    try:
        yield calls
    finally:
        setattr(owner, name, method)


def _check_act_against_step(agent, observation, mask, rows, slots, rng) -> Tuple[int, int]:
    """``act`` on the candidate ``rows`` / ``slots`` takes the action ``step``
    takes on the whole observation, deterministic and sampled; it builds no
    ``Tensor``, hands the sampler ``step``'s log-probability grid bit for bit
    and draws one uniform.  Returns ``(greedy, sampled)`` and advances ``rng``
    by that uniform."""
    mine, theirs = copy.deepcopy(rng), copy.deepcopy(rng)
    with _calls(Tensor, "__init__") as built, _calls(ppo, "_sample_actions") as grids:
        greedy = agent.act(rows, slots, mask.size, deterministic=True)
        sampled = agent.act(rows, slots, mask.size, rng=mine)
    assert built == []
    assert greedy == agent.step(observation, mask, deterministic=True)[0]
    with _calls(ppo, "_sample_actions") as expected:
        assert sampled == agent.step(observation, mask, rng=theirs)[0]
    assert len(grids) == len(expected) == 1
    assert grids[0][0][0].tobytes() == expected[0][0][0].tobytes()
    rng.random()  # exactly one uniform per call
    assert mine.bit_generator.state == theirs.bit_generator.state == rng.bit_generator.state
    return greedy, sampled


def _check_step_batch_against_the_graph(agent, observations, masks, seed: int) -> None:
    """``step_batch``'s actions, values and log-probs, sampled and greedy, are
    the ``Tensor`` forward's (``policy_logits`` / ``value`` under ``no_grad``)
    bit for bit; ``step_batch`` itself builds no ``Tensor``."""
    def rngs():
        return [np.random.default_rng(seed + row) for row in range(len(masks))]

    with _calls(Tensor, "__init__") as built:
        sampled = agent.step_batch(observations, masks, rngs=rngs())
        greedy = agent.step_batch(observations, masks, deterministic=True)
    assert built == []
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
    jobs = _contended_jobs(rng, 16, draw(st.integers(20, 60)))
    if kind != "scalar":  # the narrow jobs also ask for gpus
        jobs = [
            replace(job, requested_gpus=int(rng.integers(0, 3)))
            if job.requested_processors < 5 else job
            for job in jobs
        ]
    config = ObservationConfig(
        max_queue_size=draw(st.one_of(st.integers(2, 6), st.just(64))),
        num_resources=draw(st.sampled_from([1, 3])),
    )
    return kind, jobs, config, draw(st.booleans()), draw(st.integers(0, 1000))


class _AgainstTheRollout(BackfillStrategy):
    """Decides with ``build`` + ``act``; checks every decision against the
    rollout's ``encode_batch`` + ``step`` and keeps what it encoded.  The
    policy, asked the same decision, must choose the same job, encoding the
    rows of the window's candidates once (or nothing when there are none, or
    when a greedy decision has one), with no ``Tensor`` and no value forward."""

    name = "against-the-rollout"

    def __init__(self, agent, deterministic: bool, seed: int):
        self.agent, self.deterministic = agent, deterministic
        self.builder = ObservationBuilder(agent.observation_config)
        self.policy = RLBackfillPolicy(agent, deterministic=deterministic, seed=seed)
        self.rng = np.random.default_rng(seed)
        self.observations: List[np.ndarray] = []
        self.masks: List[np.ndarray] = []
        self.declined = 0

    def select_backfill(self, decision, estimator):
        machine, reserved = decision.machine, decision.reserved_job
        # What a scan of the whole queue finds -- also after an accepted
        # backfill, when the simulator only filters the previous candidates.
        fitting = [
            j for j in decision.queue
            if j is not reserved and (
                machine.can_start(j) if machine.topology is not None
                else j.requested_processors <= machine.free_processors
            )
        ]
        assert len(decision.candidates) == len(fitting)
        assert all(a is b for a, b in zip(decision.candidates, fitting))
        with _calls(Tensor, "__init__") as built, _calls(self.agent.value_net, "infer") as values, \
                _calls(self.policy.builder, "feature_rows") as encoded:
            chosen = self.policy.select_backfill(decision, estimator)
        assert built == [] and values == []

        builder = self.builder
        queue, mask, slot_jobs = builder.prepare(decision)
        slots, rows, built_slot_jobs = builder.build(decision)
        assert slots == np.flatnonzero(mask).tolist()
        assert len(built_slot_jobs) == len(slot_jobs)
        assert all(a is b for a, b in zip(built_slot_jobs, slot_jobs))
        # A greedy decision with one window candidate takes it and encodes nothing.
        encodes = len(slots) > 1 or (len(slots) == 1 and not self.deterministic)
        assert [len(rows) for _, rows in encoded] == ([len(slots)] if encodes else [])
        if not slots:
            self.declined += 1
            assert chosen is None
            return None
        item = (decision, queue, builder.static_rows(queue), mask[: len(queue)])
        observation = builder.encode_batch([item])[0]
        assert rows.tobytes() == observation.reshape(mask.size, -1)[slots].tobytes()
        greedy, sampled = _check_act_against_step(
            self.agent, observation, mask, rows, slots, self.rng
        )
        self.observations.append(observation)
        self.masks.append(mask)
        assert chosen is slot_jobs[greedy if self.deterministic else sampled]
        return chosen


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


class _WholeWindowRule(BackfillStrategy):
    """The parent's decision rule: encode the whole window, then ``step``."""

    name = "whole-window"

    def __init__(self, agent, deterministic: bool, seed: int):
        self.agent, self.deterministic = agent, deterministic
        self.builder = ObservationBuilder(agent.observation_config)
        self.rng = np.random.default_rng(seed)
        self.decisions = self.declined = 0

    def select_backfill(self, decision, estimator):
        self.decisions += 1
        queue, mask, slot_jobs = self.builder.prepare(decision)
        if not mask.any():
            self.declined += 1
            return None
        item = (decision, queue, self.builder.static_rows(queue), mask[: len(queue)])
        observation = self.builder.encode_batch([item])[0]
        action, _, _ = self.agent.step(
            observation, mask, rng=self.rng, deterministic=self.deterministic
        )
        return slot_jobs[action]


def _served_against_the_whole_window(kind, jobs, agent, deterministic, seed):
    policy = RLBackfillPolicy(agent, deterministic=deterministic, seed=seed, row_block=1)
    whole = _WholeWindowRule(agent, deterministic, seed)
    (served, result), (expected, _) = (
        capture_decisions(
            Simulator(16, backfill=s, estimator=UserEstimate(), topology=_MACHINES[kind]), jobs
        )
        for s in (policy, whole)
    )
    assert served == expected and result.decision_count == whole.decisions
    return whole, result


@settings(max_examples=60, deadline=None)
@given(simulations())
def test_every_decision_of_a_simulation_is_the_parents(case):
    """A whole simulation served by the policy, on one rng stream, takes every
    decision the parent's rule takes."""
    kind, jobs, config, deterministic, seed = case
    _, result = _served_against_the_whole_window(
        kind, jobs, RLBackfillAgent(config, seed=seed), deterministic, seed
    )
    assert len(result.records) == len(jobs)


def test_the_simulations_reach_both_arms():
    """The property above is vacuous unless some decisions decline and some choose."""
    totals = Counter()
    for seed in range(6):
        for kind, deterministic in (("scalar", True), ("multi-group", False)):
            jobs = _contended_jobs(np.random.default_rng(seed), 16, 60)
            agent = RLBackfillAgent(ObservationConfig(max_queue_size=3), seed=seed)
            whole, result = _served_against_the_whole_window(kind, jobs, agent, deterministic, seed)
            totals["decisions"] += whole.decisions
            totals["declined"] += whole.declined
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
        (lambda decision: stranger, 77),
        (lambda decision: decision.reserved_job, 2),
        (lambda decision: decision.queue[-1], 6),  # queued, but wider than what is free
        (lambda decision: replace(decision.queue[-1]), 6),
    )
    for answer, job_id in answers:
        with pytest.raises(ValueError) as raised:
            Simulator(16, backfill=_Scripted(answer), topology=_MACHINES[kind]).run(_CONTENDED)
        assert str(raised.value) == (
            f"backfill strategy returned job {job_id} which is not a candidate (candidates: [3, 4])"
        )


def test_an_equal_copy_of_a_candidate_is_accepted_and_leaves_the_candidates():
    strategy = _Scripted(lambda decision: replace(decision.candidates[0]))
    result = Simulator(16, backfill=strategy).run(_CONTENDED)
    first, second = strategy.seen[0], strategy.seen[1]
    assert [j.job_id for j in first.candidates] == [3, 4]
    # Same instant: the job just started still fits the free count, and is gone.
    assert second.time == first.time and [j.job_id for j in second.candidates] == [4]
    backfilled = {record.job.job_id for record in result.records if record.backfilled}
    assert {3, 4} <= backfilled and len(result.records) == len(_CONTENDED)


# -- the census, the derived candidates, the session's count (ISSUE 19) -----------------------


def _census_recount(state) -> List[Counter]:
    """Queued widths per group of the machine's layout, over the jobs eligible there."""
    groups = state.machine.layout.groups
    recount = [Counter() for _ in groups]
    for job in state.queue:
        for group in state.machine.job_need(job)[1]:
            recount[groups.index(group)][job.requested_processors] += 1
    return recount


class CensusCheckedSimulator(Simulator):
    """The simulator under test, recounting its queue per group at every
    decision point, and checking each census answer against a scan: a point
    is yielded only where some queued job other than the reserved one can
    start, and the opportunity closes unanswered only where none can."""

    def _backfill_opportunity(self, state, rjob):
        inner = super()._backfill_opportunity(state, rjob)
        machine, choice = state.machine, rjob
        try:
            while True:
                assert state.queued_widths == _census_recount(state)
                decision = inner.send(None) if choice is rjob else inner.send(choice)
                assert any(job is not rjob and machine.can_start(job) for job in state.queue)
                choice = yield decision
        except StopIteration:
            assert state.queued_widths == _census_recount(state)
            if choice is not None:  # the census said no, not the strategy
                assert not any(job is not rjob and machine.can_start(job) for job in state.queue)
            return


class _Kept(BackfillStrategy):
    """Answers as ``inner`` does and keeps every point, to be read after the run,
    beside a scan of the whole queue made before the answer (what the simulator
    built eagerly before the census)."""

    def __init__(self, inner):
        self.inner, self.name = inner, inner.name
        self.points: List[DecisionPoint] = []
        self.answers: List[Optional[int]] = []
        self.scans: List[Tuple[List[Job], List[Job]]] = []

    def on_sequence_start(self):
        self.inner.on_sequence_start()

    def select_backfill(self, decision, estimator):
        queue, free = list(decision.queue), decision.machine.free_processors
        fitting = [
            job for job in queue
            if job.requested_processors <= free and job is not decision.reserved_job
        ]
        assert fitting  # a point is yielded only where some job can start
        self.scans.append((queue, fitting))
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
    """One trace through the census-checked simulator; every point, read after
    the run, compared with the scan made when it was answered."""
    config = dict(policy=policy, estimator=UserEstimate(), **_schedule(kind, procs))
    mine = _Kept(_STRATEGIES[strategy]())
    result = CensusCheckedSimulator(procs, backfill=mine, **config).run(jobs)
    assert len(mine.points) == len(mine.scans) == result.decision_count
    # Every point is read here, after it was answered and the machine moved on.
    for point, scanned_lists in zip(mine.points, mine.scans):
        for derived, scanned in zip((point.queue, point.candidates), scanned_lists):
            assert len(derived) == len(scanned) and all(a is b for a, b in zip(derived, scanned))
        assert point.candidates is point.candidates  # derived once, then kept

    # The same stream from a live session, which hands its decisions out and keeps a count.
    served, offline = capture_decisions(
        Simulator(procs, backfill=_STRATEGIES[strategy](), **config), jobs
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


#: The node-group corpus cells the census is checked on: every layout with node
#: groups, plain and drained, under EASY, RL and conservative backfilling.
_CORPUS_STRATEGIES = (
    "easy-fcfs", "easy-sjf", "cons-fcfs-dall-call", "cons-sjf-d3-c2", "rl-greedy", "rl-resources",
)


def test_the_census_holds_on_the_node_group_corpus_cells():
    from tests.golden import corpus

    committed, checked = corpus.load(), Counter()
    for topology_name in ("one-group", "partitions", "resources"):
        made = corpus.strategies(topology_name)
        for timing, seed in (("whole", 101), ("frac", 202)):
            jobs = corpus.trace(topology_name, timing == "frac", seed)
            for variant, kwargs in corpus.variants(topology_name).items():
                for priority in ("FCFS", "SJF"):
                    for name in _CORPUS_STRATEGIES:
                        if name not in made:
                            continue
                        key = f"{topology_name}/{timing}{seed}/{variant}/{priority}/user/{name}"
                        simulator = CensusCheckedSimulator(
                            corpus.CPUS, policy=priority, backfill=made[name](),
                            estimator=UserEstimate(), topology=corpus.TOPOLOGIES[topology_name],
                            **kwargs,
                        )
                        decisions, result = capture_decisions(simulator, jobs)
                        digest = corpus._short(corpus.render(decisions, result, []).encode())
                        assert digest == committed[key], key
                        checked[variant] += len(decisions)
    assert checked["plain"] > 300 and checked["drain"] > 300


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


# -- what a decision point computes, and when -------------------------------------------


def _one_window_candidate():
    """A point on a 16-processor machine with 4 free: its 3-slot window holds one
    candidate (job 3), a second one (job 4) waits behind the window."""
    machine = Machine(16)
    machine.start(_job(99, 0.0, processors=12), now=0.0)
    queue = [_job(1, 0.0, 6), _job(2, 1.0, 8), _job(3, 1.0, 4), _job(4, 2.0, 1)]
    decision = DecisionPoint(
        time=3.0, reserved_job=queue[0], queue=queue, machine=machine, queue_sorted=True,
        reservation=partial(machine.reservation, queue[0], 3.0, UserEstimate()),
    )
    return decision, queue


def test_a_greedy_decision_with_one_window_candidate_encodes_and_scores_nothing():
    agent = RLBackfillAgent(ObservationConfig(max_queue_size=3), seed=5)
    greedy = RLBackfillPolicy(agent, row_block=1)
    decision, queue = _one_window_candidate()
    with _calls(greedy.builder, "feature_rows") as encoded, \
            _calls(greedy.agent.kernel, "infer") as scored:
        assert greedy.select_backfill(decision, UserEstimate()) is queue[2]
    assert encoded == [] and scored == []
    assert "deferred" in repr(decision)  # nothing read the reservation either


def test_a_sampled_decision_with_one_candidate_still_encodes_and_draws_one_uniform():
    agent = RLBackfillAgent(ObservationConfig(max_queue_size=3), seed=5)
    sampled = RLBackfillPolicy(agent, deterministic=False, seed=9, row_block=1)
    expected = copy.deepcopy(sampled.rng)
    decision, queue = _one_window_candidate()
    with _calls(sampled.builder, "feature_rows") as encoded, \
            _calls(sampled.agent.kernel, "infer") as scored:
        assert sampled.select_backfill(decision, UserEstimate()) is queue[2]
    assert [len(rows) for _, rows in encoded] == [1] and len(scored) == 1
    expected.random()
    assert sampled.rng.bit_generator.state == expected.bit_generator.state


class _Counted(BackfillStrategy):
    """Answers as ``inner`` does; per decision, the window's candidate count (for
    a window of ``window`` slots) and the reservations the answer computed."""

    def __init__(self, inner, calls, window: int = 4):
        self.inner, self.name, self.calls = inner, inner.name, calls
        self.builder = ObservationBuilder(ObservationConfig(max_queue_size=window))
        self.seen: List[Tuple[int, int]] = []

    def on_sequence_start(self):
        self.inner.on_sequence_start()

    def select_backfill(self, decision, estimator):
        before = len(self.calls)
        choice = self.inner.select_backfill(decision, estimator)
        in_window = len(self.builder.window(decision)[1])
        self.seen.append((in_window, len(self.calls) - before))
        return choice


@pytest.mark.parametrize("kind", ["scalar", "multi-group"])
def test_who_asks_the_machine_for_a_reservation(kind):
    """With a stateless estimator the reservation is made on the first read:
    conservative never reads it, EASY once per decision, and greedy RL only
    where its window holds two candidates or more (then once)."""
    jobs = _contended_jobs(np.random.default_rng(3), 16, 60)
    agent = RLBackfillAgent(ObservationConfig(max_queue_size=4), seed=5)
    strategies = {
        "conservative": ConservativeBackfill(),
        "easy": EasyBackfill(order="fcfs"),
        "rl": RLBackfillPolicy(agent, row_block=1),
    }
    for name, strategy in strategies.items():
        with _calls(Machine, "reservation") as calls:
            counted = _Counted(strategy, calls)
            result = Simulator(
                16, backfill=counted, estimator=UserEstimate(), topology=_MACHINES[kind]
            ).run(jobs)
        assert len(calls) == sum(made for _, made in counted.seen)  # all made inside answers
        assert result.decision_count == len(counted.seen) > 20
        if name == "conservative":
            assert calls == []
        elif name == "easy":
            assert [made for _, made in counted.seen] == [1] * result.decision_count
        else:
            assert [made for _, made in counted.seen] == [
                int(in_window > 1) for in_window, _ in counted.seen
            ]
            assert {in_window > 1 for in_window, _ in counted.seen} == {True, False}


def test_an_unread_reservation_expires_when_the_simulator_resumes():
    jobs = _contended_jobs(np.random.default_rng(3), 16, 40)
    with _calls(Machine, "reservation") as calls:
        generator = Simulator(16, estimator=UserEstimate()).decision_points(jobs)
        first = next(generator)
        assert "deferred" in repr(first) and calls == []  # repr does not force it
        second = generator.send(None)
        assert "expired" in repr(first) and calls == []
        for read in (
            lambda: first.reservation_time, lambda: first.extra_processors,
            lambda: first.spare_vectors, lambda: first.would_delay(first.queue[-1], 1.0),
        ):
            named = re.escape(f"time={first.time!r}, reserved_job={first.reserved_job.job_id},")
            with pytest.raises(StaleDecisionError, match=named + ".*answered"):
                read()
        assert calls == []
        # A reservation read before the answer stays readable afterwards.
        kept = (second.reservation_time, second.extra_processors, second.spare_vectors)
        assert len(calls) == 1
        generator.send(None)
        assert (second.reservation_time, second.extra_processors, second.spare_vectors) == kept
        assert len(calls) == 1
        assert first.candidates  # derived from what was captured, after the answer too
    generator.close()


def test_a_points_free_count_is_of_its_instant():
    jobs = _contended_jobs(np.random.default_rng(3), 16, 40)
    generator = Simulator(16).decision_points(jobs)
    point = next(generator)
    while not point.candidates:
        point = generator.send(None)
    at_instant = point.machine.free_processors  # off the machine, not the point
    generator.send(point.candidates[0])
    # Sending the candidate started it, so the live machine has moved on.
    assert point.machine.free_processors < at_instant
    assert point.free_processors == at_instant
    assert point.free_fraction == at_instant / 16
    assert point.candidates == [
        job for job in point.queue
        if job is not point.reserved_job and job.requested_processors <= at_instant
    ]
    generator.close()

    # A node-group point reads its count on first ask: kept if asked before
    # the answer, stale if first asked after it.
    topology = ClusterTopology((NodeGroup(name="cpu", cpus=10), NodeGroup(name="big", cpus=6)))
    generator = Simulator(16, topology=topology).decision_points(jobs)
    point = next(generator)
    while not point.candidates:
        point = generator.send(None)
    kept = point.free_processors, point.free_fraction
    unread = generator.send(point.candidates[0])
    assert (point.free_processors, point.free_fraction) == kept
    generator.send(None)
    with pytest.raises(StaleDecisionError, match="free count.*answered"):
        unread.free_processors
    with pytest.raises(StaleDecisionError, match="free count.*answered"):
        unread.free_fraction
    generator.close()


def test_a_stateful_estimator_is_asked_for_the_reservation_when_the_point_is_built():
    jobs = _contended_jobs(np.random.default_rng(3), 16, 40)
    with _calls(Machine, "reservation") as calls:
        generator = Simulator(16, estimator=NoisyPrediction(0.3, seed=1)).decision_points(jobs)
        first = next(generator)
        assert len(calls) == 1 and "deferred" not in repr(first)
        reservation = calls[0][1]
        generator.send(None)
    assert (first.reservation_time, first.extra_processors, first.spare_vectors) == reservation
    generator.close()


def test_a_node_group_point_keeps_the_fit_rule_of_its_instant():
    """The candidates of a node-group point are placed on the free map of the
    instant it was built at, whenever they are first read."""
    machine = Machine(16, topology=_MACHINES["multi-group"])
    machine.start(_job(99, 0.0, processors=8), now=0.0)  # cpu: 2 free, gpu: 6 free
    queue = [_job(1, 0.0, 9), _job(2, 1.0, 3), _job(3, 1.0, 2, gpus=1), _job(4, 2.0, 7)]
    point = DecisionPoint(
        time=3.0, reserved_job=queue[0], queue=queue, machine=machine, queue_sorted=True,
        reservation=(60.0, 0, None),
    )
    fitting = [job for job in queue[1:] if machine.can_start(job)]
    assert [job.job_id for job in fitting] == [2, 3]
    machine.start(_job(98, 3.0, 6), now=3.0)  # the machine moves on: nothing fits now
    assert not any(machine.can_start(job) for job in queue)
    assert point.candidates == fitting and list(point.iter_candidates()) == fitting
    assert point.candidate_slots([queue[3], queue[2]]) == [1]


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
