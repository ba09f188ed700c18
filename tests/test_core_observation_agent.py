"""Tests for the observation encoder and the RLBackfilling actor-critic model."""

import numpy as np
import pytest

from repro.cluster.machine import Machine
from repro.core.agent import RLBackfillAgent
from repro.core.observation import JOB_FEATURES, ObservationBuilder, ObservationConfig
from repro.prediction.predictors import UserEstimate
from repro.rl.autograd import Tensor
from repro.scheduler.events import DecisionPoint
from tests.conftest import make_job


def build_decision(num_queued=5, machine_size=32, running_procs=24, queue_window=None):
    machine = Machine(machine_size)
    machine.start(make_job(100, runtime=500, requested_time=500, processors=running_procs), now=0.0)
    rjob = make_job(1, submit_time=0, processors=machine_size - running_procs + 4)
    queue = [rjob]
    candidates = []
    for i in range(2, 2 + num_queued):
        job = make_job(i, submit_time=float(i), runtime=50, requested_time=60, processors=2)
        queue.append(job)
        candidates.append(job)
    reservation, extra, _ = machine.reservation(rjob, 10.0, UserEstimate())
    return DecisionPoint(
        time=10.0,
        reserved_job=rjob,
        reservation_time=reservation,
        extra_processors=extra,
        candidates=candidates,
        queue=queue,
        machine=machine,
    )


class TestObservationConfig:
    def test_default_paper_values(self):
        cfg = ObservationConfig()
        assert cfg.max_queue_size == 128
        assert cfg.num_actions == 128
        assert cfg.observation_size == 128 * JOB_FEATURES

    def test_invalid_queue_size(self):
        with pytest.raises(ValueError):
            ObservationConfig(max_queue_size=0)

    def test_job_features_fixed(self):
        with pytest.raises(ValueError):
            ObservationConfig(job_features=3)


def encode(builder, decision):
    """``(observation, mask, slot_jobs)``: the whole window, as the environment encodes it."""
    queue, mask, slot_jobs = builder.prepare(decision)
    item = (decision, queue, builder.static_rows(queue), mask[: len(queue)])
    return builder.encode_batch([item])[0], mask, slot_jobs


class TestObservationBuilder:
    def test_shapes(self):
        builder = ObservationBuilder(ObservationConfig(max_queue_size=8))
        observation, mask, slot_jobs = encode(builder, build_decision())
        assert observation.shape == (8 * JOB_FEATURES,)
        assert mask.shape == (8,)
        assert len(slot_jobs) == 8
        slots, rows, slot_jobs = builder.build(build_decision())
        assert slots == [1, 2, 3, 4, 5] and rows.shape == (5, JOB_FEATURES) and len(slot_jobs) == 8

    def test_values_in_unit_range(self):
        builder = ObservationBuilder(ObservationConfig(max_queue_size=8))
        observation, _, _ = encode(builder, build_decision())
        assert observation.min() >= 0.0
        assert observation.max() <= 1.0

    def test_reserved_job_masked_out(self):
        builder = ObservationBuilder(ObservationConfig(max_queue_size=8))
        decision = build_decision()
        observation, mask, slot_jobs = encode(builder, decision)
        matrix = observation.reshape(8, JOB_FEATURES)
        reserved = [slot for slot, job in enumerate(slot_jobs) if job is decision.reserved_job]
        assert reserved == [0] and mask[0] == 0.0
        assert matrix[:, 4].tolist() == [1.0] + [0.0] * 7  # flagged, and only there
        assert 0 not in builder.build(decision)[0]

    def test_candidates_marked_valid(self):
        builder = ObservationBuilder(ObservationConfig(max_queue_size=8))
        decision = build_decision(num_queued=4)
        _, mask, slot_jobs = builder.prepare(decision)
        candidate_ids = {j.job_id for j in decision.candidates}
        valid_ids = {slot_jobs[i].job_id for i in np.flatnonzero(mask) if slot_jobs[i] is not None}
        assert valid_ids == candidate_ids
        assert builder.build(decision)[0] == np.flatnonzero(mask).tolist()

    def test_padding_slots_zero(self):
        builder = ObservationBuilder(ObservationConfig(max_queue_size=16))
        decision = build_decision(num_queued=3)
        observation, mask, _ = encode(builder, decision)
        matrix = observation.reshape(16, JOB_FEATURES)
        # Queue holds 4 jobs (rjob + 3); remaining slots must be zero padding.
        assert np.allclose(matrix[4:], 0.0)
        assert mask[4:].sum() == 0.0

    def test_truncation_keeps_oldest_jobs(self):
        builder = ObservationBuilder(ObservationConfig(max_queue_size=4))
        decision = build_decision(num_queued=10)
        _, _, slots = builder.build(decision)
        slot_ids = [j.job_id for j in slots if j is not None]
        queue_sorted = sorted(decision.queue, key=lambda j: (j.submit_time, j.job_id))
        assert slot_ids == [j.job_id for j in queue_sorted[:4]]

    def test_action_to_job(self):
        builder = ObservationBuilder(ObservationConfig(max_queue_size=8))
        decision = build_decision()
        slots, _, slot_jobs = builder.build(decision)
        assert builder.action_to_job(slots[0], slot_jobs) is slot_jobs[slots[0]]

    def test_action_out_of_range(self):
        builder = ObservationBuilder(ObservationConfig(max_queue_size=8))
        with pytest.raises(ValueError):
            builder.action_to_job(99, [None] * 8)

    def test_free_fraction_feature(self):
        builder = ObservationBuilder(ObservationConfig(max_queue_size=8))
        decision = build_decision(machine_size=32, running_procs=24)
        observation, _, _ = encode(builder, decision)
        matrix = observation.reshape(8, JOB_FEATURES)
        assert matrix[0][6] == pytest.approx(8 / 32)
        assert builder.build(decision)[1][:, 6].tolist() == [matrix[0][6]] * 5


class TestRLBackfillAgent:
    def test_logits_shape(self):
        cfg = ObservationConfig(max_queue_size=8)
        agent = RLBackfillAgent(observation_config=cfg, seed=0)
        obs = np.random.default_rng(0).random((3, cfg.observation_size))
        logits = agent.policy_logits(Tensor(obs))
        assert logits.shape == (3, cfg.num_actions)

    def test_value_shape(self):
        cfg = ObservationConfig(max_queue_size=8)
        agent = RLBackfillAgent(observation_config=cfg, seed=0)
        obs = np.random.default_rng(0).random((5, cfg.observation_size))
        assert agent.value(Tensor(obs)).shape == (5,)

    def test_kernel_shared_across_slots(self):
        """Identical job vectors in different slots must receive identical scores."""
        cfg = ObservationConfig(max_queue_size=4)
        agent = RLBackfillAgent(observation_config=cfg, seed=0)
        job_vector = np.random.default_rng(1).random(JOB_FEATURES)
        obs = np.tile(job_vector, (1, 4))
        logits = agent.policy_logits(Tensor(obs)).numpy()[0]
        assert np.allclose(logits, logits[0])

    def test_kernel_parameter_count_independent_of_queue_size(self):
        small = RLBackfillAgent(ObservationConfig(max_queue_size=8), seed=0)
        large = RLBackfillAgent(ObservationConfig(max_queue_size=128), seed=0)
        assert small.kernel.num_parameters() == large.kernel.num_parameters()

    def test_parameters_split(self):
        agent = RLBackfillAgent(ObservationConfig(max_queue_size=8), seed=0)
        policy_ids = {id(p) for p in agent.policy_parameters()}
        value_ids = {id(p) for p in agent.value_parameters()}
        assert policy_ids.isdisjoint(value_ids)

    def test_state_dict_round_trip(self):
        cfg = ObservationConfig(max_queue_size=8)
        a = RLBackfillAgent(cfg, seed=0)
        b = RLBackfillAgent(cfg, seed=1)
        b.load_state_dict(a.state_dict())
        obs = np.random.default_rng(2).random((2, cfg.observation_size))
        np.testing.assert_allclose(
            a.policy_logits(Tensor(obs)).numpy(), b.policy_logits(Tensor(obs)).numpy()
        )

    def test_step_returns_valid_action(self):
        cfg = ObservationConfig(max_queue_size=8)
        agent = RLBackfillAgent(cfg, seed=0)
        obs = np.random.default_rng(3).random(cfg.observation_size)
        mask = np.zeros(cfg.num_actions)
        mask[[2, 5]] = 1.0
        for _ in range(10):
            action, _, _ = agent.step(obs, mask, rng=np.random.default_rng(4))
            assert action in (2, 5)
