"""Tests for the PPO implementation, including an end-to-end learning check."""

import copy
import multiprocessing
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    get_metrics,
    get_tracer,
    metrics_enabled,
    tracing_enabled,
)
from repro.rl import ppo as ppo_module
from repro.rl.autograd import Tensor
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.ipc import blas_threads, worker_context
from repro.rl.nn import MLP
from repro.rl.ppo import PPO, ActorCritic, PPOConfig


class SlotScoringAC(ActorCritic):
    """Tiny kernel-style actor-critic over `slots` x `feats` observations."""

    def __init__(self, slots=4, feats=3, seed=0):
        self.slots, self.feats = slots, feats
        self.kernel = MLP([feats, 16, 1], activation="relu", seed=seed)
        self.value_net = MLP([slots * feats, 16, 1], activation="tanh", seed=seed)

    def slot_scores(self, slots):
        return self.kernel(slots)

    def value(self, observations):
        return self.value_net(observations).reshape(observations.shape[0])

    def infer_slot_scores(self, slots):
        return self.kernel.infer(slots)

    def infer_values(self, observations):
        return self.value_net.infer(observations).reshape(observations.shape[0])

    def policy_parameters(self):
        return self.kernel.parameters()

    def value_parameters(self):
        return self.value_net.parameters()


class TestPPOConfig:
    def test_defaults_valid(self):
        cfg = PPOConfig()
        assert cfg.gamma == 1.0
        assert cfg.lam == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"clip_ratio": 0.0},
        {"clip_ratio": 1.5},
        {"policy_iterations": 0},
        {"target_kl": 0.0},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            PPOConfig(**kwargs)


class TestActorCriticStep:
    def test_step_respects_mask(self):
        ac = SlotScoringAC(seed=0)
        rng = np.random.default_rng(0)
        obs = rng.random(12)
        mask = np.array([1.0, 0.0, 0.0, 0.0])
        for _ in range(20):
            action, value, log_prob = ac.step(obs, mask, rng=rng)
            assert action == 0
            assert np.isfinite(value)
            assert log_prob <= 0.0

    def test_step_deterministic_argmax(self):
        ac = SlotScoringAC(seed=0)
        obs = np.random.default_rng(1).random(12)
        mask = np.ones(4)
        actions = {ac.step(obs, mask, deterministic=True)[0] for _ in range(5)}
        assert len(actions) == 1

    def test_masked_log_probs_are_normalized(self):
        ac = SlotScoringAC(seed=0)
        obs = np.random.default_rng(2).random((3, 12))
        mask = np.ones((3, 4))
        log_probs = ac.masked_log_probs(Tensor(obs), mask).numpy()
        np.testing.assert_allclose(np.exp(log_probs).sum(axis=1), np.ones(3), atol=1e-9)

    def test_masked_actions_get_zero_probability(self):
        ac = SlotScoringAC(seed=0)
        obs = np.random.default_rng(3).random((1, 12))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        probs = np.exp(ac.masked_log_probs(Tensor(obs), mask).numpy())[0]
        assert probs[2] == pytest.approx(0.0, abs=1e-12)
        assert probs[3] == pytest.approx(0.0, abs=1e-12)


def rollout_bandit(ac, ppo, episodes, rng):
    """One epoch of the slot-bandit: reward 1 for picking the max-feature slot."""
    buffer = TrajectoryBuffer(gamma=1.0, lam=1.0)
    correct = 0
    for _ in range(episodes):
        obs_matrix = rng.random((4, 3))
        flat = obs_matrix.reshape(-1)
        mask = np.ones(4)
        action, value, log_prob = ac.step(flat, mask, rng=rng)
        reward = 1.0 if action == int(np.argmax(obs_matrix[:, 0])) else 0.0
        correct += reward
        buffer.store(flat, mask, action, reward, value, log_prob)
        buffer.finish_path(0.0)
    stats = ppo.update(buffer.get())
    return correct / episodes, stats


class TestPPOLearning:
    def test_update_returns_stats(self):
        ac = SlotScoringAC(seed=0)
        ppo = PPO(ac, PPOConfig(policy_iterations=3, value_iterations=3), seed=0)
        rng = np.random.default_rng(0)
        accuracy, stats = rollout_bandit(ac, ppo, 16, rng)
        assert 0.0 <= accuracy <= 1.0
        assert stats.policy_iterations_run >= 0
        assert np.isfinite(stats.value_loss)

    def test_learns_slot_bandit(self):
        """PPO must clearly beat random guessing (25%) on a 4-armed contextual bandit."""
        ac = SlotScoringAC(seed=1)
        ppo = PPO(ac, PPOConfig(policy_iterations=25, value_iterations=10, target_kl=0.1), seed=1)
        rng = np.random.default_rng(1)
        first_accuracy, _ = rollout_bandit(ac, ppo, 64, rng)
        accuracy = first_accuracy
        for _ in range(20):
            accuracy, _ = rollout_bandit(ac, ppo, 64, rng)
        assert accuracy > max(0.45, first_accuracy)

    def test_value_loss_decreases(self):
        ac = SlotScoringAC(seed=2)
        ppo = PPO(ac, PPOConfig(policy_iterations=2, value_iterations=30), seed=2)
        rng = np.random.default_rng(2)
        _, first = rollout_bandit(ac, ppo, 64, rng)
        last = first
        for _ in range(5):
            _, last = rollout_bandit(ac, ppo, 64, rng)
        assert last.value_loss <= first.value_loss * 1.5

    def test_kl_early_stopping(self):
        ac = SlotScoringAC(seed=3)
        # Absurdly small KL budget: the update should stop almost immediately.
        ppo = PPO(ac, PPOConfig(policy_iterations=50, value_iterations=2, target_kl=1e-9), seed=3)
        rng = np.random.default_rng(3)
        _, stats = rollout_bandit(ac, ppo, 32, rng)
        assert stats.policy_iterations_run < 50


def bandit_data(episodes, seed):
    """One epoch of slot-bandit trajectories from a fresh agent, and that agent."""
    ac = SlotScoringAC(seed=seed)
    rng = np.random.default_rng(seed)
    buffer = TrajectoryBuffer(gamma=1.0, lam=1.0)
    for _ in range(episodes):
        obs_matrix = rng.random((4, 3))
        flat = obs_matrix.reshape(-1)
        mask = (rng.random(4) < 0.7).astype(np.float64)
        mask[rng.integers(4)] = 1.0
        action, value, log_prob = ac.step(flat, mask, rng=rng)
        reward = 1.0 if action == int(np.argmax(obs_matrix[:, 0])) else 0.0
        buffer.store(flat, mask, action, reward, value, log_prob)
        buffer.finish_path(0.0)
    return ac, buffer.get()


def in_process(monkeypatch):
    """Make :meth:`PPO.update` take its no-fork path: the actor loop in-process."""
    monkeypatch.setattr(
        ppo_module, "worker_context", lambda: multiprocessing.get_context("spawn")
    )


def policy_state(ppo):
    step, m, v = ppo.policy_optimizer.moments()
    weights = [p.data for p in ppo.actor_critic.policy_parameters()]
    values = [p.data for p in ppo.actor_critic.value_parameters()]
    return step, m, v, weights, values


def assert_bit_identical(a, b):
    for left, right in zip(a, b, strict=True):
        if isinstance(left, list):
            assert len(left) == len(right)
            for x, y in zip(left, right):
                assert (x is None and y is None) or x.tobytes() == y.tobytes()
        else:
            assert left == right


def test_blas_threads_reads_the_pinned_count():
    if blas_threads() is None:
        pytest.skip("numpy's BLAS thread count cannot be read here")
    source = str(Path(ppo_module.__file__).parents[2])
    probe = "from repro.rl.ipc import blas_threads; print(blas_threads())"
    counts = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=source, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        counts[threads] = result.stdout.strip()
    assert counts == {"1": "1", "2": "2"}


@pytest.mark.parametrize("threads", [2, None])
def test_update_stays_in_process_unless_blas_runs_one_thread(monkeypatch, threads):
    """Two processes of several BLAS threads each would oversubscribe the
    cores, so the actor is forked only where BLAS is seen to run one thread."""
    ac, data = bandit_data(16, seed=5)
    ppo = PPO(ac, PPOConfig(policy_iterations=3, value_iterations=2))
    monkeypatch.setattr(ppo_module, "blas_threads", lambda: threads)

    def no_fork(*args):
        raise AssertionError("the actor was forked")

    monkeypatch.setattr(PPO, "_fork_actor", no_fork)
    assert ppo.update(data).policy_iterations_run == 3


def test_policy_and_value_parameters_must_be_disjoint():
    class SharedTrunk(SlotScoringAC):
        def value_parameters(self):
            return self.value_net.parameters() + self.kernel.parameters()[:1]

    with pytest.raises(ValueError, match="must not share"):
        PPO(SharedTrunk(seed=0))


@pytest.mark.skipif(
    worker_context().get_start_method() != "fork", reason="the forked actor needs fork"
)
class TestForkedActor:
    """The actor loop runs in a forked child beside the critic's; what it
    sends back equals what the same loop computes in-process, bit for bit.

    Every test here makes :meth:`PPO.update` take the forked path whatever
    this process's BLAS thread count is.
    """

    @pytest.fixture(autouse=True)
    def forking(self, monkeypatch):
        monkeypatch.setattr(ppo_module, "blas_threads", lambda: 1)

    @pytest.mark.parametrize("config", [
        PPOConfig(policy_iterations=6, value_iterations=4),
        # A KL budget small enough that the early stop fires mid-way.
        PPOConfig(policy_iterations=40, value_iterations=3, target_kl=1e-3, policy_lr=1e-2),
    ], ids=["full", "kl-stop"])
    def test_forked_update_equals_in_process(self, monkeypatch, config):
        ac, data = bandit_data(48, seed=7)
        forked = PPO(ac, config)
        local = copy.deepcopy(forked)
        # Two updates each, so the second starts from the installed moments.
        forked_stats = [forked.update({k: v.copy() for k, v in data.items()}) for _ in range(2)]
        in_process(monkeypatch)
        local_stats = [local.update({k: v.copy() for k, v in data.items()}) for _ in range(2)]

        assert [repr(astuple(s)) for s in forked_stats] == [repr(astuple(s)) for s in local_stats]
        assert_bit_identical(policy_state(forked), policy_state(local))
        if config.target_kl < 0.01:
            assert 0 < forked_stats[0].policy_iterations_run < config.policy_iterations
        else:
            assert forked_stats[0].policy_iterations_run == config.policy_iterations
        assert forked.policy_optimizer.moments()[0] == sum(
            s.policy_iterations_run for s in forked_stats
        )

    def test_child_exception_is_reraised_with_its_type(self, monkeypatch):
        ac, data = bandit_data(16, seed=1)
        ppo = PPO(ac, PPOConfig(policy_iterations=4, value_iterations=2))
        calls = []
        real = PPO._policy_loss

        def failing(self, *args):
            calls.append(1)
            if len(calls) == 2:
                raise FloatingPointError("overflow in the second iteration")
            return real(self, *args)

        monkeypatch.setattr(PPO, "_policy_loss", failing)
        with pytest.raises(FloatingPointError, match="second iteration"):
            ppo.update(data)
        assert multiprocessing.active_children() == []

    def test_child_that_dies_without_sending_names_its_exit_code(self, monkeypatch):
        ac, data = bandit_data(16, seed=2)
        ppo = PPO(ac, PPOConfig(policy_iterations=2, value_iterations=2))
        monkeypatch.setattr(PPO, "_policy_loss", lambda self, *args: os._exit(3))
        with pytest.raises(RuntimeError, match="exited with code 3"):
            ppo.update(data)
        assert multiprocessing.active_children() == []

    def test_parent_side_exception_terminates_the_child(self, monkeypatch):
        ac, data = bandit_data(16, seed=3)
        ppo = PPO(ac, PPOConfig(policy_iterations=2, value_iterations=2))

        def failing_critic(self, *args):
            raise KeyError("critic")

        monkeypatch.setattr(PPO, "_value_iterations", failing_critic)
        with pytest.raises(KeyError, match="critic"):
            ppo.update(data)
        assert multiprocessing.active_children() == []

    def test_update_records_both_loops_inside_its_span(self):
        ac, data = bandit_data(24, seed=4)
        config = PPOConfig(policy_iterations=5, value_iterations=3)
        was_metrics, was_tracing = metrics_enabled(), tracing_enabled()
        get_metrics().reset()
        get_tracer().clear()
        enable_metrics()
        enable_tracing()
        try:
            stats = PPO(ac, config).update(data)
            events = get_tracer().events()
            registry = get_metrics()
            policy_hist = registry.histogram("ppo_policy_iteration_seconds").count
            value_hist = registry.histogram("ppo_value_iteration_seconds").count
            policy_total = registry.counter("ppo_policy_iterations_total").value
        finally:
            if not was_metrics:
                disable_metrics()
            if not was_tracing:
                disable_tracing()
            get_metrics().reset()
            get_tracer().clear()

        spans = {}
        for _phase, name, _cat, start, duration, pid, _args, _flow in events:
            spans.setdefault(name, []).append((start, start + duration, pid))
        (update_start, update_end, parent), = spans["ppo.update"]
        assert len(spans["ppo.policy_iteration"]) == stats.policy_iterations_run > 0
        assert len(spans["ppo.value_iteration"]) == config.value_iterations
        for start, end, pid in spans["ppo.policy_iteration"] + spans["ppo.value_iteration"]:
            assert update_start <= start <= end <= update_end
            assert pid == parent == os.getpid()
        assert policy_hist == policy_total == stats.policy_iterations_run
        assert value_hist == config.value_iterations

    def test_no_child_outlives_training(self):
        from tests.golden import corpus

        corpus.training_summary()
        assert multiprocessing.active_children() == []
