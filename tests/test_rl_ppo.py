"""Tests for the PPO implementation, including an end-to-end learning check."""

import numpy as np
import pytest

from repro.rl.autograd import Tensor
from repro.rl.buffer import TrajectoryBuffer
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
