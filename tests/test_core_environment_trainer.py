"""Tests for the backfilling RL environment, trainer, checkpoints, and RLBF strategy."""

import numpy as np
import pytest

from repro.core.agent import RLBackfillAgent
from repro.core.checkpoints import load_agent, save_agent
from repro.core.environment import BackfillEnvironment, RewardConfig
from repro.core.observation import ObservationConfig
from repro.core.rlbackfill import RLBackfillPolicy
from repro.core.trainer import Trainer, TrainerConfig, TrainingHistory
from repro.prediction.predictors import UserEstimate
from repro.rl.ppo import PPOConfig
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.simulator import Simulator
from repro.workloads.sampling import sample_sequence


@pytest.fixture
def obs_config():
    return ObservationConfig(max_queue_size=16)


@pytest.fixture
def environment(small_trace, obs_config):
    return BackfillEnvironment(
        small_trace,
        policy="FCFS",
        sequence_length=80,
        observation_config=obs_config,
        seed=0,
    )


class TestRewardConfig:
    def test_defaults(self):
        cfg = RewardConfig()
        assert cfg.delay_penalty <= 0

    def test_positive_penalty_rejected(self):
        with pytest.raises(ValueError):
            RewardConfig(delay_penalty=1.0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            RewardConfig(final_reward_scale=0.0)

    def test_invalid_min_final_reward(self):
        with pytest.raises(ValueError):
            RewardConfig(min_final_reward=1.0)


class TestEnvironment:
    def test_reset_returns_valid_observation(self, environment):
        observation, mask = environment.reset()
        assert observation.shape == (environment.observation_size,)
        assert mask.shape == (environment.num_actions,)
        assert mask.sum() >= 1

    def test_baseline_computed(self, environment):
        environment.reset()
        assert environment.baseline_bsld >= 1.0

    def test_full_episode_terminates(self, environment):
        observation, mask = environment.reset()
        rng = np.random.default_rng(0)
        for _ in range(5000):
            action = int(rng.choice(np.flatnonzero(mask)))
            result = environment.step(action)
            if result.done:
                assert "bsld" in result.info and result.info["bsld"] >= 1.0
                assert environment.last_result is not None
                break
            observation, mask = result.observation, result.mask
        else:
            pytest.fail("episode did not terminate")

    def test_intermediate_rewards_non_positive(self, environment):
        _, mask = environment.reset()
        rng = np.random.default_rng(1)
        for _ in range(50):
            action = int(rng.choice(np.flatnonzero(mask)))
            result = environment.step(action)
            if result.done:
                break
            # Intermediate rewards are 0 or the (negative) delay penalty.
            assert result.reward <= 0.0
            mask = result.mask

    def test_step_before_reset_raises(self, small_trace, obs_config):
        env = BackfillEnvironment(small_trace, observation_config=obs_config, seed=0)
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_invalid_action_raises(self, environment):
        _, mask = environment.reset()
        invalid = int(np.flatnonzero(mask == 0)[0]) if (mask == 0).any() else environment.num_actions - 1
        if mask[invalid] == 0:
            with pytest.raises(ValueError):
                environment.step(invalid)

    def test_explicit_sequence(self, environment, small_trace):
        jobs = sample_sequence(small_trace, 80, seed=2)
        observation, mask = environment.reset(jobs=jobs)
        assert mask.sum() >= 1

    def test_training_pool_reuses_sequences(self, small_trace, obs_config):
        env = BackfillEnvironment(
            small_trace,
            sequence_length=60,
            observation_config=obs_config,
            seed=0,
            training_pool_size=2,
        )
        for _ in range(4):
            env.reset()
        assert len(env._pool) == 2

    def test_min_baseline_filter(self, small_trace, obs_config):
        env = BackfillEnvironment(
            small_trace,
            sequence_length=60,
            observation_config=obs_config,
            seed=0,
            min_baseline_bsld=1.0,
        )
        env.reset()
        assert env.baseline_bsld >= 1.0

    def test_invalid_min_baseline(self, small_trace, obs_config):
        with pytest.raises(ValueError):
            BackfillEnvironment(
                small_trace, observation_config=obs_config, min_baseline_bsld=0.5
            )

    def test_delay_penalty_applied(self, small_trace, obs_config):
        penalised = RewardConfig(delay_penalty=-100.0)
        env = BackfillEnvironment(
            small_trace,
            sequence_length=80,
            observation_config=obs_config,
            reward_config=penalised,
            seed=3,
        )
        _, mask = env.reset()
        rng = np.random.default_rng(3)
        saw_penalty = False
        for _ in range(400):
            action = int(rng.choice(np.flatnonzero(mask)))
            result = env.step(action)
            if result.reward <= -100.0:
                saw_penalty = True
            if result.done:
                if env.episode_violations > 0:
                    assert saw_penalty
                break
            mask = result.mask

    def test_evaluate_baselines(self, environment, small_trace):
        jobs = sample_sequence(small_trace, 60, seed=4)
        baselines = environment.evaluate_baselines(jobs)
        assert set(baselines) == {"no-backfill", "easy", "easy-ar", "easy-sjf"}
        assert all(v >= 1.0 for v in baselines.values())


class TestRLBackfillPolicy:
    def test_plugs_into_simulator(self, small_trace, obs_config):
        agent = RLBackfillAgent(obs_config, seed=0)
        policy = RLBackfillPolicy(agent, seed=0)
        jobs = sample_sequence(small_trace, 100, seed=5)
        simulator = Simulator(small_trace.num_processors, policy="FCFS", estimator=UserEstimate())
        result = simulator.run(jobs, backfill=policy)
        assert len(result.records) == 100
        assert result.bsld >= 1.0

    def test_deterministic_evaluation_is_reproducible(self, small_trace, obs_config):
        agent = RLBackfillAgent(obs_config, seed=0)
        jobs = sample_sequence(small_trace, 100, seed=6)
        results = []
        for _ in range(2):
            simulator = Simulator(small_trace.num_processors, policy="FCFS")
            results.append(simulator.run(jobs, backfill=RLBackfillPolicy(agent)).bsld)
        assert results[0] == pytest.approx(results[1])

    def test_label_override(self, obs_config):
        agent = RLBackfillAgent(obs_config, seed=0)
        assert RLBackfillPolicy(agent, label="RL-X").name == "RL-X"


class TestTrainer:
    def _quick_config(self):
        return TrainerConfig(
            epochs=2,
            trajectories_per_epoch=2,
            ppo=PPOConfig(policy_iterations=3, value_iterations=3),
            seed=0,
        )

    def test_training_runs_and_reports(self, environment):
        agent = RLBackfillAgent(environment.observation_config, seed=0)
        trainer = Trainer(environment, agent, self._quick_config(), seed=0)
        history = trainer.train()
        assert len(history) == 2
        final = history.final()
        assert final.steps > 0
        assert final.mean_bsld >= 1.0
        assert final.mean_baseline_bsld >= 1.0
        assert np.isfinite(final.policy_loss)

    def test_epoch_publishes_training_health(self, environment, caplog):
        """KL, entropy, clip fraction, grad norm, explained variance and the
        collect/update seconds land in the registry and in one log line."""
        import logging

        from repro.obs import disable_metrics, enable_metrics, get_metrics, metrics_enabled

        agent = RLBackfillAgent(environment.observation_config, seed=0)
        trainer = Trainer(environment, agent, self._quick_config(), seed=0)
        was_enabled = metrics_enabled()
        enable_metrics()
        try:
            with caplog.at_level(logging.INFO, logger="repro.core.trainer"):
                stats = trainer.train_epoch(1)
            gauges = get_metrics().snapshot()["gauges"]
        finally:
            if not was_enabled:
                disable_metrics()
            get_metrics().reset()
        assert gauges["ppo_approximate_kl"] == stats.approximate_kl
        assert gauges["ppo_entropy"] == stats.entropy
        assert gauges["ppo_grad_norm"] > 0.0
        assert np.isfinite(gauges["ppo_explained_variance"])
        assert 0.0 <= gauges["ppo_clip_fraction"] <= 1.0
        assert gauges["train_collect_seconds"] > 0.0 and gauges["train_update_seconds"] > 0.0
        assert (
            gauges["train_collect_seconds"] + gauges["train_update_seconds"]
            <= stats.wall_time_seconds
        )
        health = [r.getMessage() for r in caplog.records if "health" in r.getMessage()]
        assert len(health) == 1
        assert "ppo_grad_norm=" in health[0] and "train_update_seconds=" in health[0]

    def test_history_helpers(self, environment):
        agent = RLBackfillAgent(environment.observation_config, seed=0)
        trainer = Trainer(environment, agent, self._quick_config(), seed=0)
        history = trainer.train()
        assert len(history.bslds) == 2
        assert len(history.rewards) == 2
        assert isinstance(history.improved(), bool)
        assert len(history.to_rows()) == 2

    def test_callback_invoked(self, environment):
        agent = RLBackfillAgent(environment.observation_config, seed=0)
        trainer = Trainer(environment, agent, self._quick_config(), seed=0)
        seen = []
        trainer.train(callback=seen.append)
        assert len(seen) == 2

    def test_agent_environment_mismatch_rejected(self, environment):
        wrong_agent = RLBackfillAgent(ObservationConfig(max_queue_size=4), seed=0)
        with pytest.raises(ValueError):
            Trainer(environment, wrong_agent, self._quick_config())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)

    def test_config_presets(self):
        assert TrainerConfig.paper_scale().trajectories_per_epoch == 100
        assert TrainerConfig.quick_scale().epochs < TrainerConfig.paper_scale().epochs

    def test_empty_history_final_raises(self):
        with pytest.raises(ValueError):
            TrainingHistory().final()


class TestCheckpoints:
    @pytest.mark.parametrize("num_resources", [1, 3])
    def test_save_load_round_trip(self, tmp_path, num_resources):
        """A checkpoint and the in-memory ``AgentBundle`` both restore the agent."""
        from repro.rl.autograd import Tensor
        from repro.scenarios.evaluate import AgentBundle

        config = ObservationConfig(max_queue_size=16, num_resources=num_resources)
        agent = RLBackfillAgent(config, seed=0)
        path = save_agent(agent, tmp_path / "model")
        obs = np.random.default_rng(0).random((2, config.observation_size))
        for loaded in (load_agent(path), AgentBundle.from_agent(agent).to_agent()):
            assert loaded.observation_config == config
            np.testing.assert_allclose(
                agent.policy_logits(Tensor(obs)).numpy(),
                loaded.policy_logits(Tensor(obs)).numpy(),
            )

    def test_load_restores_custom_architecture(self, tmp_path, obs_config):
        agent = RLBackfillAgent(obs_config, kernel_hidden=(8, 8), value_hidden=(16,), seed=0)
        path = save_agent(agent, tmp_path / "custom.npz")
        loaded = load_agent(path)
        assert loaded.num_parameters() == agent.num_parameters()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_agent(tmp_path / "nope.npz")

    def test_checkpoint_keys_are_qualified_paths(self, tmp_path, obs_config):
        """Format v2: every array is keyed by net and attribute path."""
        agent = RLBackfillAgent(obs_config, seed=0)
        path = save_agent(agent, tmp_path / "model")
        with np.load(path) as data:
            assert int(data["__format_version__"]) == 2
            assert "kernel/network.0.weight" in data.files
            assert "value/network.0.weight" in data.files

    def test_rejects_format_version_1_checkpoint(self, tmp_path, obs_config):
        """A format-1 checkpoint (flat-index keys) is no longer readable."""
        agent = RLBackfillAgent(obs_config, seed=3)
        arrays = {
            "__format_version__": np.array(1),
            "__max_queue_size__": np.array(obs_config.max_queue_size),
            "__job_features__": np.array(obs_config.job_features),
        }
        for i, param in enumerate(agent.kernel.parameters()):
            arrays[f"kernel/{i}"] = param.data.copy()
        path = tmp_path / "legacy.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="unsupported checkpoint format version 1"):
            load_agent(path)


class TestTrainedAgentSanity:
    def test_trained_agent_usable_in_table_evaluation(self, small_trace, obs_config):
        """End-to-end: train briefly, then evaluate through the simulator like Table 4."""
        env = BackfillEnvironment(
            small_trace,
            policy="FCFS",
            sequence_length=60,
            observation_config=obs_config,
            seed=1,
            training_pool_size=2,
        )
        agent = RLBackfillAgent(obs_config, seed=1)
        trainer = Trainer(
            env,
            agent,
            TrainerConfig(epochs=1, trajectories_per_epoch=2, ppo=PPOConfig(policy_iterations=2, value_iterations=2)),
            seed=1,
        )
        trainer.train()
        jobs = sample_sequence(small_trace, 80, seed=9)
        rl = Simulator(small_trace.num_processors, policy="FCFS").run(
            jobs, backfill=RLBackfillPolicy(agent)
        )
        easy = Simulator(small_trace.num_processors, policy="FCFS").run(jobs, backfill=EasyBackfill())
        assert rl.bsld >= 1.0 and easy.bsld >= 1.0
