"""Tests for the vectorized multi-environment rollout engine.

The two contracts that matter (see docs/simulator.md):

* **Serial parity** -- with one lane and a fixed seed, the vectorized engine
  produces bit-identical trajectories, rewards, buffer contents, and
  ``ScheduleMetrics`` to the serial ``Trainer.run_trajectory`` path.
* **Lane independence** -- the trajectory computed for a given job sequence
  does not depend on which lane index it occupies or what the other lanes
  are doing -- exactly, down to the forward-pass floats, because the policy
  runs through the batch-invariant matmul kernel.  (The full cross-config
  bit-parity matrix lives in ``tests/test_parity_matrix.py``.)
"""

import numpy as np
import pytest

from repro.core import BackfillEnvironment, RLBackfillAgent, Trainer, TrainerConfig
from repro.core.observation import ObservationConfig
from repro.prediction.predictors import UserEstimate
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.ppo import PPOConfig
from repro.rl.vec_env import VecBackfillEnv
from repro.workloads.sampling import sample_sequence


OBS_CONFIG = ObservationConfig(max_queue_size=16)


def make_env(small_trace, seed=5, **kwargs):
    return BackfillEnvironment(
        small_trace,
        policy="FCFS",
        sequence_length=96,
        observation_config=OBS_CONFIG,
        seed=seed,
        **kwargs,
    )


def make_trainer(small_trace, num_envs=1, seed=5):
    env = make_env(small_trace, seed=seed, training_pool_size=3, min_baseline_bsld=1.1)
    agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=seed)
    config = TrainerConfig(
        epochs=1,
        trajectories_per_epoch=4,
        ppo=PPOConfig(policy_iterations=5, value_iterations=5),
        num_envs=num_envs,
    )
    return Trainer(env, agent, config, seed=seed)


def opportunity_sequences(trace, count, length=96, seed=100):
    """Fixed job sequences that are guaranteed to have backfill opportunities."""
    probe = make_env(trace, seed=0)
    sequences = []
    attempt = seed
    while len(sequences) < count:
        candidate = sample_sequence(trace, length, seed=attempt)
        attempt += 1
        try:
            probe.reset(jobs=candidate)
        except ValueError:
            continue
        sequences.append(candidate)
    return sequences


class TestSerialParity:
    def test_n1_bit_identical_to_serial_path(self, small_trace):
        """The acceptance contract: N=1 engine == serial rollouts, bit for bit."""
        serial = make_trainer(small_trace)
        serial_buffer = TrajectoryBuffer()
        serial_infos = [serial.run_trajectory(serial_buffer) for _ in range(5)]
        serial_data = serial_buffer.get()

        vec = make_trainer(small_trace)
        vec_buffer = TrajectoryBuffer()
        vec_infos = vec.collect_rollouts(vec_buffer, 5)
        vec_data = vec_buffer.get()

        for key in serial_data:
            assert np.array_equal(serial_data[key], vec_data[key]), key
        assert [i["bsld"] for i in serial_infos] == [i["bsld"] for i in vec_infos]
        assert [i["episode_reward"] for i in serial_infos] == [
            i["episode_reward"] for i in vec_infos
        ]
        assert [i["episode_steps"] for i in serial_infos] == [
            i["episode_steps"] for i in vec_infos
        ]
        # The schedule itself must be identical, not just the statistics.
        assert serial.environment.last_result is not None
        assert vec.environment.last_result is not None
        assert (
            serial.environment.last_result.metrics == vec.environment.last_result.metrics
        )
        records = serial.environment.last_result.records
        vec_records = vec.environment.last_result.records
        assert [(r.job.job_id, r.start_time, r.end_time, r.backfilled) for r in records] == [
            (r.job.job_id, r.start_time, r.end_time, r.backfilled) for r in vec_records
        ]

    def test_train_epoch_n1_matches_serial_collection(self, small_trace):
        """A full epoch through the engine equals hand-collected statistics."""
        reference = make_trainer(small_trace)
        buffer = TrajectoryBuffer(
            gamma=reference.config.ppo.gamma, lam=reference.config.ppo.lam
        )
        infos = [reference.run_trajectory(buffer) for _ in range(4)]

        trainer = make_trainer(small_trace)
        stats = trainer.train_epoch(1)
        assert stats.mean_bsld == pytest.approx(
            float(np.mean([i["bsld"] for i in infos])), abs=0.0
        )
        assert stats.steps == len(buffer)


class TestLaneIndependence:
    def test_lane_permutation_invariance(self, small_trace):
        """Each sequence's trajectory is the same wherever its lane sits."""
        sequences = opportunity_sequences(small_trace, 3)
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=9)

        def run(order):
            envs = [make_env(small_trace, seed=50 + i) for i in range(3)]
            vec = VecBackfillEnv(envs)
            buffer = TrajectoryBuffer()
            infos = vec.rollout(
                agent,
                3,
                buffer,
                deterministic=True,
                episode_jobs=[sequences[i] for i in order],
            )
            by_sequence = {}
            for info in infos:
                by_sequence[order[info["lane"]]] = (
                    info["episode_steps"],
                    info["episode_reward"],
                    info["bsld"],
                )
            return by_sequence

        identity = run([0, 1, 2])
        permuted = run([2, 0, 1])
        assert identity == permuted

    def test_per_lane_rngs_keep_streams_independent(self, small_trace):
        """A stochastic lane's draws do not depend on the other lanes."""
        sequences = opportunity_sequences(small_trace, 2)
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=9)

        def run_lane0(companion_seed):
            envs = [make_env(small_trace, seed=50), make_env(small_trace, seed=60)]
            vec = VecBackfillEnv(envs)
            buffer = TrajectoryBuffer()
            rngs = [np.random.default_rng(1), np.random.default_rng(companion_seed)]
            infos = vec.rollout(agent, 2, buffer, rngs=rngs, episode_jobs=sequences)
            return next(i for i in infos if i["lane"] == 0)

        a = run_lane0(companion_seed=2)
        b = run_lane0(companion_seed=777)
        assert a["episode_reward"] == b["episode_reward"]
        assert a["episode_steps"] == b["episode_steps"]
        assert a["bsld"] == b["bsld"]


class TestVecBackfillEnv:
    def test_requires_lanes(self):
        with pytest.raises(ValueError):
            VecBackfillEnv([])

    def test_rejects_duplicate_lane_instances(self, small_trace):
        env = make_env(small_trace)
        with pytest.raises(ValueError):
            VecBackfillEnv([env, env])

    def test_rejects_mismatched_spaces(self, small_trace):
        env_a = make_env(small_trace)
        env_b = BackfillEnvironment(
            small_trace,
            policy="FCFS",
            sequence_length=96,
            observation_config=ObservationConfig(max_queue_size=8),
            seed=1,
        )
        with pytest.raises(ValueError):
            VecBackfillEnv([env_a, env_b])

    def test_from_template_builds_distinct_lanes(self, small_trace):
        env = make_env(small_trace)
        vec = VecBackfillEnv.from_template(env, 4, seed=3)
        assert vec.num_envs == 4
        assert vec.envs[0] is env
        assert len({id(e) for e in vec.envs}) == 4
        # Estimators must not be shared between lanes.
        assert len({id(e.estimator) for e in vec.envs}) == 4

    def test_rollout_validates_arguments(self, small_trace):
        env = make_env(small_trace)
        vec = VecBackfillEnv([env])
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=0)
        with pytest.raises(ValueError):
            vec.rollout(agent, 0, TrajectoryBuffer())
        with pytest.raises(ValueError):
            vec.rollout(agent, 2, TrajectoryBuffer(), rngs=[])
        with pytest.raises(ValueError):
            vec.rollout(agent, 2, TrajectoryBuffer(), episode_jobs=[[]])

    def test_more_lanes_than_trajectories(self, small_trace):
        env = make_env(small_trace, training_pool_size=2, min_baseline_bsld=1.1)
        vec = VecBackfillEnv.from_template(env, 4, seed=3)
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=0)
        buffer = TrajectoryBuffer()
        infos = vec.rollout(
            agent, 2, buffer, rngs=[np.random.default_rng(i) for i in range(4)]
        )
        assert len(infos) == 2
        assert buffer.num_complete == len(buffer) > 0


class TestDeferredEncoding:
    def test_deferred_step_matches_encoded_step(self, small_trace):
        sequences = opportunity_sequences(small_trace, 1)
        env_a = make_env(small_trace, seed=1)
        env_b = make_env(small_trace, seed=2)
        obs_a, mask_a = env_a.reset(jobs=sequences[0])
        obs_b, mask_b = env_b.reset(jobs=sequences[0])
        assert np.array_equal(obs_a, obs_b)
        rng = np.random.default_rng(0)
        for _ in range(20):
            action = int(rng.choice(np.flatnonzero(mask_a)))
            result_a = env_a.step(action)          # encoded eagerly
            result_b = env_b.step(action, encode=False)
            assert result_a.done == result_b.done
            assert result_a.reward == result_b.reward
            if result_a.done:
                break
            assert result_b.observation is None
            deferred = env_b.encode_observation()
            assert np.array_equal(result_a.observation, deferred)
            assert np.array_equal(result_a.mask, result_b.mask)
            mask_a = result_a.mask

    def test_pending_encode_requires_active_episode(self, small_trace):
        env = make_env(small_trace)
        with pytest.raises(RuntimeError):
            env.pending_encode()


class TestIdleLaneHandling:
    def test_finished_lanes_contribute_no_batch_rows(self, small_trace):
        """Retired lanes ride along in no encode or forward batch.

        Every forward-pass row must correspond to exactly one stored decision
        step, and a lane that exhausted the episode quota must never reappear
        in a later batch -- finished lanes are dropped, not padded or
        re-encoded until the epoch ends.
        """
        trainer = make_trainer(small_trace, num_envs=4)
        agent = trainer.agent
        forward_rows = 0
        original_step_batch = agent.step_batch

        def counting_step_batch(observations, masks, rngs=None, deterministic=False):
            nonlocal forward_rows
            forward_rows += observations.shape[0]
            return original_step_batch(
                observations, masks, rngs=rngs, deterministic=deterministic
            )

        agent.step_batch = counting_step_batch
        # Per-lane lifecycle machine: a step is only legal while an episode
        # is active (after a reset, before its done); stepping a lane whose
        # episode finished without a restart is the ride-along regression.
        lane_state = {lane: "idle" for lane in range(4)}
        violations = []
        for lane, env in enumerate(trainer.vec_env.envs):
            original_lane_step = env.step
            original_lane_reset = env.reset

            def tracking_step(action, encode=True, _lane=lane, _step=original_lane_step):
                if lane_state[_lane] != "active":
                    violations.append(("step-while-idle", _lane))
                result = _step(action, encode=encode)
                if result.done:
                    lane_state[_lane] = "idle"
                return result

            def tracking_reset(_lane=lane, _reset=original_lane_reset, **kwargs):
                lane_state[_lane] = "active"
                return _reset(**kwargs)

            env.step = tracking_step
            env.reset = tracking_reset
        try:
            buffer = TrajectoryBuffer()
            infos = trainer.collect_rollouts(buffer, 6)
        finally:
            agent.step_batch = original_step_batch
        total_steps = sum(info["episode_steps"] for info in infos)
        assert forward_rows == total_steps == len(buffer)
        assert violations == []
        # Every lane ends the epoch retired -- no episode left dangling.
        assert all(state == "idle" for state in lane_state.values())

    def test_restarted_lanes_share_the_batched_encode(self, small_trace):
        """Episode restarts must not fall back to batch-of-one encodes."""
        trainer = make_trainer(small_trace, num_envs=2)
        builder = trainer.vec_env.envs[0].builder
        batch_sizes = []
        original_encode = builder.encode_batch

        def counting_encode(items):
            batch_sizes.append(len(items))
            return original_encode(items)

        builder.encode_batch = counting_encode
        try:
            buffer = TrajectoryBuffer()
            infos = trainer.collect_rollouts(buffer, 4)
        finally:
            builder.encode_batch = original_encode
        assert len(infos) == 4
        # While both lanes run (including across restarts), encodes stay
        # batched; only the single-lane drain tail may encode one at a time.
        encoded_rows = sum(batch_sizes)
        assert encoded_rows == len(buffer)
        assert max(batch_sizes) == 2


class TestEnvironmentClone:
    def test_clone_is_independent(self, small_trace):
        env = make_env(small_trace, seed=1)
        clone = env.clone(seed=2)
        assert clone.estimator is not env.estimator
        assert clone.baseline_backfill is not env.baseline_backfill
        assert clone.observation_config == env.observation_config
        obs, mask = clone.reset()
        assert obs.shape == (env.observation_size,)
        assert mask.shape == (env.num_actions,)
        # The original is untouched by the clone's episode.
        assert env._generator is None


class TestStepBatch:
    def test_single_step_is_the_batch_of_one_case(self, small_trace):
        """``step`` must equal ``step_batch`` on a one-row batch, bit for bit."""
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=3)
        env = make_env(small_trace, seed=4)
        obs, mask = env.reset()
        actions, values, log_probs = agent.step_batch(
            obs[None, :], mask[None, :], rngs=[np.random.default_rng(7)]
        )
        action, value, log_prob = agent.step(obs, mask, rng=np.random.default_rng(7))
        assert int(actions[0]) == action
        assert float(values[0]) == value
        assert float(log_probs[0]) == log_prob

    def test_identical_rows_get_identical_actions(self, small_trace):
        """Within one batch, a row's output depends only on that row.

        The forward pass runs through the batch-invariant matmul kernel, so
        identical rows produce identical floats -- exactly, not to a
        tolerance (before the kernel, row-blocked BLAS could vary the last
        ulp with row position).
        """
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=3)
        env = make_env(small_trace, seed=4)
        obs, mask = env.reset()
        batch_obs = np.stack([obs, obs, obs])
        batch_mask = np.stack([mask, mask, mask])
        actions, values, log_probs = agent.step_batch(
            batch_obs, batch_mask, rngs=[np.random.default_rng(7) for _ in range(3)]
        )
        assert len(set(actions.tolist())) == 1
        assert values.tolist() == [values[0]] * 3
        assert log_probs.tolist() == [log_probs[0]] * 3

    def test_step_batch_rows_are_batch_invariant(self, small_trace):
        """``step_batch(rows[i:i+1])[·] == step_batch(rows)[·][i]`` bit for bit.

        The engine-parity contract at the forward-pass level: a row's
        action, value, and log-prob are independent of how many other lanes
        share the batch and of their contents.
        """
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=3)
        rng = np.random.default_rng(1)
        batch = 11
        obs = rng.random((batch, OBS_CONFIG.observation_size))
        mask = (rng.random((batch, OBS_CONFIG.num_actions)) < 0.5).astype(np.float64)
        mask[np.arange(batch), rng.integers(0, OBS_CONFIG.num_actions, batch)] = 1.0
        seeds = list(range(100, 100 + batch))
        actions, values, log_probs = agent.step_batch(
            obs, mask, rngs=[np.random.default_rng(s) for s in seeds]
        )
        for i in range(batch):
            single_a, single_v, single_lp = agent.step_batch(
                obs[i : i + 1], mask[i : i + 1], rngs=[np.random.default_rng(seeds[i])]
            )
            assert int(single_a[0]) == int(actions[i])
            assert float(single_v[0]) == float(values[i])
            assert float(single_lp[0]) == float(log_probs[i])

    def test_requires_per_row_rngs(self):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=3)
        obs = np.zeros((2, OBS_CONFIG.observation_size))
        mask = np.ones((2, OBS_CONFIG.num_actions))
        with pytest.raises(ValueError):
            agent.step_batch(obs, mask, rngs=[np.random.default_rng(0)])
        with pytest.raises(ValueError):
            agent.step_batch(obs[0], mask[0], rngs=None, deterministic=True)

    def test_deterministic_needs_no_rngs(self):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=3)
        obs = np.random.default_rng(0).random((4, OBS_CONFIG.observation_size))
        mask = np.ones((4, OBS_CONFIG.num_actions))
        actions, values, log_probs = agent.step_batch(obs, mask, deterministic=True)
        assert actions.shape == values.shape == log_probs.shape == (4,)

    def test_respects_action_mask(self):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=3)
        rng = np.random.default_rng(0)
        obs = rng.random((8, OBS_CONFIG.observation_size))
        mask = np.zeros((8, OBS_CONFIG.num_actions))
        valid = rng.integers(0, OBS_CONFIG.num_actions, size=8)
        mask[np.arange(8), valid] = 1.0
        actions, _, _ = agent.step_batch(
            obs, mask, rngs=[np.random.default_rng(i) for i in range(8)]
        )
        assert np.array_equal(actions, valid)


class TestBufferAbsorb:
    def _filled(self, steps=3, reward=1.0):
        buffer = TrajectoryBuffer()
        for _ in range(steps):
            buffer.store(np.zeros(4), np.ones(2), 0, reward, 0.5, -0.1)
        buffer.finish_path()
        return buffer

    def test_absorb_concatenates_and_clears(self):
        epoch = self._filled(steps=2, reward=1.0)
        lane = self._filled(steps=3, reward=2.0)
        epoch.absorb(lane)
        assert len(epoch) == 5
        assert epoch.num_complete == 5
        assert len(lane) == 0
        assert epoch.rewards == [1.0, 1.0, 2.0, 2.0, 2.0]

    def test_absorb_requires_finished_paths(self):
        epoch = self._filled()
        open_buffer = TrajectoryBuffer()
        open_buffer.store(np.zeros(4), np.ones(2), 0, 1.0, 0.5, -0.1)
        with pytest.raises(RuntimeError):
            epoch.absorb(open_buffer)

    def test_absorb_rejects_mismatched_hyperparameters(self):
        epoch = TrajectoryBuffer(gamma=1.0)
        other = TrajectoryBuffer(gamma=0.9)
        with pytest.raises(ValueError):
            epoch.absorb(other)

    def test_absorb_rejects_self(self):
        buffer = TrajectoryBuffer()
        with pytest.raises(ValueError):
            buffer.absorb(buffer)


class TestTrainerVectorized:
    def test_num_envs_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(num_envs=0)

    def test_multi_lane_training_epoch(self, small_trace):
        trainer = make_trainer(small_trace, num_envs=3)
        assert trainer.vec_env.num_envs == 3
        stats = trainer.train_epoch(1)
        assert stats.steps > 0
        assert np.isfinite(stats.mean_bsld)
        assert stats.mean_bsld >= 1.0

    def test_multi_lane_collection_counts_trajectories(self, small_trace):
        trainer = make_trainer(small_trace, num_envs=4)
        buffer = TrajectoryBuffer()
        infos = trainer.collect_rollouts(buffer, 7)
        assert len(infos) == 7
        assert buffer.num_complete == len(buffer)
        lanes = {info["lane"] for info in infos}
        assert lanes.issubset(set(range(4)))
        assert len(lanes) > 1
