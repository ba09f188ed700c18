"""Tests for the multiprocess rollout lane pool.

The acceptance contract (ISSUE 2, enforced here and documented in
``docs/simulator.md`` §4):

* **One-worker bit parity** -- a :class:`ProcessLanePool` with one worker and
  work stealing off performs exactly the same environment interactions, rng
  draws, encode batches, and forward-pass batch compositions as the
  in-process :class:`VecBackfillEnv`, so trajectories, buffer contents, and
  episode infos are bit-identical for the same seeds.  (Since ISSUE 4's
  batch-invariant forward kernel and canonical episode-release order, bit
  parity extends to any worker count -- the cross-config matrix is pinned in
  ``tests/test_parity_matrix.py``; this file keeps the strictest
  same-batch-composition case.)
* **Work stealing** -- draining lanes start next-epoch episodes; surplus
  completions and in-flight partial trajectories are banked and credited to
  the next rollout call, and every call still returns exactly the requested
  number of episodes.
* **Clean shutdown** -- workers exit and shared-memory segments are released
  on ``close()`` (idempotent, context-manager friendly), and worker errors
  propagate to the parent as exceptions instead of hangs.
* **Sampled episodes only** -- fixed ``episode_jobs`` are rejected with a
  typed error that leaves the pool usable; a lane failure mid-rollout
  re-raises with the local engine's exception type and poisons the pool.
"""

import os

import numpy as np
import pytest

from repro.core import BackfillEnvironment, RLBackfillAgent, Trainer, TrainerConfig
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.ipc import Field, FrameLayout, RingTimeout, ShmRing
from repro.rl.lane_pool import ProcessLanePool, make_rollout_engine
from repro.rl.ppo import PPOConfig
from repro.rl.vec_env import VecBackfillEnv
from repro.workloads.sampling import sample_sequence
from repro.workloads.job import Job, Trace
from tests.test_vec_env import OBS_CONFIG, make_env


def make_training_env(small_trace, seed=5):
    return make_env(small_trace, seed=seed, training_pool_size=3, min_baseline_bsld=1.1)


def lane_rngs(count, base=0):
    return [np.random.default_rng(base + i) for i in range(count)]


def opportunity_sequences(trace, count, length=96, seed=100):
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


class TestFrameLayoutAndRing:
    def test_layout_offsets_and_views(self):
        layout = FrameLayout(
            [Field("kind", (), "int64"), Field("obs", (2, 3), "float64")]
        )
        assert layout.nbytes == 8 + 48
        buffer = bytearray(layout.nbytes)
        views = layout.views(buffer, 0)
        views["kind"][...] = 7
        views["obs"][...] = np.arange(6).reshape(2, 3)
        again = layout.views(buffer, 0)
        assert int(again["kind"]) == 7
        assert np.array_equal(again["obs"], np.arange(6).reshape(2, 3))

    def test_layout_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            FrameLayout([])
        with pytest.raises(ValueError):
            FrameLayout([Field("x", ()), Field("x", ())])

    def test_ring_roundtrip_same_process(self):
        import multiprocessing

        ctx = multiprocessing.get_context()
        layout = FrameLayout([Field("value", (4,), "float64")])
        ring = ShmRing(layout, capacity=2, ctx=ctx)
        try:
            ring.push({"value": np.arange(4.0)})
            ring.push({"value": np.arange(4.0) * 2})
            first = ring.pop(timeout=1.0)
            second = ring.pop(timeout=1.0)
            assert np.array_equal(first["value"], np.arange(4.0))
            assert np.array_equal(second["value"], np.arange(4.0) * 2)
        finally:
            ring.close()

    def test_failed_push_returns_its_slot(self):
        """A push whose write raises publishes nothing and must not keep the
        slot: on a capacity-1 ring the next push would otherwise never find
        a free one."""
        import multiprocessing

        layout = FrameLayout([Field("a", (2,), "float64")])
        ring = ShmRing(layout, capacity=1, ctx=multiprocessing.get_context())
        try:
            with pytest.raises(KeyError, match="bogus"):
                ring.push({"bogus": 1})
            with pytest.raises(ValueError):
                ring.push({"a": np.zeros(3)})
            ring.push({"a": np.arange(2.0)}, timeout=0.2)
            with pytest.raises(RingTimeout):
                ring.push({"a": np.zeros(2)}, timeout=0.05)
            assert np.array_equal(ring.pop(timeout=1.0)["a"], np.arange(2.0))
        finally:
            ring.close()


class TestOneWorkerParity:
    def test_bit_identical_to_local_engine(self, small_trace):
        """The acceptance contract: 1-worker pool == VecBackfillEnv, bit for bit."""
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)

        local = VecBackfillEnv.from_template(make_training_env(small_trace), 4, seed=11)
        local_buffer = TrajectoryBuffer()
        local_infos = local.rollout(agent, 6, local_buffer, rngs=lane_rngs(4))
        local_data = local_buffer.get()

        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 4, seed=11, num_workers=1, work_stealing=False
        )
        with pool:
            pool_buffer = TrajectoryBuffer()
            pool_infos = pool.rollout(agent, 6, pool_buffer, rngs=lane_rngs(4))
            pool_data = pool_buffer.get()

        for key in local_data:
            assert np.array_equal(local_data[key], pool_data[key]), key
        assert len(local_infos) == len(pool_infos) == 6
        for local_info, pool_info in zip(local_infos, pool_infos):
            assert local_info == pool_info

    def test_trainer_epoch_parity(self, small_trace):
        """A full training epoch (rollout + PPO update) matches the local backend."""

        def stats_for(backend):
            env = make_training_env(small_trace)
            agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
            config = TrainerConfig(
                epochs=1,
                trajectories_per_epoch=4,
                ppo=PPOConfig(policy_iterations=5, value_iterations=5),
                num_envs=3,
                backend=backend,
                num_workers=1,
                work_stealing=False,
            )
            with Trainer(env, agent, config, seed=5) as trainer:
                return trainer.train_epoch(1)

        local, process = stats_for("local"), stats_for("process")
        assert local.mean_bsld == process.mean_bsld
        assert local.mean_episode_reward == process.mean_episode_reward
        assert local.steps == process.steps
        assert local.policy_loss == process.policy_loss
        assert local.value_loss == process.value_loss


class TestWorkStealing:
    def test_exact_episode_counts_with_bank_and_inflight(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 4, seed=11, num_workers=2, work_stealing=True
        )
        with pool:
            first = TrajectoryBuffer()
            infos_1 = pool.rollout(agent, 3, first, rngs=lane_rngs(4))
            assert len(infos_1) == 3
            assert first.num_complete == len(first) > 0
            # Stealing keeps every lane hot: all four are mid-episode when the
            # call returns, and any surplus completions sit in the bank.
            assert pool.pending_inflight_lanes == 4
            assert pool.pending_banked_episodes >= 0

            second = TrajectoryBuffer()
            infos_2 = pool.rollout(agent, 3, second, rngs=lane_rngs(4, base=10))
            assert len(infos_2) == 3
            assert second.num_complete == len(second) > 0
            # Each call's buffer holds exactly the steps of the episodes it
            # credited -- banked/in-flight steps never leak between buffers.
            assert len(first) == sum(info["episode_steps"] for info in infos_1)
            assert len(second) == sum(info["episode_steps"] for info in infos_2)

    def test_bank_can_fully_serve_a_small_call(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 4, seed=11, num_workers=1, work_stealing=True
        )
        with pool:
            scratch = TrajectoryBuffer()
            pool.rollout(agent, 6, scratch, rngs=lane_rngs(4))
            banked = pool.pending_banked_episodes
            buffer = TrajectoryBuffer()
            infos = pool.rollout(agent, 1, buffer, rngs=lane_rngs(4))
            assert len(infos) == 1
            assert buffer.num_complete == len(buffer) == infos[0]["episode_steps"]
            if banked:
                # Fully served from the bank: no new episode was consumed.
                assert pool.pending_banked_episodes == banked - 1

    def test_evaluation_with_other_gamma_lam_after_stealing_rollout(self, small_trace):
        """An argmax evaluation with different gamma/lam follows a stealing
        rollout: the in-flight stolen episodes are discarded, not a crash."""
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 2, seed=11, num_workers=1, work_stealing=True
        )
        with pool:
            training = TrajectoryBuffer(gamma=0.99, lam=0.95)
            pool.rollout(agent, 2, training, rngs=lane_rngs(2))
            assert pool.pending_inflight_lanes == 2
            banked = pool.pending_banked_episodes
            evaluation = TrajectoryBuffer()  # gamma=lam=1.0
            if banked:
                # Banked finished episodes genuinely pin gamma/lam; the
                # refusal comes before any round, so the pool stays usable.
                with pytest.raises(ValueError, match="gamma/lam"):
                    pool.rollout(agent, 2, evaluation, deterministic=True)
                pool.rollout(agent, 2, TrajectoryBuffer(gamma=0.99, lam=0.95), rngs=lane_rngs(2))
            else:
                infos = pool.rollout(agent, 2, evaluation, deterministic=True)
                assert len(infos) == 2
                assert evaluation.num_complete == len(evaluation) > 0

    def test_deterministic_rollout_isolated_from_stolen_stochastic_work(
        self, small_trace
    ):
        """Deterministic evaluation neither credits nor extends banked/in-flight
        stochastic episodes, and leaves the bank intact for the next training
        call."""
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 3, seed=11, num_workers=1, work_stealing=True
        )
        with pool:
            training = TrajectoryBuffer()
            pool.rollout(agent, 3, training, rngs=lane_rngs(3))
            banked = pool.pending_banked_episodes
            assert pool.pending_inflight_lanes == 3

            evaluation = TrajectoryBuffer()
            infos = pool.rollout(agent, 2, evaluation, deterministic=True)
            assert len(infos) == 2
            assert pool.pending_banked_episodes == banked
            assert len(evaluation) == sum(info["episode_steps"] for info in infos)

            resumed = TrajectoryBuffer()
            infos = pool.rollout(agent, 3, resumed, rngs=lane_rngs(3, base=10))
            assert len(infos) == 3
            assert len(resumed) == sum(info["episode_steps"] for info in infos)

    def test_episode_jobs_are_rejected_and_leave_the_pool_usable(self, small_trace):
        """The pool serves sampled rollouts: fixed sequences raise a typed
        error naming the in-process engine, before any frame is pushed."""
        sequences = opportunity_sequences(small_trace, 2)
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=9)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 2, seed=11, num_workers=2
        )
        with pool:
            with pytest.raises(ValueError, match="VecBackfillEnv"):
                pool.rollout(
                    agent, 2, TrajectoryBuffer(), deterministic=True, episode_jobs=sequences
                )
            buffer = TrajectoryBuffer()
            infos = pool.rollout(agent, 2, buffer, rngs=lane_rngs(2))
            assert len(infos) == 2
            assert len(buffer) == sum(info["episode_steps"] for info in infos)


class TestLifecycle:
    def test_close_is_idempotent_and_kills_workers(self, small_trace):
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 2, seed=3, num_workers=2
        )
        processes = list(pool._processes)
        assert all(process.is_alive() for process in processes)
        pool.close()
        pool.close()
        assert not any(process.is_alive() for process in processes)
        with pytest.raises(RuntimeError):
            pool.rollout(
                RLBackfillAgent(observation_config=OBS_CONFIG, seed=0),
                1,
                TrajectoryBuffer(),
                rngs=lane_rngs(2),
            )

    def test_lane_failure_reraises_and_poisons_the_pool(self):
        """A lane whose reset cannot find a sequence with backfilling
        opportunities fails the rollout with the local engine's exception
        type; frames may be in flight, so the pool refuses further calls."""
        # One tiny job at a time on a large machine: nothing ever queues, so
        # no sampled sequence has a backfilling opportunity.
        idle_trace = Trace.from_jobs(
            "idle",
            64,
            [
                Job(job_id=i, submit_time=1000.0 * i, runtime=10.0,
                    requested_processors=1, requested_time=20.0)
                for i in range(200)
            ],
        )

        def lanes():
            return [
                BackfillEnvironment(
                    idle_trace, policy="FCFS", sequence_length=32,
                    observation_config=OBS_CONFIG, seed=seed, max_reset_attempts=2,
                )
                for seed in (1, 2)
            ]

        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        with pytest.raises(RuntimeError, match="after 2 attempts"):
            VecBackfillEnv(lanes()).rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(2))
        pool = ProcessLanePool(lanes(), num_workers=1)
        with pool:
            with pytest.raises(RuntimeError, match="lane 0 command failed.*RuntimeError"):
                pool.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(2))
            with pytest.raises(RuntimeError, match="desynchronized"):
                pool.rollout(agent, 1, TrajectoryBuffer(), rngs=lane_rngs(2))

    def test_worker_death_between_calls_recovers_by_default(self, small_trace):
        """With respawn on (the default), a worker killed while the pool is
        idle is rebuilt via deterministic replay at the next call's entry."""
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 4, seed=11, num_workers=2
        )
        with pool:
            pool.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(4))
            pool._processes[0].kill()
            pool._processes[0].join(timeout=5.0)
            infos = pool.rollout(agent, 4, TrajectoryBuffer(), rngs=lane_rngs(4))
            assert len(infos) == 4
            assert pool.stats()["respawns"] == 1

    def test_shared_memory_released_after_close(self, small_trace):
        pool = ProcessLanePool([make_env(small_trace, seed=1)], num_workers=1)
        names = [ring.name for ring in (*pool._cmd_rings, *pool._res_rings)]
        pool.close()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name.lstrip('/')}")


    def test_dropping_the_last_reference_tears_the_pool_down(self, small_trace):
        """The finalizer runs when the pool is dropped, without a close() and
        without waiting for a cyclic garbage collection."""
        pool = ProcessLanePool([make_env(small_trace, seed=1)], num_workers=1)
        names = [ring.name for ring in (*pool._cmd_rings, *pool._res_rings)]
        process = pool._processes[0]
        del pool
        assert not process.is_alive()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name.lstrip('/')}")


class TestValidationAndFactory:
    def test_rejects_bad_lane_sets(self, small_trace):
        env = make_env(small_trace)
        with pytest.raises(ValueError):
            ProcessLanePool([])
        with pytest.raises(ValueError):
            ProcessLanePool([env, env])

    def test_requires_deferred_encoding_envs(self):
        class Opaque:
            observation_size = 4
            num_actions = 2

        with pytest.raises(TypeError):
            ProcessLanePool([Opaque()])

    def test_rollout_validates_arguments(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=0)
        pool = ProcessLanePool([make_env(small_trace, seed=1)], num_workers=1)
        with pool:
            with pytest.raises(ValueError):
                pool.rollout(agent, 0, TrajectoryBuffer())
            with pytest.raises(ValueError):
                pool.rollout(agent, 2, TrajectoryBuffer(), rngs=[])
            with pytest.raises(ValueError):
                pool.rollout(agent, 2, TrajectoryBuffer(), episode_jobs=[[]])

    def test_make_rollout_engine_backends(self, small_trace):
        env = make_training_env(small_trace)
        engine = make_rollout_engine(env, 2, seed=3, backend="local")
        assert isinstance(engine, VecBackfillEnv)
        pool = make_rollout_engine(
            make_training_env(small_trace), 2, seed=3, backend="process", num_workers=1
        )
        try:
            assert isinstance(pool, ProcessLanePool)
            assert pool.num_envs == 2
            assert pool.observation_size == env.observation_size
            assert pool.num_actions == env.num_actions
        finally:
            pool.close()
        with pytest.raises(ValueError):
            make_rollout_engine(env, 2, backend="threads")

    def test_stats_keys_match_across_engines(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        local = VecBackfillEnv.from_template(make_training_env(small_trace), 2, seed=3)
        local.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(2))
        local_stats = local.stats()
        assert local_stats["engine"] == "local"
        assert local_stats["decisions"] > 0
        assert local_stats["rollout_s"] > 0

        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 2, seed=3, num_workers=1
        )
        with pool:
            pool.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(2))
            pool_stats = pool.stats()
        assert list(pool_stats) == list(local_stats)
        assert pool_stats["engine"] == "process"
        assert pool_stats["decisions"] > 0
        assert 0.0 <= pool_stats["worker_idle_fraction"] <= 1.0

    def test_trainer_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(backend="threads")
        with pytest.raises(ValueError):
            TrainerConfig(num_workers=0)

    def test_shard_partition_is_contiguous_and_complete(self, small_trace):
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), 5, seed=3, num_workers=2
        )
        with pool:
            assert pool.shards[0][0] == 0
            assert pool.shards[-1][1] == 5
            for (_, hi), (lo, _) in zip(pool.shards, pool.shards[1:]):
                assert hi == lo
