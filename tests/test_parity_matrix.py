"""Cross-config bit-parity matrix for the rollout stack (ISSUE 4).

The batch-invariant forward kernel (``repro.rl.autograd.invariant_matmul``)
plus the canonical episode-release order make every engine configuration
produce **bit-identical** results for the same lanes and seeds:

* ``vec[1]`` -- each lane of a multi-lane engine equals a standalone
  single-lane engine hosting the same environment and action rng, down to
  the stored value/log-prob floats;
* ``vec[16]`` vs ``pool(workers=w, lanes=16)`` for ``w`` in 1, 2, 3 --
  identical per-lane episode streams, identical epoch-buffer contents
  (including GAE advantages and returns), identical episode infos;
* one PPO training epoch on top of each engine yields bit-identical trained
  weights and epoch statistics.

Guarantee boundary (documented in docs/simulator.md "Determinism
contract"): no-steal pools equal the local engine bit for bit whenever each
lane runs at most one episode (``num_trajectories <= num_envs``, any worker
count) and at any episode count with one worker; stealing pools equal the
**local work-stealing engine** (``VecBackfillEnv(work_stealing=True)``) --
and therefore each other -- at any worker count and episode count (it is
the same scheduler over one shard).  Stealing remains a genuine scheduling
difference from the *no-steal* engines (a stolen second episode can
complete -- in canonical time -- before a slow lane's first, changing which
episodes are credited), and with stealing off and more episodes than
lanes, restart credits are granted per shard, so multi-worker pairings are
excluded there; per-lane streams and per-row floats still match everywhere.

The order oracle (:func:`assert_canonical_order`) shares nothing with the
scheduler: from the returned infos alone, a lane's decision clock at each
completion is the running sum of its ``episode_steps``, and the credited
stream of a fresh call must be sorted by ``(clock, lane)``.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.core import BackfillEnvironment, RLBackfillAgent, Trainer, TrainerConfig
from repro.core.observation import ObservationConfig
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
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.lane_pool import ProcessLanePool
from repro.rl.ppo import PPOConfig
from repro.rl.vec_env import VecBackfillEnv, clone_lane_envs


OBS_CONFIG = ObservationConfig(max_queue_size=16)
LANES = 16


@pytest.fixture(scope="module", autouse=True)
def observability_enabled():
    """Run the whole parity matrix with metrics AND tracing collection on.

    This is the subsystem's core determinism assertion: every counter
    increment and span record in the instrumented hot paths (simulator
    schedule passes, profile builds, engine phases, PPO update timing,
    worker-published shared-memory deltas) must leave trajectories, buffer
    contents, and trained weights bit-identical -- observability may watch
    the computation but never steer it.
    """
    was_metrics, was_tracing = metrics_enabled(), tracing_enabled()
    enable_metrics()
    enable_tracing()
    yield
    if not was_metrics:
        disable_metrics()
    if not was_tracing:
        disable_tracing()
    get_metrics().reset()
    get_tracer().clear()


def test_observability_collection_is_active(small_trace):
    """The fixture's switches genuinely collect during the matrix: a short
    rollout increments the global simulator counters and records spans."""
    passes = get_metrics().counter("sim_schedule_passes_total")
    before_passes = passes.value
    before_spans = get_tracer().recorded
    engine = VecBackfillEnv.from_template(make_training_env(small_trace), 2, seed=9)
    agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=9)
    engine.rollout(agent, 2, TrajectoryBuffer(), rngs=lane_rngs(2))
    assert passes.value > before_passes
    assert get_tracer().recorded > before_spans


def make_training_env(small_trace, seed=5):
    return BackfillEnvironment(
        small_trace,
        policy="FCFS",
        sequence_length=96,
        observation_config=OBS_CONFIG,
        seed=seed,
        training_pool_size=3,
        min_baseline_bsld=1.1,
    )


def lane_rngs(count, base=0):
    return [np.random.default_rng(base + i) for i in range(count)]


def buffer_arrays(buffer):
    """Raw stored contents, stacked -- compared bit for bit, never approx."""
    return {
        "observations": np.stack(buffer.observations),
        "masks": np.stack(buffer.masks),
        "actions": np.asarray(buffer.actions),
        "rewards": np.asarray(buffer.rewards),
        "values": np.asarray(buffer.values),
        "log_probs": np.asarray(buffer.log_probs),
        "advantages": np.asarray(buffer.advantages),
        "returns": np.asarray(buffer.returns),
    }


def assert_bit_identical(label, arrays, reference):
    assert set(arrays) == set(reference)
    for key in reference:
        assert np.array_equal(arrays[key], reference[key]), f"{label}: {key}"


def assert_canonical_order(label, infos):
    """The credited stream of one fresh call is sorted by (clock, lane)."""
    clock = defaultdict(int)
    keys = []
    for info in infos:
        clock[info["lane"]] += info["episode_steps"]
        keys.append((clock[info["lane"]], info["lane"]))
    assert keys == sorted(keys), label


class TestRolloutMatrix:
    """One sampled episode per lane across every engine configuration."""

    @pytest.fixture(scope="class")
    def reference(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        vec = VecBackfillEnv.from_template(
            make_training_env(small_trace), LANES, seed=11
        )
        buffer = TrajectoryBuffer()
        infos = vec.rollout(agent, LANES, buffer, rngs=lane_rngs(LANES))
        assert_canonical_order("vec[16]", infos)
        return {"agent": agent, "infos": infos, "arrays": buffer_arrays(buffer)}

    @pytest.mark.parametrize(
        "label, kwargs",
        [
            ("pool[w1]", dict(num_workers=1, work_stealing=False)),
            ("pool[w2]", dict(num_workers=2, work_stealing=False)),
            ("pool[w3]", dict(num_workers=3, work_stealing=False)),
        ],
    )
    def test_pool_configs_match_vec16_bit_for_bit(
        self, small_trace, reference, label, kwargs
    ):
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace), LANES, seed=11, **kwargs
        )
        with pool:
            buffer = TrajectoryBuffer()
            infos = pool.rollout(
                reference["agent"], LANES, buffer, rngs=lane_rngs(LANES)
            )
            arrays = buffer_arrays(buffer)
        assert_canonical_order(label, infos)
        assert infos == reference["infos"], label
        assert_bit_identical(label, arrays, reference["arrays"])

    def test_each_lane_matches_a_single_lane_engine(self, small_trace, reference):
        """The ``vec[1]`` row of the matrix: lane content is fully standalone.

        Every episode the 16-lane engine collected is reproduced bit for bit
        by a one-lane engine hosting the same (cloned) environment and the
        same action rng -- stored observations, masks, actions, rewards, and
        crucially the forward-pass floats (values, log-probs), which used to
        differ in the last ulp with batch size before the batch-invariant
        kernel.
        """
        agent = reference["agent"]
        segments = []
        offset = 0
        for info in reference["infos"]:
            steps = info["episode_steps"]
            segments.append((info["lane"], slice(offset, offset + steps), info))
            offset += steps
        assert offset == len(reference["arrays"]["actions"])

        for lane, segment, info in segments:
            # Rebuild the identical lane environment: clone_lane_envs is the
            # factory both engines share, so the same template seed and pool
            # seed reproduce lane `lane` exactly.
            envs = clone_lane_envs(make_training_env(small_trace), LANES, seed=11)
            single = VecBackfillEnv([envs[lane]])
            buffer = TrajectoryBuffer()
            single_infos = single.rollout(
                agent, 1, buffer, rngs=[np.random.default_rng(lane)]
            )
            arrays = buffer_arrays(buffer)
            for key in ("observations", "masks", "actions", "rewards", "values", "log_probs"):
                assert np.array_equal(
                    arrays[key], reference["arrays"][key][segment]
                ), f"lane {lane}: {key}"
            single_info = dict(single_infos[0])
            expected = dict(info)
            single_info.pop("lane")
            expected.pop("lane")
            assert single_info == expected


class TestStealingMatrix:
    """With stealing on, parity extends to more episodes than lanes.

    The reference row is not a pool at all: a *local* engine in
    work-stealing mode (``VecBackfillEnv(work_stealing=True)``) -- every lane
    always restarts, episodes credited in canonical
    ``(lane decision clock, lane)`` order, surplus banked -- the same
    scheduler the pools run, over one in-process shard.  Its stream is
    bit-identical to a stealing pool's at any worker count: a
    single-process ground truth for the stealing scheduler.
    """

    LANES, EPISODES = 8, 12

    @pytest.fixture(scope="class")
    def stealing_reference(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        engine = VecBackfillEnv.from_template(
            make_training_env(small_trace), self.LANES, seed=11, work_stealing=True
        )
        buffer = TrajectoryBuffer()
        infos = engine.rollout(
            agent, self.EPISODES, buffer, rngs=lane_rngs(self.LANES)
        )
        assert len(infos) == self.EPISODES
        assert_canonical_order("vec[8,steal]", infos)
        return {
            "agent": agent,
            "infos": infos,
            "arrays": buffer_arrays(buffer),
            "stats": engine.stats(),
        }

    def _collect_pool(self, small_trace, agent, **kwargs):
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace),
            self.LANES,
            seed=11,
            work_stealing=True,
            **kwargs,
        )
        with pool:
            buffer = TrajectoryBuffer()
            infos = pool.rollout(
                agent, self.EPISODES, buffer, rngs=lane_rngs(self.LANES)
            )
            return infos, buffer_arrays(buffer)

    @pytest.mark.parametrize(
        "label, kwargs",
        [
            ("w1", dict(num_workers=1)),
            ("w2", dict(num_workers=2)),
            ("w3", dict(num_workers=3)),
        ],
    )
    def test_stealing_pools_match_local_stealing_engine(
        self, small_trace, stealing_reference, label, kwargs
    ):
        """trajectories > lanes, stealing on: every pool configuration must
        reproduce the local stealing engine's credited episode stream and
        epoch-buffer floats bit for bit."""
        infos, arrays = self._collect_pool(
            small_trace, stealing_reference["agent"], **kwargs
        )
        assert_canonical_order(label, infos)
        assert infos == stealing_reference["infos"], label
        assert_bit_identical(label, arrays, stealing_reference["arrays"])

    def test_local_stealing_credits_exactly_the_quota(self, stealing_reference):
        """The local mode credits EPISODES episodes, never more, and banks
        any surplus as the pool does."""
        stats = stealing_reference["stats"]
        credited = len(stealing_reference["infos"])
        assert credited == self.EPISODES
        assert stats["episodes"] == credited + stats["steal_banked"]

    def test_stealing_flag_is_inert_for_deterministic_and_fixed_jobs(
        self, small_trace
    ):
        """Stealing only applies to sampled rollouts: deterministic mode (and
        fixed episode_jobs) must produce the exact fixed-assignment stream, so
        evaluation paths cannot be perturbed by the flag."""
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)

        def run(work_stealing):
            engine = VecBackfillEnv.from_template(
                make_training_env(small_trace),
                self.LANES,
                seed=11,
                work_stealing=work_stealing,
            )
            buffer = TrajectoryBuffer()
            infos = engine.rollout(
                agent,
                self.EPISODES,
                buffer,
                rngs=lane_rngs(self.LANES),
                deterministic=True,
            )
            return infos, buffer_arrays(buffer)

        plain_infos, plain_arrays = run(False)
        steal_infos, steal_arrays = run(True)
        assert steal_infos == plain_infos
        assert_bit_identical("deterministic", steal_arrays, plain_arrays)


class TestTrainedWeightMatrix:
    """A full PPO epoch: identical buffers must yield identical weights."""

    def test_post_epoch_weights_bit_identical_across_engines(self, small_trace):
        def train(backend, **kwargs):
            env = make_training_env(small_trace)
            agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
            config = TrainerConfig(
                epochs=1,
                trajectories_per_epoch=LANES,
                ppo=PPOConfig(policy_iterations=3, value_iterations=3),
                num_envs=LANES,
                backend=backend,
                work_stealing=False,
                **kwargs,
            )
            with Trainer(env, agent, config, seed=5) as trainer:
                stats = trainer.train_epoch(1)
            state = agent.state_dict()
            numeric = {
                key: getattr(stats, key)
                for key in (
                    "mean_episode_reward",
                    "mean_bsld",
                    "mean_baseline_bsld",
                    "mean_violations",
                    "steps",
                    "policy_loss",
                    "value_loss",
                    "approximate_kl",
                    "entropy",
                )
            }
            return numeric, state

        ref_stats, ref_state = train("local")
        for label, kwargs in [
            ("process[w1]", dict(num_workers=1)),
            ("process[w2]", dict(num_workers=2)),
            ("process[w3]", dict(num_workers=3)),
        ]:
            stats, state = train("process", **kwargs)
            assert stats == ref_stats, label
            for net in ref_state:
                for key in ref_state[net]:
                    assert np.array_equal(
                        state[net][key], ref_state[net][key]
                    ), f"{label}: {net}/{key}"
