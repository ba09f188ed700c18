"""The PPO fast path against its dense oracle (ISSUE 13).

``masked_log_probs`` scores only the unmasked ``(step, slot)`` rows and every
``Linear`` is one fused graph node.  The dense composition the fast path
replaced -- every slot scored, one graph node each for the matmul, the bias
add and the activation -- lives on here, as :class:`DenseOracleAgent`, and
only here: it is the reference the compacted path must equal bit for bit
on every valid entry.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RLBackfillAgent, Trainer, TrainerConfig
from repro.core.observation import ObservationConfig
from repro.rl.autograd import INVARIANT_ROW_BLOCK, Tensor, no_grad
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.nn import Linear
from repro.rl.ppo import MASK_PENALTY, PPO, PPOConfig, _sample_actions
from tests.test_parity_matrix import make_training_env
from tests.test_rl_autograd import check_gradient

OBS_CONFIG = ObservationConfig(max_queue_size=12)


def primitive_mlp(mlp, x):
    """``mlp(x)`` from primitive ops: matmul node, bias-add node, activation node."""
    for module in mlp.network:
        if isinstance(module, Linear):
            x = x.matmul_invariant(module.weight, row_block=module.row_block) + module.bias
        else:
            x = module(x)
    return x


class DenseOracleAgent(RLBackfillAgent):
    """Scores every slot of every step, masked or not, with primitive ops."""

    def compact_slots(self, observations, masks):
        penalty = (1.0 - np.asarray(masks, dtype=np.float64)) * -MASK_PENALTY
        return Tensor(observations), None, Tensor(penalty)

    def compacted_log_probs(self, observations, index, penalty):
        return (self.dense_logits(observations) + penalty).log_softmax(axis=-1)

    def dense_logits(self, observations):
        cfg = self.observation_config
        batch = observations.shape[0]
        per_job = observations.reshape(batch * cfg.max_queue_size, cfg.job_features)
        return primitive_mlp(self.kernel, per_job).reshape(batch, cfg.max_queue_size)

    def value(self, observations):
        return primitive_mlp(self.value_net, observations).reshape(observations.shape[0])


def dense_oracle_steps(oracle, observations, masks, rngs=None):
    """What ``step_batch`` returns, from the dense oracle's graph forward under ``no_grad``."""
    with no_grad():
        log_probs = oracle.masked_log_probs(Tensor(observations), masks).numpy()
        values = oracle.value(Tensor(observations)).numpy()
    actions = np.argmax(log_probs, axis=1) if rngs is None else _sample_actions(log_probs, rngs)
    return actions, values, log_probs[np.arange(len(actions)), actions]


def agent_pair(seed=0, config=OBS_CONFIG):
    """A fast-path agent and a dense oracle holding copies of the same weights."""
    agent = RLBackfillAgent(config, seed=seed)
    oracle = DenseOracleAgent(config, seed=seed)
    oracle.load_state_dict(copy.deepcopy(agent.state_dict()))
    return agent, oracle


def random_batch(rng, batch, config=OBS_CONFIG, all_masked_rows=()):
    observations = rng.normal(size=(batch, config.observation_size))
    masks = (rng.random((batch, config.num_actions)) < 0.15).astype(np.float64)
    masks[np.arange(batch), rng.integers(config.num_actions, size=batch)] = 1.0
    for row in all_masked_rows:
        masks[row] = 0.0
    return observations, masks


# -- (a) the two new graph nodes ------------------------------------------------


class TestFusedLinearNode:
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("row_block", [1, INVARIANT_ROW_BLOCK])
    @pytest.mark.parametrize("batch", [1, 5, INVARIANT_ROW_BLOCK + 3])
    def test_gradcheck_all_operands(self, relu, bias, row_block, batch):
        rng = np.random.default_rng(batch * 7 + row_block)
        x = rng.normal(size=(batch, 6))
        w = rng.normal(size=(6, 4))
        b = rng.normal(size=4)

        def node(x_t, w_t, b_t):
            out = x_t.linear(w_t, b_t if bias else None, relu=relu, row_block=row_block)
            return (out * out).sum()

        check_gradient(lambda t: node(t, Tensor(w), Tensor(b)), x.shape, seed=1)
        check_gradient(lambda t: node(Tensor(x), t, Tensor(b)), w.shape, seed=2)
        if bias:
            check_gradient(lambda t: node(Tensor(x), Tensor(w), t), b.shape, seed=3)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_primitive_composition(self, activation):
        """Forward floats and input gradients are bit-identical to the
        three-node chain; only the batch reductions (dW) may differ in
        rounding, and db not even that."""
        from repro.rl.nn import MLP

        rng = np.random.default_rng(4)
        x = rng.normal(size=(37, 10))
        upstream = rng.normal(size=(37, 1))
        results = []
        for forward in (lambda m, t: m(t), primitive_mlp):
            mlp = MLP([10, 32, 16, 1], activation=activation, seed=8)
            x_t = Tensor(x, requires_grad=True)
            out = forward(mlp, x_t)
            (out * Tensor(upstream)).sum().backward()
            results.append((out.numpy(), x_t.grad, [p.grad for p in mlp.parameters()]))
        (out, dx, grads), (ref_out, ref_dx, ref_grads) = results
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dx, ref_dx)
        for grad, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(grad, ref, rtol=1e-12, atol=1e-15)
            if grad.ndim == 1:
                assert np.array_equal(grad, ref)

    def test_relu_output_does_not_alias_parameters(self):
        layer = Linear(3, 2, seed=0)
        before = layer.bias.data.copy(), layer.weight.data.copy()
        layer(Tensor(np.ones((4, 3))), relu=True)
        assert np.array_equal(layer.bias.data, before[0])
        assert np.array_equal(layer.weight.data, before[1])


class TestScatterNode:
    def test_forward_places_values_and_zeros(self):
        t = Tensor(np.array([[1.5], [2.5], [3.5]]))
        out = t.scatter(np.array([1, 4, 5]), (2, 3)).numpy()
        assert np.array_equal(out, [[0.0, 1.5, 0.0], [0.0, 2.5, 3.5]])

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        index = np.array([0, 3, 7, 8, 11])
        weights = rng.normal(size=(3, 4))
        check_gradient(
            lambda t: (t.scatter(index, (3, 4)) * Tensor(weights)).log_softmax().sum(), (5, 1)
        )

    def test_backward_is_a_gather(self):
        t = Tensor(np.zeros((3, 1)), requires_grad=True)
        grid = np.arange(6.0).reshape(2, 3)
        (t.scatter(np.array([5, 0, 2]), (2, 3)) * Tensor(grid)).sum().backward()
        assert np.array_equal(t.grad, [[5.0], [0.0], [2.0]])

    def test_empty_index(self):
        out = Tensor(np.zeros((0, 1))).scatter(np.zeros(0, dtype=np.int64), (2, 2))
        assert np.array_equal(out.numpy(), np.zeros((2, 2)))


# -- (b) compaction is exact ---------------------------------------------------------


class LeafLogitsAgent(DenseOracleAgent):
    """Takes the dense logits themselves as input, so they can be a graph leaf."""

    def compacted_log_probs(self, logits, index, penalty):
        return (logits + penalty).log_softmax(axis=-1)


class TestCompactionIsExact:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 40))
    def test_log_probs_and_steps_match_dense_oracle(self, seed, batch):
        rng = np.random.default_rng(seed)
        agent, oracle = agent_pair(seed=seed % 7)
        observations, masks = random_batch(rng, batch)
        valid = masks > 0

        fast = agent.masked_log_probs(Tensor(observations), masks).numpy()
        dense = oracle.masked_log_probs(Tensor(observations), masks).numpy()
        assert np.array_equal(fast[valid], dense[valid])
        assert np.all(np.exp(fast[~valid]) == 0.0)

        def rngs():
            return [np.random.default_rng(seed + lane) for lane in range(batch)]

        for got, expected in zip(
            agent.step_batch(observations, masks, rngs=rngs()),
            dense_oracle_steps(oracle, observations, masks, rngs()),
        ):
            assert np.array_equal(got, expected)
        for got, expected in zip(
            agent.step_batch(observations, masks, deterministic=True),
            dense_oracle_steps(oracle, observations, masks),
        ):
            assert np.array_equal(got, expected)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_dense_logit_gradient_is_zero_at_masked_slots(self, seed):
        """The fact that makes compaction exact: under the full PPO policy
        loss, a masked slot's logit receives a gradient of exactly 0.0."""
        rng = np.random.default_rng(seed)
        _, oracle = agent_pair(seed=1)
        observations, masks = random_batch(rng, 24)
        actions, _, log_probs_old = oracle.step_batch(
            observations, masks, rngs=[np.random.default_rng(i) for i in range(24)]
        )
        logits = Tensor(oracle.dense_logits(Tensor(observations)).numpy(), requires_grad=True)
        one_hot = np.zeros(masks.shape)
        one_hot[np.arange(24), actions] = 1.0
        loss, _ = PPO(LeafLogitsAgent(OBS_CONFIG))._policy_loss(
            (logits, None, Tensor((1.0 - masks) * -MASK_PENALTY)),
            Tensor(one_hot),
            Tensor(rng.normal(size=24)),
            Tensor(log_probs_old + rng.normal(scale=0.1, size=24)),
        )
        loss.backward()
        assert np.all(logits.grad[masks == 0] == 0.0)
        assert np.any(logits.grad[masks > 0] != 0.0)

    def test_serial_row_block_site_is_compacted_too(self):
        from repro.core.rlbackfill import RLBackfillPolicy

        rng = np.random.default_rng(3)
        agent, oracle = agent_pair(seed=2)
        serial = RLBackfillPolicy(agent, row_block=1).agent
        serial_oracle = RLBackfillPolicy(oracle, row_block=1).agent
        for _ in range(5):
            observations, masks = random_batch(rng, 1)
            action, value, log_prob = dense_oracle_steps(serial_oracle, observations, masks)
            assert serial.step(observations[0], masks[0], deterministic=True) == (
                action[0], value[0], log_prob[0]
            )


# -- (d) the all-masked row ----------------------------------------------------------


class TestAllMaskedRow:
    """Never emitted by the environment (``mask.any()`` before every
    ``step``), but ``step`` / ``step_batch`` accept it."""

    def test_uniform_finite_log_probs(self):
        rng = np.random.default_rng(0)
        agent, _ = agent_pair()
        observations, masks = random_batch(rng, 4, all_masked_rows=(1, 3))
        log_probs = agent.masked_log_probs(Tensor(observations), masks).numpy()
        assert np.all(np.isfinite(log_probs))
        uniform = np.full(OBS_CONFIG.num_actions, -np.log(OBS_CONFIG.num_actions))
        np.testing.assert_allclose(log_probs[1], uniform, rtol=1e-12)
        np.testing.assert_allclose(log_probs[3], uniform, rtol=1e-12)
        np.testing.assert_allclose(np.exp(log_probs).sum(axis=1), 1.0, rtol=1e-12)

    def test_step_and_step_batch_stay_finite(self):
        rng = np.random.default_rng(1)
        agent, _ = agent_pair()
        observations = rng.normal(size=(3, OBS_CONFIG.observation_size))
        masks = np.zeros((3, OBS_CONFIG.num_actions))
        rngs = [np.random.default_rng(i) for i in range(3)]
        actions, values, log_probs = agent.step_batch(observations, masks, rngs=rngs)
        assert np.all((0 <= actions) & (actions < OBS_CONFIG.num_actions))
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(log_probs))
        action, value, log_prob = agent.step(observations[0], masks[0], deterministic=True)
        assert action == 0 and np.isfinite(value)
        assert log_prob == pytest.approx(-np.log(OBS_CONFIG.num_actions))


# -- (c) one full update against the dense oracle ------------------------------------


@pytest.fixture(scope="module")
def recorded_buffer(small_trace):
    """One epoch of real rollouts: the agent that collected them and ``buffer.get()``."""
    environment = make_training_env(small_trace)
    config = environment.observation_config
    agent = RLBackfillAgent(config, seed=5)
    buffer = TrajectoryBuffer()
    with Trainer(environment, agent, TrainerConfig(num_envs=4), seed=5) as trainer:
        trainer.collect_rollouts(buffer, 8)
    return agent, buffer.get()


class TestUpdateAgainstDenseOracle:
    def test_same_iterations_stats_and_weights(self, recorded_buffer):
        agent, data = recorded_buffer
        # A KL budget small enough that the early stop fires mid-way.
        config = PPOConfig(policy_iterations=30, value_iterations=12, target_kl=2e-5)
        fast = copy.deepcopy(agent)
        oracle = DenseOracleAgent(agent.observation_config)
        oracle.load_state_dict(agent.state_dict())

        fast_stats = PPO(fast, config).update({k: v.copy() for k, v in data.items()})
        oracle_stats = PPO(oracle, config).update({k: v.copy() for k, v in data.items()})

        assert 0 < fast_stats.policy_iterations_run < config.policy_iterations
        assert fast_stats.policy_iterations_run == oracle_stats.policy_iterations_run
        for name in (
            "policy_loss", "value_loss", "approximate_kl", "entropy", "clip_fraction",
            "grad_norm", "explained_variance",
        ):
            np.testing.assert_allclose(
                getattr(fast_stats, name), getattr(oracle_stats, name), rtol=1e-9, err_msg=name
            )
        fast_state, oracle_state = fast.state_dict(), oracle.state_dict()
        for net in fast_state:
            for key in fast_state[net]:
                np.testing.assert_allclose(
                    fast_state[net][key], oracle_state[net][key], rtol=1e-9, atol=1e-12,
                    err_msg=f"{net}/{key}",
                )
        assert any(
            not np.array_equal(fast_state["kernel"][key], agent.state_dict()["kernel"][key])
            for key in fast_state["kernel"]
        )

    def test_first_iteration_kl_is_exactly_zero(self, recorded_buffer):
        """The update's log-probs equal the rollout's bit for bit: both come
        from the one ``masked_log_probs`` and rows are batch-invariant."""
        agent, data = recorded_buffer
        stats = PPO(
            copy.deepcopy(agent), PPOConfig(policy_iterations=1, value_iterations=1)
        ).update(data)
        assert stats.policy_iterations_run == 1
        assert stats.approximate_kl == 0.0
        assert stats.clip_fraction == 0.0

    def test_health_stats(self, recorded_buffer):
        agent, data = recorded_buffer
        model = copy.deepcopy(agent)
        stats = PPO(model, PPOConfig(policy_iterations=2, value_iterations=2)).update(data)
        assert stats.grad_norm > 0.0 and np.isfinite(stats.grad_norm)
        values = agent.value(Tensor(data["observations"])).numpy()
        expected = 1.0 - np.var(data["returns"] - values) / np.var(data["returns"])
        assert stats.explained_variance == pytest.approx(expected, rel=1e-12)
