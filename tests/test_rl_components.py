"""Tests for NN modules, optimizers, the trajectory buffer, and running stats."""

import numpy as np
import pytest

from repro.rl.autograd import Tensor
from repro.rl.buffer import TrajectoryBuffer, discount_cumsum
from repro.rl.nn import MLP, Linear, Module, ReLU, Sequential, Tanh
from repro.rl.optim import SGD, Adam
from repro.rl.running_stat import RunningMeanStd


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 3, seed=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_parameters(self):
        layer = Linear(4, 3, seed=0)
        assert len(layer.parameters()) == 2
        assert layer.num_parameters() == 4 * 3 + 3

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, seed=0)
        assert len(layer.parameters()) == 1

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_deterministic_init(self):
        a = Linear(4, 3, seed=7).weight.numpy()
        b = Linear(4, 3, seed=7).weight.numpy()
        np.testing.assert_allclose(a, b)


class TestMLP:
    def test_forward_shape(self):
        mlp = MLP([6, 8, 2], seed=0)
        assert mlp(Tensor(np.ones((3, 6)))).shape == (3, 2)

    def test_activations(self):
        for activation in ("tanh", "relu"):
            mlp = MLP([4, 4, 1], activation=activation, seed=0)
            assert mlp(Tensor(np.ones((2, 4)))).shape == (2, 1)

    def test_unknown_activation(self):
        with pytest.raises(KeyError):
            MLP([4, 1], activation="sigmoid")

    def test_too_few_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_parameter_count(self):
        mlp = MLP([4, 8, 2], seed=0)
        assert mlp.num_parameters() == (4 * 8 + 8) + (8 * 2 + 2)

    def test_gradients_flow_to_all_parameters(self):
        mlp = MLP([4, 8, 1], seed=0)
        loss = mlp(Tensor(np.random.default_rng(0).normal(size=(5, 4)))).sum()
        loss.backward()
        assert all(p.grad is not None for p in mlp.parameters())

    def test_state_dict_round_trip(self):
        a = MLP([4, 6, 2], seed=0)
        b = MLP([4, 6, 2], seed=1)
        b.load_state_dict(a.state_dict())
        x = Tensor(np.ones((2, 4)))
        np.testing.assert_allclose(a(x).numpy(), b(x).numpy())

    def test_state_dict_shape_mismatch(self):
        a = MLP([4, 6, 2], seed=0)
        b = MLP([4, 8, 2], seed=0)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_sequential_iteration(self):
        seq = Sequential(Linear(2, 2, seed=0), Tanh(), ReLU())
        assert len(seq) == 3
        assert isinstance(list(seq)[1], Tanh)


class TestQualifiedStateDict:
    """State dicts key parameters by attribute path, not flat index."""

    def test_mlp_keys_are_qualified_paths(self):
        mlp = MLP([4, 6, 2], seed=0)
        assert list(mlp.state_dict()) == [
            "network.0.weight",
            "network.0.bias",
            "network.2.weight",
            "network.2.bias",
        ]

    def test_named_parameters_order_matches_parameters(self):
        mlp = MLP([4, 6, 2], seed=0)
        named = mlp.named_parameters()
        assert [param for _, param in named] == mlp.parameters()

    def test_attribute_order_cannot_scramble_a_load(self):
        """Same parameter count and shapes, different attribute layout.

        With flat-index keys this silently loaded ``first``'s weights into
        ``second`` (the checkpoint-into-the-wrong-layers bug); qualified
        paths map each array to its named layer regardless of the order the
        attributes were defined in.
        """

        class Forward(Module):
            def __init__(self, seed):
                self.first = Linear(3, 3, seed=seed)
                self.second = Linear(3, 3, seed=seed + 1)

            def forward(self, x):
                return self.second(self.first(x))

        class Backward(Module):
            def __init__(self, seed):
                self.second = Linear(3, 3, seed=seed + 1)
                self.first = Linear(3, 3, seed=seed)

            def forward(self, x):
                return self.second(self.first(x))

        source = Forward(seed=0)
        target = Backward(seed=7)
        target.load_state_dict(source.state_dict())
        np.testing.assert_array_equal(
            target.first.weight.numpy(), source.first.weight.numpy()
        )
        np.testing.assert_array_equal(
            target.second.weight.numpy(), source.second.weight.numpy()
        )
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        np.testing.assert_array_equal(source(x).numpy(), target(x).numpy())

    def test_missing_and_unexpected_keys_are_reported(self):
        mlp = MLP([4, 6, 2], seed=0)
        state = mlp.state_dict()
        state["network.4.weight"] = state.pop("network.2.weight")
        with pytest.raises(ValueError, match="network.2.weight"):
            mlp.load_state_dict(state)
        with pytest.raises(ValueError, match="network.4.weight"):
            mlp.load_state_dict(state)

    def test_index_keyed_state_dict_is_rejected(self):
        """Flat-index keys (the pre-path format) are just unexpected keys now."""
        mlp = MLP([4, 6, 2], seed=0)
        legacy = {str(i): p.data.copy() for i, p in enumerate(mlp.parameters())}
        with pytest.raises(ValueError, match="unexpected"):
            mlp.load_state_dict(legacy)

    def test_shared_tensor_appears_once(self):
        class Tied(Module):
            def __init__(self):
                self.embed = Linear(4, 4, bias=False, seed=0)
                self.tied = self.embed.weight  # same tensor, second path

            def forward(self, x):
                return self.embed(x)

        module = Tied()
        assert len(module.parameters()) == 1
        assert list(module.state_dict()) == ["embed.weight"]


class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([1.0, -2.0, 3.0])
        param = Tensor(np.zeros(3), requires_grad=True)
        return param, target

    def test_sgd_reduces_loss(self):
        param, target = self._quadratic_problem()
        opt = SGD([param], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = ((param - Tensor(target)) ** 2).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-3)

    def test_sgd_momentum(self):
        param, target = self._quadratic_problem()
        opt = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            ((param - Tensor(target)) ** 2).sum().backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_adam_reduces_loss(self):
        param, target = self._quadratic_problem()
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            ((param - Tensor(target)) ** 2).sum().backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_lr(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([param], lr=0.0)

    def test_non_grad_parameter_rejected(self):
        with pytest.raises(ValueError):
            Adam([Tensor(np.zeros(2))], lr=0.1)

    def test_clip_grad_norm(self):
        param = Tensor(np.zeros(4), requires_grad=True)
        opt = SGD([param], lr=0.1)
        (param * 100.0).sum().backward()
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(200.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)

    def test_step_skips_parameters_without_grad(self):
        param = Tensor(np.ones(2), requires_grad=True)
        Adam([param], lr=0.1).step()  # no backward yet, must not crash
        np.testing.assert_allclose(param.data, np.ones(2))


class TestDiscountCumsum:
    def test_gamma_one_is_reverse_cumsum(self):
        values = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(discount_cumsum(values, 1.0), [6.0, 5.0, 3.0])

    def test_gamma_zero_is_identity(self):
        values = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(discount_cumsum(values, 0.0), values)

    def test_discounting(self):
        values = np.array([1.0, 1.0])
        np.testing.assert_allclose(discount_cumsum(values, 0.5), [1.5, 1.0])


class TestTrajectoryBuffer:
    def _fill_episode(self, buffer, rewards, values=None):
        values = values if values is not None else [0.0] * len(rewards)
        for i, (r, v) in enumerate(zip(rewards, values)):
            buffer.store(np.zeros(3), np.ones(2), i % 2, r, v, -0.5)
        buffer.finish_path(0.0)

    def test_store_and_len(self):
        buffer = TrajectoryBuffer()
        self._fill_episode(buffer, [0.0, 0.0, 1.0])
        assert len(buffer) == 3

    def test_returns_terminal_only_reward(self):
        buffer = TrajectoryBuffer(gamma=1.0, lam=1.0)
        self._fill_episode(buffer, [0.0, 0.0, 2.0])
        data = buffer.get()
        np.testing.assert_allclose(data["returns"], [2.0, 2.0, 2.0])

    def test_advantages_normalized(self):
        buffer = TrajectoryBuffer()
        self._fill_episode(buffer, [0.0, 1.0, 0.0, 3.0])
        data = buffer.get()
        assert abs(data["advantages"].mean()) < 1e-9
        assert data["advantages"].std() == pytest.approx(1.0, abs=1e-6)

    def test_advantage_uses_value_baseline(self):
        buffer = TrajectoryBuffer(gamma=1.0, lam=1.0)
        # Perfect value predictions -> raw advantages are all zero -> the
        # normalized advantages should stay (near) zero rather than explode.
        self._fill_episode(buffer, [0.0, 0.0, 4.0], values=[4.0, 4.0, 4.0])
        data = buffer.get()
        np.testing.assert_allclose(data["advantages"], np.zeros(3), atol=1e-9)

    def test_get_clears_buffer(self):
        buffer = TrajectoryBuffer()
        self._fill_episode(buffer, [1.0])
        buffer.get()
        assert len(buffer) == 0

    def test_get_empty_raises(self):
        with pytest.raises(RuntimeError):
            TrajectoryBuffer().get()

    def test_get_with_open_path_raises(self):
        buffer = TrajectoryBuffer()
        buffer.store(np.zeros(3), np.ones(2), 0, 1.0, 0.0, -0.5)
        with pytest.raises(RuntimeError):
            buffer.get()

    def test_multiple_paths(self):
        buffer = TrajectoryBuffer(gamma=1.0, lam=1.0)
        self._fill_episode(buffer, [1.0, 1.0])
        self._fill_episode(buffer, [5.0])
        data = buffer.get()
        assert data["observations"].shape == (3, 3)
        np.testing.assert_allclose(data["returns"], [2.0, 1.0, 5.0])

    def test_bootstrap_value(self):
        buffer = TrajectoryBuffer(gamma=1.0, lam=1.0)
        buffer.store(np.zeros(3), np.ones(2), 0, 1.0, 0.0, -0.5)
        buffer.finish_path(last_value=10.0)
        data = buffer.get()
        np.testing.assert_allclose(data["returns"], [11.0])

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            TrajectoryBuffer(gamma=1.5)

    def test_shapes_in_get(self):
        buffer = TrajectoryBuffer()
        self._fill_episode(buffer, [0.0, 1.0])
        data = buffer.get()
        assert data["masks"].shape == (2, 2)
        assert data["actions"].dtype == np.int64
        assert data["log_probs"].shape == (2,)


class TestRunningMeanStd:
    def test_scalar_stream(self):
        stat = RunningMeanStd()
        for value in [1.0, 2.0, 3.0, 4.0]:
            stat.update(value)
        assert stat.mean == pytest.approx(2.5)
        assert stat.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))

    def test_vector_stream(self):
        stat = RunningMeanStd(shape=(2,))
        stat.update_batch([[1.0, 10.0], [3.0, 30.0]])
        np.testing.assert_allclose(stat.mean, [2.0, 20.0])

    def test_normalize(self):
        stat = RunningMeanStd()
        stat.update_batch([0.0, 2.0])
        assert stat.normalize(1.0) == pytest.approx(0.0)

    def test_single_sample_variance_is_one(self):
        stat = RunningMeanStd()
        stat.update(5.0)
        assert stat.variance == pytest.approx(1.0)
