"""Neural-network modules on top of the autograd engine.

Provides the pieces the paper's networks need: dense layers with sensible
initialization, tanh/relu activations, sequential containers, and a
convenience MLP builder.  Parameters are :class:`~repro.rl.autograd.Tensor`
objects with ``requires_grad=True``; optimizers consume ``module.parameters()``.

:class:`Linear` is one fused graph node (:meth:`Tensor.linear`: product on
the **batch-invariant matmul kernel**, bias add, optional ReLU): every output
row is bit-identical whether it is forwarded alone or inside any larger
batch.  Since all model matmuls go through ``Linear``, the networks' outputs
are invariant to rollout batch composition -- the property the
in-process and process-pool rollout engines' bit-parity contract rests
on, and the one that lets the policy forward only the unmasked slots.  The
fusion keeps every forward float of the former three-node chain; trained
weights move in the last ulps once (see :mod:`repro.rl.autograd`).

:meth:`MLP.infer` is the same forward on plain arrays.  Rollouts and
deployed decisions never differentiate, so they use it; the graph is built
only where a backward follows (the PPO update).

State is (de)serialized by **qualified attribute path** (e.g.
``network.0.weight`` for the first layer of an :class:`MLP`), so a checkpoint
can never load into the wrong layer of an architecture that merely happens to
match in parameter count and shapes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.rl.autograd import Tensor, invariant_matmul
from repro.utils.rng import SeedLike, as_rng

__all__ = ["Module", "Linear", "Tanh", "ReLU", "Identity", "Sequential", "MLP"]


class Module:
    """Base class for parameterized computations."""

    def _named_members(self) -> Iterable[Tuple[str, "Tensor | Module"]]:
        """Direct children as ``(name, tensor-or-module)`` in attribute order.

        List/tuple attributes contribute their module items as
        ``attr.<index>``; containers with a natural indexing (e.g.
        :class:`Sequential`) override this to expose bare indices instead.
        """
        for name, value in self.__dict__.items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value
            elif isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{index}", item

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        """``(qualified_path, tensor)`` pairs, in ``parameters()`` order.

        The qualified path is the dotted attribute route to the tensor (e.g.
        ``network.0.weight``); a tensor shared between two attributes appears
        once, under the first path that reaches it.
        """
        named: List[Tuple[str, Tensor]] = []
        seen: set[int] = set()
        self._collect_named(named, seen, "")
        return named

    def _collect_named(
        self, named: List[Tuple[str, Tensor]], seen: set, prefix: str
    ) -> None:
        for name, value in self._named_members():
            if isinstance(value, Tensor):
                if id(value) not in seen:
                    seen.add(id(value))
                    named.append((f"{prefix}{name}", value))
            else:
                value._collect_named(named, seen, f"{prefix}{name}.")

    def parameters(self) -> List[Tensor]:
        """All trainable tensors owned by this module (recursively)."""
        return [param for _, param in self.named_parameters()]

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- state (de)serialization -------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Mapping of qualified attribute path -> array (``named_parameters()`` order)."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays, keyed by qualified path.

        Keys must match :meth:`named_parameters` exactly (missing or
        unexpected entries raise ``ValueError`` naming them) and every array
        must match its parameter's shape.
        """
        named = self.named_parameters()
        known = {name for name, _ in named}
        missing = [name for name, _ in named if name not in state]
        unexpected = [key for key in state if key not in known]
        if missing or unexpected:
            raise ValueError(
                "state dict keys do not match the module's parameters: "
                f"missing {missing or 'none'}, unexpected {unexpected or 'none'}"
            )
        for key, param in named:
            array = np.asarray(state[key], dtype=np.float64)
            if array.shape != param.data.shape:
                raise ValueError(
                    f"parameter {key!r} shape mismatch: module has "
                    f"{param.data.shape}, state has {array.shape}"
                )
            param.data = array.copy()

    def set_forward_row_block(self, row_block: int | None) -> None:
        """Pin the matmul row-block hint of every :class:`Linear` child.

        ``row_block`` is the per-call-site hint of
        :func:`repro.rl.autograd.invariant_matmul`: any fixed value keeps the
        module batch-invariant per row, but *changing* it changes the floats
        in the last ulp, so set it once when a model is instantiated for a
        new site (e.g. ``1`` for serial deployment, where padding one row to
        the default block of 16 costs 3-5x) and never mid-run.  ``None``
        restores the default block.
        """
        for name, value in list(self.__dict__.items()):
            if isinstance(value, Module):
                value.set_forward_row_block(row_block)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item.set_forward_row_block(row_block)
        if isinstance(self, Linear):
            self.row_block = row_block

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract by convention
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with scaled-uniform (Xavier) initialization.

    One fused node (:meth:`Tensor.linear`): the product runs through the
    batch-invariant matmul kernel, so each output row is bit-identical no
    matter how many rows share the forward batch; the bias add and the ReLU
    an :class:`MLP` folds in (``relu=True``) are elementwise, which leaves
    whole-network outputs batch-invariant per row.

    ``row_block`` is the layer's per-call-site block-size hint (see
    :func:`repro.rl.autograd.invariant_matmul`): ``None`` uses the default
    ``INVARIANT_ROW_BLOCK``; serial deployment sites pin ``1`` -- typically
    via :meth:`Module.set_forward_row_block` on the whole model -- to skip
    the 1-row-to-16 padding.  Invariance holds for any fixed value; only
    changing it mid-run changes floats.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: SeedLike = None,
        row_block: int | None = None,
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        rng = as_rng(seed)
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.in_features = in_features
        self.out_features = out_features
        self.row_block = row_block
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(in_features, out_features)), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None

    def forward(self, x: Tensor, relu: bool = False) -> Tensor:
        return x.linear(self.weight, self.bias, relu=relu, row_block=self.row_block)

    def __repr__(self) -> str:
        return (
            f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None}"
            + (f", row_block={self.row_block}" if self.row_block is not None else "")
            + ")"
        )


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def _named_members(self) -> Iterable[Tuple[str, "Tensor | Module"]]:
        # Children are addressed by bare position (``network.0.weight``
        # rather than ``network.modules.0.weight``), mirroring the usual
        # sequential-container convention.
        for index, module in enumerate(self.modules):
            yield str(index), module

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self.modules)
        return f"Sequential({inner})"


_ACTIVATIONS: Dict[str, Callable[[], Module]] = {
    "tanh": Tanh,
    "relu": ReLU,
    "identity": Identity,
}


class MLP(Module):
    """Fully connected network with a configurable activation.

    ``sizes=[in, h1, h2, out]`` builds three Linear layers with the activation
    between hidden layers and ``output_activation`` after the last one.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        activation: str = "tanh",
        output_activation: str = "identity",
        seed: SeedLike = None,
    ):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        if activation not in _ACTIVATIONS or output_activation not in _ACTIVATIONS:
            raise KeyError(
                f"unknown activation; available: {', '.join(_ACTIVATIONS)}"
            )
        rng = as_rng(seed)
        layers: List[Module] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(fan_in, fan_out, seed=rng))
            is_last = i == len(sizes) - 2
            layers.append(_ACTIVATIONS[output_activation if is_last else activation]())
        self.network = Sequential(*layers)
        self.sizes = tuple(sizes)

    def forward(self, x: Tensor) -> Tensor:
        # ``network`` alternates Linear and activation; a ReLU is computed
        # inside the Linear's fused node instead of as a node of its own.
        layers = self.network.modules
        for linear, activation in zip(layers[::2], layers[1::2]):
            x = linear(x, relu=True) if isinstance(activation, ReLU) else activation(linear(x))
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on arrays, for callers that never differentiate.

        The numpy operations of the graph forward, on the same operands and in
        the same order -- :func:`invariant_matmul` at each layer's
        ``row_block``, the bias added in place, ``np.maximum`` / ``np.tanh``
        -- so every output float is the graph's, and no :class:`Tensor` is
        built.
        """
        layers = self.network.modules
        for linear, activation in zip(layers[::2], layers[1::2]):
            x = invariant_matmul(x, linear.weight.data, row_block=linear.row_block)
            if linear.bias is not None:
                x += linear.bias.data
            if isinstance(activation, ReLU):
                np.maximum(x, 0.0, out=x)
            elif isinstance(activation, Tanh):
                np.tanh(x, out=x)
        return x

    def __repr__(self) -> str:
        return f"MLP(sizes={self.sizes})"
