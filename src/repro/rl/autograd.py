"""Minimal reverse-mode automatic differentiation over NumPy arrays.

Supports exactly the operations the RLBackfilling networks and the PPO loss
need: dense affine layers, tanh/relu activations, log-softmax with masking,
elementwise arithmetic with broadcasting, clipping, elementwise min, exp/log,
and sum/mean reductions.  Gradients are accumulated into ``Tensor.grad`` by
:meth:`Tensor.backward`, which performs a topological sort of the recorded
computation graph.

The engine intentionally stays small (single dtype, no views/in-place ops, 2-D
matmul only): it is an execution substrate for the paper's models, not a
general deep-learning framework.

Two matrix products are provided: :meth:`Tensor.matmul` (plain BLAS, fastest,
but output rows can vary in the last ulp with batch size because the library
picks its algorithm from the product shape) and :meth:`Tensor.linear` (the
fused ``relu(x @ W + b)`` node on the **batch-invariant kernel**
:func:`invariant_matmul`, whose output rows are bit-identical regardless of
how many rows share the batch; :meth:`Tensor.matmul_invariant` is the same
node without bias or ReLU).  The model layers (:class:`~repro.rl.nn.Linear`)
use it, so policy and value outputs -- and therefore rollout trajectories
and PPO updates -- do not depend on rollout lane count, worker shard layout,
or minibatch composition.

What is bit-stable: forward rows and input-gradient rows of
:meth:`Tensor.linear` equal the former matmul -> bias-add -> ReLU chain float
for float.  What is not: its weight gradient sums over the batch in one BLAS
call (formerly 16-row blocks of ``x.T``), so trained weights differ from
older commits in the last ulps -- identically on every rollout engine.
:meth:`Tensor.scatter` is what lets the policy forward only unmasked slots
(see ``docs/simulator.md``, "The determinism contract").
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "invariant_matmul",
    "INVARIANT_ROW_BLOCK",
]

ArrayLike = Union[float, int, Sequence, np.ndarray, "Tensor"]

_GRAD_ENABLED = True

#: Fixed row-block size of :func:`invariant_matmul`.  Every BLAS call made by
#: the kernel multiplies exactly this many rows, so the library's
#: shape-dependent algorithm choice (gemv vs gemm, K-blocking, threading) is
#: pinned once and for all instead of varying with the caller's batch size.
#: 16 keeps the padding waste of small rollout batches low while the stacked
#: 3-D matmul stays within ~1.1-1.5x of a raw ``np.matmul`` at rollout batch
#: sizes (measured by ``benchmarks/test_bench_invariant_matmul.py``).
INVARIANT_ROW_BLOCK = 16


def invariant_matmul(
    a: np.ndarray, b: np.ndarray, row_block: Optional[int] = None
) -> np.ndarray:
    """``a @ b`` with batch-invariant output rows.

    Row-blocked BLAS kernels choose their algorithm (gemv vs gemm, K-panel
    blocking, threading) from the *shape* of the product, so the floats of
    output row ``i`` of a plain ``a @ b`` can differ in the last ulp depending
    on how many other rows share the batch.  This kernel removes that degree
    of freedom: rows are processed in fixed blocks of
    :data:`INVARIANT_ROW_BLOCK` (the tail block zero-padded) and multiplied
    through one stacked 3-D ``np.matmul``, so **every** underlying BLAS call
    has the identical ``(INVARIANT_ROW_BLOCK, k) @ (k, n)`` shape no matter
    how many rows the caller batched.  GEMM arithmetic never mixes rows, and
    with the call shape fixed the per-row accumulation order is fixed too;
    hence

    ``invariant_matmul(a[i : i + 1], b)[0] == invariant_matmul(a, b)[i]``

    bit for bit, for any batch composition (asserted over randomized shapes
    in ``tests/test_rl_autograd.py``).  This is what makes policy outputs
    identical across rollout lane count and worker shard layout -- see the
    determinism contract in ``docs/simulator.md``.

    ``row_block`` is a **per-call-site hint** overriding the default block
    size.  Batch invariance holds *within* a call site -- any fixed block
    puts row ``i`` at the fixed position ``i % block`` of block
    ``i // block`` -- but two sites using different blocks may disagree in
    the last ulp, so a site must pin one value for its lifetime.  Serial
    deployment sites (one decision forwarded at a time, e.g. the scenario
    harness's :class:`~repro.core.rlbackfill.RLBackfillPolicy`) use
    ``row_block=1`` to stop padding one row to 16, which recovers the
    3-5x single-row overhead measured by
    ``benchmarks/test_bench_invariant_matmul.py``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"invariant_matmul supports 2-D arrays only, got {a.shape} @ {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch for matmul: {a.shape} @ {b.shape}")
    rows = a.shape[0]
    cols = b.shape[1]
    if rows == 0:
        return np.zeros((0, cols), dtype=np.float64)
    block = INVARIANT_ROW_BLOCK if row_block is None else int(row_block)
    if block <= 0:
        raise ValueError(f"row_block must be positive, got {row_block}")
    num_blocks = -(-rows // block)
    padded = num_blocks * block
    if rows == padded:
        stacked = a.reshape(num_blocks, block, a.shape[1])
    else:
        stacked = np.zeros((num_blocks, block, a.shape[1]), dtype=np.float64)
        stacked.reshape(padded, a.shape[1])[:rows] = a
    return np.matmul(stacked, b).reshape(padded, cols)[:rows]


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (used for rollouts)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after a broadcasted forward op."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A dense array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None
        self.name = name

    # -- construction helpers ----------------------------------------------
    @classmethod
    def zeros(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        return cls(np.zeros(shape), requires_grad=requires_grad)

    @classmethod
    def from_numpy(cls, array: np.ndarray, requires_grad: bool = False) -> "Tensor":
        return cls(np.asarray(array, dtype=np.float64), requires_grad=requires_grad)

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ---------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (must be scalar unless ``grad`` given)."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Topological order of the graph reachable from self.
        order: List[Tensor] = []
        visited: set[int] = set()
        stack: List[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- elementwise arithmetic -------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad, other_t.data.shape))

        return Tensor._make(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return self + (-other_t)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other_t.data, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * self.data, other_t.data.shape))

        return Tensor._make(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other_t.data, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(-grad * self.data / (other_t.data**2), other_t.data.shape)
                )

        return Tensor._make(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported")
        exponent = float(exponent)
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor._make(data, (self,), backward)

    # -- matrix ops -------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(_as_array(other))
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError(
                f"matmul supports 2-D tensors only, got {self.data.shape} @ {other.data.shape}"
            )
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return Tensor._make(data, (self, other), backward)

    __matmul__ = matmul

    def matmul_invariant(self, other: "Tensor", row_block: Optional[int] = None) -> "Tensor":
        """Matrix product with batch-invariant rows: :meth:`linear` without bias or ReLU."""
        if not isinstance(other, Tensor):
            other = Tensor(_as_array(other))
        return self.linear(other, row_block=row_block)

    def linear(
        self,
        weight: "Tensor",
        bias: Optional["Tensor"] = None,
        relu: bool = False,
        row_block: Optional[int] = None,
    ) -> "Tensor":
        """Fused ``relu(self @ weight + bias)`` as **one** graph node.

        The product and the input gradient (``grad @ weight.T``) go through
        :func:`invariant_matmul` with the call site's ``row_block``, and the
        bias add and ReLU are elementwise (done in place on the product's
        fresh array), so every output row and every input-gradient row is
        bit-identical whatever other rows share the batch.  The weight
        gradient ``self.T @ grad`` reduces over the batch in one BLAS call on
        the transposed view -- reproducible for a given batch, which is all a
        batch reduction can promise.
        """
        data = invariant_matmul(self.data, weight.data, row_block=row_block)
        if bias is not None:
            data += bias.data
        if relu:
            np.maximum(data, 0.0, out=data)

        def backward(grad: np.ndarray) -> None:
            if relu:
                grad = grad * (data > 0.0)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=0))
            if weight.requires_grad:
                weight._accumulate(self.data.T @ grad)
            if self.requires_grad:
                self._accumulate(invariant_matmul(grad, weight.data.T, row_block=row_block))

        parents = (self, weight) if bias is None else (self, weight, bias)
        return Tensor._make(data, parents, backward)

    def scatter(self, index: np.ndarray, shape: tuple[int, ...]) -> "Tensor":
        """Zeros of ``shape`` with this tensor's elements at flat positions ``index``.

        The backward pass gathers ``grad`` at the same positions; positions
        not in ``index`` are constants of the graph.
        """
        data = np.zeros(shape, dtype=np.float64)
        data.reshape(-1)[index] = self.data.reshape(-1)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(-1)[index].reshape(self.data.shape))

        return Tensor._make(data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape
        data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    # -- nonlinearities -----------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0.0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data**2))

        return Tensor._make(data, (self,), backward)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        inside = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * inside)

        return Tensor._make(data, (self,), backward)

    def minimum(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(_as_array(other))
        take_self = self.data <= other.data
        data = np.where(take_self, self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * take_self, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * ~take_self, other.data.shape))

        return Tensor._make(data, (self, other), backward)

    def maximum(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(_as_array(other))
        take_self = self.data >= other.data
        data = np.where(take_self, self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * take_self, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * ~take_self, other.data.shape))

        return Tensor._make(data, (self, other), backward)

    # -- reductions ----------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad, dtype=np.float64)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- softmax family -------------------------------------------------------------
    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - log_norm
        softmax = np.exp(data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                grad_sum = grad.sum(axis=axis, keepdims=True)
                self._accumulate(grad - softmax * grad_sum)

        return Tensor._make(data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        return self.log_softmax(axis=axis).exp()


def stack_rows(tensors: Iterable[Tensor]) -> np.ndarray:
    """Stack detached tensor data row-wise (helper for diagnostics)."""
    return np.stack([t.data for t in tensors], axis=0)
