"""Gradient-descent optimizers for autograd tensors.

Per-parameter state (momentum velocity, Adam's moments) is kept by the
parameter's position in the optimizer's list, so a deep copy or a pickle of
an optimizer -- or of the trainer holding it -- keeps it paired with the
copied parameters.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.rl.autograd import Tensor

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, parameters: Sequence[Tensor], lr: float):
        params = list(parameters)
        if not params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        for p in params:
            if not p.requires_grad:
                raise ValueError("optimizer parameters must require gradients")
        self.parameters: List[Tensor] = params
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract by convention
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most ``max_norm``."""
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        total = 0.0
        for param in self.parameters:
            if param.grad is not None:
                total += float(np.sum(param.grad**2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for param in self.parameters:
                if param.grad is not None:
                    param.grad = param.grad * scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Sequence[Tensor], lr: float = 1e-2, momentum: float = 0.0):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.momentum = float(momentum)
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            update = param.grad
            if self.momentum > 0.0:
                velocity = self._velocity[index]
                velocity = (
                    self.momentum * velocity + update if velocity is not None else update.copy()
                )
                self._velocity[index] = velocity
                update = velocity
            param.data = param.data - self.lr * update


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias-corrected moment estimates."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._step_count = 0
        self._m: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            m = self._m[index]
            v = self._v[index]
            m = self.beta1 * m + (1 - self.beta1) * grad if m is not None else (1 - self.beta1) * grad
            v = (
                self.beta2 * v + (1 - self.beta2) * grad**2
                if v is not None
                else (1 - self.beta2) * grad**2
            )
            self._m[index] = m
            self._v[index] = v
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def moments(self) -> Tuple[int, List[Optional[np.ndarray]], List[Optional[np.ndarray]]]:
        """``(step count, m, v)``, the moments in parameter order (``None``
        for a parameter that has not been stepped yet)."""
        return self._step_count, list(self._m), list(self._v)

    def load_moments(
        self, step_count: int, m: Sequence[Optional[np.ndarray]], v: Sequence[Optional[np.ndarray]]
    ) -> None:
        """Install what :meth:`moments` returned (by another copy of this optimizer)."""
        self._step_count = step_count
        for index, m_i, v_i in zip(range(len(self.parameters)), m, v):
            if m_i is not None:
                self._m[index] = m_i
                self._v[index] = v_i
