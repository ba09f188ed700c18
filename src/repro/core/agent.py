"""The RLBackfilling actor-critic model (paper §3.3).

*Policy network* -- a **kernel-based** network: a small 3-layer MLP is applied
to every job slot independently, producing one score per slot; a softmax over
the scores (after action masking) gives the probability of backfilling each
job.  Because the same kernel weights are shared across slots, the parameter
count is tiny and the network is insensitive to how many jobs are present.

*Value network* -- a plain 3-layer MLP over the concatenated (flattened)
observation that predicts the expected episode return, completing the
actor-critic pair used by PPO.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.observation import ObservationConfig
from repro.rl.autograd import Tensor
from repro.rl.nn import MLP
from repro.rl.ppo import ActorCritic
from repro.utils.rng import SeedLike, as_rng

__all__ = ["RLBackfillAgent"]


class RLBackfillAgent(ActorCritic):
    """Kernel policy network + MLP value network over queue observations."""

    def __init__(
        self,
        observation_config: ObservationConfig | None = None,
        kernel_hidden: Sequence[int] = (32, 16),
        value_hidden: Sequence[int] = (64, 32),
        seed: SeedLike = None,
    ):
        self.observation_config = observation_config or ObservationConfig()
        rng = as_rng(seed)
        features = self.observation_config.job_features
        # Kernel network: per-job score.  3 fully connected layers as in §3.3.1.
        self.kernel = MLP([features, *kernel_hidden, 1], activation="relu", seed=rng)
        # Value network: 3-layer MLP over the flattened observation (§3.3.2).
        self.value_net = MLP(
            [self.observation_config.observation_size, *value_hidden, 1],
            activation="tanh",
            seed=rng,
        )

    # -- ActorCritic interface ------------------------------------------------
    def slot_scores(self, slots: Tensor) -> Tensor:
        return self.kernel(slots)

    def policy_logits(self, observations: Tensor) -> Tensor:
        """Score every slot, masked or not, with the shared kernel network.

        ``observations`` has shape ``(batch, max_queue_size * job_features)``;
        the kernel sees one job vector at a time, so the batch and slot
        dimensions are folded together for the forward pass and unfolded
        afterwards.  Rollouts, deployed decisions and the PPO update score the
        unmasked slots only (:class:`~repro.rl.ppo.ActorCritic`).
        """
        cfg = self.observation_config
        batch = observations.shape[0]
        per_job = observations.reshape(batch * cfg.max_queue_size, cfg.job_features)
        return self.slot_scores(per_job).reshape(batch, cfg.max_queue_size)

    def value(self, observations: Tensor) -> Tensor:
        batch = observations.shape[0]
        return self.value_net(observations).reshape(batch)

    def infer_slot_scores(self, slots: np.ndarray) -> np.ndarray:
        return self.kernel.infer(slots)

    def infer_values(self, observations: np.ndarray) -> np.ndarray:
        return self.value_net.infer(observations).reshape(observations.shape[0])

    def policy_parameters(self) -> List[Tensor]:
        return self.kernel.parameters()

    def value_parameters(self) -> List[Tensor]:
        return self.value_net.parameters()

    # -- conveniences -----------------------------------------------------------
    def num_parameters(self) -> int:
        return self.kernel.num_parameters() + self.value_net.num_parameters()

    def state_dict(self):
        return {
            "kernel": self.kernel.state_dict(),
            "value": self.value_net.state_dict(),
        }

    def load_state_dict(self, state) -> None:
        self.kernel.load_state_dict(state["kernel"])
        self.value_net.load_state_dict(state["value"])

    def __repr__(self) -> str:
        cfg = self.observation_config
        return (
            f"RLBackfillAgent(slots={cfg.max_queue_size}, features={cfg.job_features}, "
            f"parameters={self.num_parameters()})"
        )
