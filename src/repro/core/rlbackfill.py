"""Trained-policy backfilling strategy.

Wraps a trained :class:`~repro.core.agent.RLBackfillAgent` so it can be used
as a :class:`~repro.scheduler.backfill.base.BackfillStrategy` inside the
ordinary simulator -- this is how the paper's Tables 4 and 5 evaluate the
learned model against the EASY baselines on sampled 1024-job sequences, and
how the online service answers every request.  During evaluation the action
with the highest probability is taken deterministically (paper §3.3.1: no
exploration at test time).

A decision reads only what it uses: the builder encodes the feature rows of
the window's candidate slots and nothing else, and
:meth:`~repro.rl.ppo.ActorCritic.act` scores those rows with the kernel
network on arrays -- no value network, no autograd graph -- and takes the
candidate with the largest score.  The floats are those the rollouts and the
batched :meth:`~repro.rl.ppo.ActorCritic.step` compute for the same slots.
A greedy decision whose window holds one candidate encodes and scores
nothing: the most probable of one action is that action.
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.core.agent import RLBackfillAgent
from repro.core.observation import ObservationBuilder
from repro.prediction.predictors import RuntimeEstimator
from repro.scheduler.backfill.base import BackfillStrategy
from repro.scheduler.events import DecisionPoint
from repro.utils.rng import SeedLike, as_rng
from repro.workloads.job import Job

__all__ = ["RLBackfillPolicy"]


class RLBackfillPolicy(BackfillStrategy):
    """Backfilling decisions delegated to a trained RL agent."""

    name = "RLBF"

    def __init__(
        self,
        agent: RLBackfillAgent,
        deterministic: bool = True,
        seed: SeedLike = None,
        label: str | None = None,
        row_block: int | None = None,
    ):
        """Wrap ``agent`` as a backfilling strategy.

        ``row_block`` pins the matmul row-block hint of this deployment site
        (see :func:`repro.rl.autograd.invariant_matmul`).  This strategy
        forwards **one** decision at a time, so ``row_block=1`` skips the
        1-row-to-16 padding of the default rollout block and recovers the
        serial forward cost.  To keep the hint site-local the agent is
        deep-copied before retagging -- the caller's agent (and any batched
        engine sharing it) keeps its own block, and outputs of the two sites
        may differ in the last ulp (each remains internally bit-stable).
        """
        if row_block is not None:
            agent = copy.deepcopy(agent)
            agent.kernel.set_forward_row_block(row_block)
            agent.value_net.set_forward_row_block(row_block)
        self.agent = agent
        self.row_block = row_block
        self.deterministic = bool(deterministic)
        self.rng = as_rng(seed)
        self.builder = ObservationBuilder(agent.observation_config)
        if label:
            self.name = label

    def select_backfill(
        self, decision: DecisionPoint, estimator: RuntimeEstimator
    ) -> Optional[Job]:
        window = self.builder.window(decision)
        _, slots, slot_jobs = window
        if not slots:
            # No real candidate fits in the observed queue window (e.g. every
            # fitting job sits beyond the MAX_OBSV_SIZE cut-off): pass.
            return None
        if self.deterministic and len(slots) == 1:
            return slot_jobs[slots[0]]  # the argmax of one score, whatever it is
        slots, rows, slot_jobs = self.builder.build(decision, window)
        action = self.agent.act(
            rows, slots, len(slot_jobs), rng=self.rng, deterministic=self.deterministic
        )
        return slot_jobs[action]

    def __repr__(self) -> str:
        return f"RLBackfillPolicy(agent={self.agent!r}, deterministic={self.deterministic})"
