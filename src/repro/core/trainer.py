"""PPO training loop for RLBackfilling (paper §4.1.1).

One epoch gathers ``trajectories_per_epoch`` trajectories; each trajectory is
one episode of :class:`~repro.core.environment.BackfillEnvironment` (a
sampled job sequence scheduled end to end with the agent making every
backfilling decision).  After the epoch's trajectories are collected the
policy and value networks are updated with PPO.

Rollout collection goes through the vectorized engine
(:class:`~repro.rl.vec_env.VecBackfillEnv`): ``TrainerConfig.num_envs``
independent environment lanes run in lockstep and share one batched forward
pass per decision step.  ``num_envs=1`` (the default) *is* the serial path --
one lane, batch-of-one forward passes -- and stays bit-identical to
:meth:`Trainer.run_trajectory` driven by hand.

The paper's configuration -- 100 trajectories of 256 jobs per epoch and 80
update iterations with a learning rate of 1e-3 -- is the default; the
experiment drivers scale these down for the benchmark harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.agent import RLBackfillAgent
from repro.core.environment import BackfillEnvironment
from repro.obs import engine_stats_delta, get_metrics, get_tracer
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.lane_pool import make_rollout_engine
from repro.rl.ppo import PPO, PPOConfig, PPOUpdateStats
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_rng, spawn_rngs

__all__ = ["TrainerConfig", "EpochStats", "TrainingHistory", "Trainer"]

logger = get_logger("core.trainer")


@dataclass(frozen=True, slots=True)
class TrainerConfig:
    """Training-loop hyper-parameters."""

    epochs: int = 50
    trajectories_per_epoch: int = 100
    ppo: PPOConfig = field(default_factory=PPOConfig)
    seed: Optional[int] = None
    #: Number of environment lanes stepped in lockstep by the vectorized
    #: rollout engine.  1 = the serial path (one lane, batch-of-one forward
    #: passes); larger values batch the policy forward pass across lanes.
    num_envs: int = 1
    #: Where the lanes live: ``"local"`` steps them in-process
    #: (:class:`~repro.rl.vec_env.VecBackfillEnv`); ``"process"`` shards them
    #: across a pool of worker processes exchanging fixed-layout arrays
    #: through shared memory (:class:`~repro.rl.lane_pool.ProcessLanePool`).
    backend: str = "local"
    #: Worker-process count for the process backend (``None`` = one per
    #: available core, capped at ``num_envs``).  Ignored by the local backend.
    num_workers: Optional[int] = None
    #: Drain-phase work stealing for the process backend: lanes that finish
    #: while the epoch drains immediately start next-epoch episodes, which
    #: are banked and credited to the next collection call.
    work_stealing: bool = True

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.trajectories_per_epoch <= 0:
            raise ValueError("trajectories_per_epoch must be positive")
        if self.num_envs <= 0:
            raise ValueError("num_envs must be positive")
        if self.backend not in ("local", "process"):
            raise ValueError(f"backend must be 'local' or 'process', got {self.backend!r}")
        if self.num_workers is not None and self.num_workers <= 0:
            raise ValueError("num_workers must be positive when given")

    @classmethod
    def paper_scale(cls, epochs: int = 200) -> "TrainerConfig":
        """The configuration reported in the paper."""
        return cls(epochs=epochs, trajectories_per_epoch=100, ppo=PPOConfig())

    @classmethod
    def quick_scale(cls, epochs: int = 5, trajectories_per_epoch: int = 4) -> "TrainerConfig":
        """A reduced configuration for laptops, tests, and the benchmark harness."""
        return cls(
            epochs=epochs,
            trajectories_per_epoch=trajectories_per_epoch,
            ppo=PPOConfig(policy_iterations=15, value_iterations=15),
        )

    def with_epochs(self, epochs: int) -> "TrainerConfig":
        return replace(self, epochs=epochs)


@dataclass(frozen=True, slots=True)
class EpochStats:
    """Diagnostics of one training epoch (one point of the Figure 4 curves)."""

    epoch: int
    mean_episode_reward: float
    mean_bsld: float
    mean_baseline_bsld: float
    mean_violations: float
    steps: int
    policy_loss: float
    value_loss: float
    approximate_kl: float
    entropy: float
    wall_time_seconds: float

    @property
    def improvement_over_baseline(self) -> float:
        """Relative bsld improvement over the SJF-backfill baseline."""
        if self.mean_baseline_bsld <= 0:
            return 0.0
        return (self.mean_baseline_bsld - self.mean_bsld) / self.mean_baseline_bsld


@dataclass
class TrainingHistory:
    """Sequence of :class:`EpochStats` produced by one training run."""

    epochs: List[EpochStats] = field(default_factory=list)

    def append(self, stats: EpochStats) -> None:
        self.epochs.append(stats)

    def __len__(self) -> int:
        return len(self.epochs)

    def __iter__(self) -> Iterator[EpochStats]:
        return iter(self.epochs)

    def __getitem__(self, index: int) -> EpochStats:
        return self.epochs[index]

    @property
    def bslds(self) -> List[float]:
        """The y-axis of the paper's Figure 4 training curves."""
        return [e.mean_bsld for e in self.epochs]

    @property
    def rewards(self) -> List[float]:
        return [e.mean_episode_reward for e in self.epochs]

    def final(self) -> EpochStats:
        if not self.epochs:
            raise ValueError("training history is empty")
        return self.epochs[-1]

    def improved(self) -> bool:
        """Whether the last epoch's bsld beats the first epoch's (converging curve)."""
        if len(self.epochs) < 2:
            return False
        return self.epochs[-1].mean_bsld <= self.epochs[0].mean_bsld

    def to_rows(self) -> List[Sequence[float]]:
        return [
            (e.epoch, e.mean_bsld, e.mean_episode_reward, e.policy_loss, e.value_loss)
            for e in self.epochs
        ]


class Trainer:
    """Collects trajectories from a :class:`BackfillEnvironment` and runs PPO.

    Rollouts go through :class:`~repro.rl.vec_env.VecBackfillEnv` with
    ``config.num_envs`` lanes: lane 0 is ``environment`` itself, further
    lanes are independent clones.  Every lane has its own action-sampling
    rng (lane 0 uses the trainer rng, preserving bit-identical behaviour of
    the ``num_envs=1`` case with the serial :meth:`run_trajectory` loop).

    With ``config.backend == "process"`` the lanes are hosted by a
    :class:`~repro.rl.lane_pool.ProcessLanePool` instead: simulator stepping
    runs in worker processes while the batched forward pass stays here.  The
    worker owns its copy of each lane environment, so ``self.environment``
    no longer reflects rollout state (``last_result`` etc.); call
    :meth:`close` (or use the trainer as a context manager) to shut the
    worker pool down deterministically.
    """

    def __init__(
        self,
        environment: BackfillEnvironment,
        agent: RLBackfillAgent | None = None,
        config: TrainerConfig | None = None,
        seed: SeedLike = None,
    ):
        self.environment = environment
        self.config = config or TrainerConfig()
        self.agent = agent or RLBackfillAgent(
            observation_config=environment.observation_config, seed=self.config.seed
        )
        if self.agent.observation_config.num_actions != environment.num_actions:
            raise ValueError(
                "agent and environment disagree on the action space: "
                f"{self.agent.observation_config.num_actions} vs {environment.num_actions}"
            )
        self.ppo = PPO(self.agent, self.config.ppo, seed=seed)
        self.rng = as_rng(seed if seed is not None else self.config.seed)
        # Both backends derive lane environments through the same factory and
        # the same seed draws (which is what makes a one-worker process pool
        # bit-identical to the local engine), and the num_envs == 1 case
        # draws nothing from self.rng, so the serial path consumes exactly
        # the same rng stream as a hand-driven run_trajectory loop.
        self.vec_env = make_rollout_engine(
            environment,
            self.config.num_envs,
            seed=self.rng,
            backend=self.config.backend,
            num_workers=self.config.num_workers,
            work_stealing=self.config.work_stealing,
        )
        if self.config.num_envs == 1:
            self.lane_rngs = [self.rng]
        else:
            self.lane_rngs = [self.rng] + spawn_rngs(self.rng, self.config.num_envs - 1)
        # Snapshot of the engine's cumulative counters, so epoch-boundary
        # logging reports per-epoch deltas.
        self._engine_stats_snapshot: dict = {}

    # -- rollouts -----------------------------------------------------------
    def run_trajectory(self, buffer: TrajectoryBuffer) -> dict:
        """Roll out one full episode serially, storing every step in ``buffer``.

        Kept as the reference implementation of an episode; the training loop
        itself collects through :meth:`collect_rollouts`, whose ``num_envs=1``
        case is bit-identical to this method.
        """
        observation, mask = self.environment.reset()
        episode_reward = 0.0
        steps = 0
        while True:
            action, value, log_prob = self.agent.step(observation, mask, rng=self.rng)
            result = self.environment.step(action)
            buffer.store(observation, mask, action, result.reward, value, log_prob)
            episode_reward += result.reward
            steps += 1
            if result.done:
                buffer.finish_path(last_value=0.0)
                info = dict(result.info)
                info.update({"episode_reward": episode_reward, "episode_steps": steps})
                return info
            observation, mask = result.observation, result.mask

    def collect_rollouts(self, buffer: TrajectoryBuffer, num_trajectories: int) -> List[dict]:
        """Collect episodes through the vectorized engine; returns their infos."""
        return self.vec_env.rollout(
            self.agent, num_trajectories, buffer, rngs=self.lane_rngs
        )

    def _log_engine_stats(self, epoch: int) -> None:
        """Log this epoch's rollout-engine statistics (delta vs last epoch).

        Makes the engine's behaviour visible in training output: rounds, the
        per-phase split, the workers' idle fraction, and banked/credited
        stolen episodes.
        """
        stats_fn = getattr(self.vec_env, "stats", None)
        if stats_fn is None:  # pragma: no cover - every bundled engine has stats()
            return
        stats = stats_fn()
        previous, self._engine_stats_snapshot = self._engine_stats_snapshot, dict(stats)
        delta = engine_stats_delta(stats, previous)
        parts = []
        for key, value in delta.items():
            if isinstance(value, str):
                continue
            if isinstance(value, float):
                parts.append(f"{key}={value:.3f}")
            else:
                parts.append(f"{key}={value}")
        logger.info("epoch %d engine[%s]: %s", epoch, stats.get("engine", "?"), ", ".join(parts))

    def _publish_health(
        self, epoch: int, collect_s: float, update_s: float, update: PPOUpdateStats
    ) -> None:
        """Training health of one epoch: registry gauges plus one log line.

        Read-only with respect to training: the values are results the update
        already computed and two wall-clock differences.
        """
        health = {
            "train_collect_seconds": collect_s,
            "train_update_seconds": update_s,
            "ppo_approximate_kl": update.approximate_kl,
            "ppo_entropy": update.entropy,
            "ppo_clip_fraction": update.clip_fraction,
            "ppo_grad_norm": update.grad_norm,
            "ppo_explained_variance": update.explained_variance,
        }
        registry = get_metrics()
        for name, value in health.items():
            registry.gauge(name).set(value)
        logger.info(
            "epoch %d health: %s, policy_iterations=%d",
            epoch,
            ", ".join(f"{name}={value:.4g}" for name, value in health.items()),
            update.policy_iterations_run,
        )

    # -- training -----------------------------------------------------------
    def train_epoch(self, epoch: int) -> EpochStats:
        tracer = get_tracer()
        start = time.perf_counter()
        buffer = TrajectoryBuffer(gamma=self.config.ppo.gamma, lam=self.config.ppo.lam)
        with tracer.span("trainer.collect_rollouts", cat="train", args={"epoch": epoch}):
            infos = self.collect_rollouts(buffer, self.config.trajectories_per_epoch)
        rewards: List[float] = [info["episode_reward"] for info in infos]
        bslds: List[float] = [info["bsld"] for info in infos]
        baselines: List[float] = [info["baseline_bsld"] for info in infos]
        violations: List[float] = [float(info["violations"]) for info in infos]
        steps = len(buffer)
        collected = time.perf_counter()
        data = buffer.get()
        with tracer.span("trainer.ppo_update", cat="train", args={"epoch": epoch}):
            update: PPOUpdateStats = self.ppo.update(data)
        self._publish_health(epoch, collected - start, time.perf_counter() - collected, update)
        stats = EpochStats(
            epoch=epoch,
            mean_episode_reward=float(np.mean(rewards)),
            mean_bsld=float(np.mean(bslds)),
            mean_baseline_bsld=float(np.mean(baselines)),
            mean_violations=float(np.mean(violations)),
            steps=steps,
            policy_loss=update.policy_loss,
            value_loss=update.value_loss,
            approximate_kl=update.approximate_kl,
            entropy=update.entropy,
            wall_time_seconds=time.perf_counter() - start,
        )
        logger.info(
            "epoch %d: bsld=%.2f (baseline %.2f), reward=%.3f, steps=%d",
            epoch,
            stats.mean_bsld,
            stats.mean_baseline_bsld,
            stats.mean_episode_reward,
            steps,
        )
        self._log_engine_stats(epoch)
        return stats

    def train(
        self, callback: Callable[[EpochStats], None] | None = None
    ) -> TrainingHistory:
        """Run the full training loop and return the per-epoch history."""
        history = TrainingHistory()
        for epoch in range(1, self.config.epochs + 1):
            stats = self.train_epoch(epoch)
            history.append(stats)
            if callback is not None:
                callback(stats)
        return history

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release the rollout engine (shuts down process-backend workers).

        Idempotent; a no-op for the local backend.  The process pool also
        cleans itself up at garbage collection and interpreter exit, but
        explicit shutdown keeps worker lifetime deterministic in long-lived
        programs.
        """
        close = getattr(self.vec_env, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
