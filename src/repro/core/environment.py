"""RL environment for learning backfilling decisions (paper §3.4).

Each episode schedules one job sequence sampled from a trace with the chosen
base scheduling policy; the agent is consulted at every backfilling
opportunity and picks which waiting candidate to start.  Rewards follow
the paper:

* every intermediate step returns 0 (the bounded-slowdown metric is only
  defined once the whole sequence is scheduled),
* the terminal step returns ``(baseline_bsld - agent_bsld) / baseline_bsld``,
  the percentage improvement over scheduling the same sequence with the base
  policy plus shortest-job-first backfilling,
* a large negative penalty is added immediately whenever a chosen backfill
  would delay the reserved job's start (the constraint EASY enforces by
  construction and the RL agent must learn).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.machine import DowntimeWindow
from repro.cluster.resources import ClusterTopology
from repro.core.observation import ObservationBuilder, ObservationConfig
from repro.faults.plan import NodeFailure, RestartPolicy, as_restart_policy
from repro.prediction.predictors import RuntimeEstimator, UserEstimate
from repro.rl.env import Environment, StepResult
from repro.scheduler.backfill.base import BackfillStrategy
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.events import DecisionPoint
from repro.scheduler.policies import PriorityPolicy, get_policy
from repro.scheduler.simulator import SimulationResult, Simulator
from repro.utils.rng import SeedLike, as_rng
from repro.workloads.job import Job, Trace
from repro.workloads.sampling import sample_sequence

__all__ = ["RewardConfig", "BackfillEnvironment"]


@dataclass(frozen=True, slots=True)
class RewardConfig:
    """Shaping of the RLBackfilling reward signal."""

    #: Immediate reward added when the chosen backfill would delay the
    #: reserved job (the paper's "large negative reward").
    delay_penalty: float = -0.5
    #: Scale applied to the terminal improvement reward.
    final_reward_scale: float = 1.0
    #: Judge delay violations with the job's actual runtime (True) or with the
    #: scheduler's runtime estimate (False).
    violation_uses_actual_runtime: bool = True
    #: Lower clip on the terminal improvement reward.  A single unlucky
    #: trajectory (tiny baseline bsld, huge agent bsld) would otherwise emit a
    #: reward of -50 or worse and dominate the epoch's gradient.
    min_final_reward: float = -10.0

    def __post_init__(self) -> None:
        if self.delay_penalty > 0:
            raise ValueError("delay_penalty must be non-positive")
        if self.final_reward_scale <= 0:
            raise ValueError("final_reward_scale must be positive")
        if self.min_final_reward >= 0:
            raise ValueError("min_final_reward must be negative")


class BackfillEnvironment(Environment):
    """Masked discrete-action environment around the scheduling simulator."""

    def __init__(
        self,
        trace: Trace,
        policy: PriorityPolicy | str = "FCFS",
        sequence_length: int = 256,
        observation_config: ObservationConfig | None = None,
        reward_config: RewardConfig | None = None,
        estimator: RuntimeEstimator | None = None,
        baseline_backfill: BackfillStrategy | None = None,
        num_processors: int | None = None,
        seed: SeedLike = None,
        max_reset_attempts: int = 25,
        training_pool_size: int | None = None,
        min_baseline_bsld: float | None = None,
        capacity_schedule: Sequence[DowntimeWindow] | None = None,
        node_failures: Sequence[NodeFailure] | None = None,
        restart_policy: RestartPolicy | str | None = None,
        topology: ClusterTopology | None = None,
        allocator: str = "first_fit",
    ):
        if sequence_length <= 0:
            raise ValueError("sequence_length must be positive")
        if training_pool_size is not None and training_pool_size <= 0:
            raise ValueError("training_pool_size must be positive when given")
        if min_baseline_bsld is not None and min_baseline_bsld < 1.0:
            raise ValueError("min_baseline_bsld cannot be below 1 (bsld is bounded below by 1)")
        self.trace = trace
        self.policy = get_policy(policy)
        self.sequence_length = int(sequence_length)
        self.observation_config = observation_config or ObservationConfig()
        self.reward_config = reward_config or RewardConfig()
        self.estimator = estimator if estimator is not None else UserEstimate()
        self.baseline_backfill = (
            baseline_backfill if baseline_backfill is not None else EasyBackfill(order="sjf")
        )
        self.num_processors = int(num_processors or trace.num_processors)
        # Scheduled node drains applied to every episode (agent and baseline
        # alike).  Capacity loss reaches the agent through the observation:
        # free_fraction, the reservation horizon, and the extra-processor
        # features are all computed off the capacity-aware machine state.
        self.capacity_schedule = tuple(capacity_schedule or ())
        # Injected node failures applied to every episode (agent and baseline
        # alike); victims requeue under the restart policy.  Like downtime,
        # the capacity loss reaches the agent through the observation -- the
        # failure's repair window joins the machine's schedule at the failure
        # instant, shifting free_fraction and the reservation features.
        self.node_failures = tuple(node_failures or ())
        self.restart_policy = as_restart_policy(restart_policy)
        # Heterogeneous node-group layout (None = the scalar homogeneous
        # machine).  Placement is the allocator's job; the agent keeps acting
        # on the same queue/mask interface either way.
        self.topology = topology
        self.allocator = allocator
        self.rng = as_rng(seed)
        self.max_reset_attempts = int(max_reset_attempts)
        self.builder = ObservationBuilder(self.observation_config)
        # Optional fixed pool of training sequences.  Reusing a modest pool of
        # sequences (instead of sampling a brand-new one per trajectory)
        # drastically reduces the variance of the episodic reward, which is
        # what makes training converge within a small-compute budget; the
        # paper's full budget (100 trajectories/epoch for hundreds of epochs)
        # achieves the same effect by brute force.
        self.training_pool_size = training_pool_size
        # Curriculum filter: only train on sequences whose baseline bsld is at
        # least this value.  Lightly loaded windows carry almost no learning
        # signal (backfilling cannot matter when the queue never builds up).
        self.min_baseline_bsld = min_baseline_bsld
        self._pool: List[List[Job]] = []
        self._pool_baselines: List[float] = []

        # Episode state.
        self._generator: Optional[Generator[DecisionPoint, Optional[Job], SimulationResult]] = None
        self._decision: Optional[DecisionPoint] = None
        self._slot_jobs: List[Optional[Job]] = []
        self._mask: Optional[np.ndarray] = None
        self._encode_queue: List[Job] = []
        self._jobs: List[Job] = []
        self._static_rows = np.empty((0, 4), dtype=np.float64)
        self._static_index: dict[int, int] = {}
        self.baseline_bsld: float = float("nan")
        self.last_result: Optional[SimulationResult] = None
        self.episode_steps = 0
        self.episode_violations = 0

    # -- vectorization ----------------------------------------------------------
    def clone(self, seed: SeedLike = None) -> "BackfillEnvironment":
        """An independent lane with this environment's configuration.

        Used by :class:`~repro.rl.vec_env.VecBackfillEnv` to build N rollout
        lanes from one template.  The clone gets its own sampling rng, its own
        (deep-copied) estimator and baseline strategy so per-sequence caches
        are never shared across lanes, and a fresh training pool.
        """
        return BackfillEnvironment(
            self.trace,
            policy=self.policy,
            sequence_length=self.sequence_length,
            observation_config=self.observation_config,
            reward_config=self.reward_config,
            estimator=copy.deepcopy(self.estimator),
            baseline_backfill=copy.deepcopy(self.baseline_backfill),
            num_processors=self.num_processors,
            seed=seed,
            max_reset_attempts=self.max_reset_attempts,
            training_pool_size=self.training_pool_size,
            min_baseline_bsld=self.min_baseline_bsld,
            capacity_schedule=self.capacity_schedule,
            node_failures=self.node_failures,
            restart_policy=self.restart_policy,
            topology=self.topology,
            allocator=self.allocator,
        )

    # -- Environment interface --------------------------------------------------
    @property
    def observation_size(self) -> int:
        return self.observation_config.observation_size

    @property
    def num_actions(self) -> int:
        return self.observation_config.num_actions

    def _make_simulator(self) -> Simulator:
        return Simulator(
            num_processors=self.num_processors,
            policy=self.policy,
            estimator=self.estimator,
            capacity_schedule=self.capacity_schedule,
            node_failures=self.node_failures,
            restart_policy=self.restart_policy,
            topology=self.topology,
            allocator=self.allocator,
        )

    def _baseline_bsld(self, jobs: Sequence[Job]) -> float:
        simulator = self._make_simulator()
        result = simulator.run(jobs, backfill=self.baseline_backfill)
        return result.bsld

    def _start_episode(
        self, jobs: Sequence[Job], cached_baseline: float | None = None
    ) -> Optional[np.ndarray]:
        """Begin an episode over ``jobs``; returns the first action mask or
        ``None`` if the sequence produces no backfilling opportunity.

        Only the cheap mask half of the first decision point is computed here;
        the observation is encoded by the caller (:meth:`reset`) once an
        episode start is accepted, so rejected reset attempts (no opportunity,
        or below the contention filter) never pay for feature encoding.
        """
        self._jobs = list(jobs)
        # Static per-job quantities, gathered once per episode so the encoder
        # can fancy-index them instead of touching every Job object at every
        # decision point.
        self._static_rows = self.builder.static_rows(self._jobs)
        self._static_index = {j.job_id: row for row, j in enumerate(self._jobs)}
        self.baseline_bsld = (
            cached_baseline if cached_baseline is not None else self._baseline_bsld(self._jobs)
        )
        self.estimator.reset()
        simulator = self._make_simulator()
        self._generator = simulator.decision_points(self._jobs)
        self.last_result = None
        self.episode_steps = 0
        self.episode_violations = 0
        try:
            self._decision = next(self._generator)
        except StopIteration as stop:
            # The whole sequence scheduled without a single backfilling
            # opportunity; there is nothing for the agent to learn from.
            self.last_result = stop.value
            self._generator = None
            self._decision = None
            return None
        return self._advance_to_actionable()

    def _advance_to_actionable(self) -> Optional[np.ndarray]:
        """Advance to the next actionable decision point, returning its mask.

        A decision point can carry candidates that all sit beyond the
        MAX_OBSV_SIZE window (the observation truncates the queue in FCFS
        order, §3.3.2).  The agent has no valid action there, so the
        environment declines the opportunity on its behalf -- the same
        behaviour the deployed :class:`RLBackfillPolicy` exhibits -- and moves
        on to the next decision point.  Returns ``None`` when the episode
        finishes while advancing.

        Only the cheap mask half of the encoding
        (:meth:`ObservationBuilder.prepare`) runs here; callers encode the
        observation either per decision (:meth:`encode_observation`) or
        batched across lanes (:meth:`ObservationBuilder.encode_batch` via
        :meth:`pending_encode`).
        """
        assert self._generator is not None
        while True:
            queue, mask, slots = self.builder.prepare(self._decision)
            if mask.any():
                self._encode_queue = queue
                self._slot_jobs = slots
                self._mask = mask
                return mask
            try:
                self._decision = self._generator.send(None)
            except StopIteration as stop:
                self.last_result = stop.value
                self._generator = None
                self._decision = None
                return None

    def pending_encode(
        self,
    ) -> Tuple[DecisionPoint, List[Job], np.ndarray, np.ndarray]:
        """The current decision point, prepared for feature encoding.

        Returns ``(decision, queue, static_rows, can_run)`` in the item
        format of :meth:`ObservationBuilder.encode_batch`: ``static_rows``
        carries the episode's pre-gathered per-job columns for the slot
        queue, and ``can_run`` is the candidate mask over those slots (the
        action mask restricted to the queue, which is exactly the can-run
        feature because the reserved job is never a candidate).  The
        vectorized engine collects these from every active lane and encodes
        them in one :meth:`ObservationBuilder.encode_batch` call.
        """
        if self._decision is None or self._mask is None:
            raise RuntimeError("no pending decision point to encode")
        queue = self._encode_queue
        indices = np.fromiter(
            (self._static_index[j.job_id] for j in queue), dtype=np.intp, count=len(queue)
        )
        return (
            self._decision,
            queue,
            self._static_rows[indices],
            self._mask[: len(queue)],
        )

    def encode_observation(self) -> np.ndarray:
        """Encode the current decision point's observation vector."""
        return self.builder.encode_batch([self.pending_encode()])[0]

    def reset(
        self, jobs: Sequence[Job] | None = None, encode: bool = True
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Sample (or accept) a job sequence and run to the first decision point.

        With ``encode=False`` the returned observation is ``None`` and the
        caller encodes later through :meth:`pending_encode` -- the vectorized
        engine and the multiprocess lane pool use this to batch the first
        observation of restarted lanes together with the stepped lanes'
        observations in one :meth:`ObservationBuilder.encode_batch` pass.
        """
        mask = self._reset_to_mask(jobs)
        observation = self.encode_observation() if encode else None
        return observation, mask

    def _reset_to_mask(self, jobs: Sequence[Job] | None) -> np.ndarray:
        """Start a new episode and return the first action mask."""
        if jobs is not None:
            mask = self._start_episode(jobs)
            if mask is None:
                raise ValueError(
                    "the provided job sequence produced no backfilling opportunity; "
                    "the RL agent has no decisions to make on it"
                )
            return mask
        if self.training_pool_size is not None and len(self._pool) >= self.training_pool_size:
            index = int(self.rng.integers(0, len(self._pool)))
            mask = self._start_episode(
                self._pool[index], cached_baseline=self._pool_baselines[index]
            )
            if mask is None:  # pragma: no cover - pool entries were validated on insert
                raise RuntimeError("pooled training sequence lost its backfilling opportunities")
            return mask
        best: Tuple[float, Optional[List[Job]]] = (-1.0, None)
        for _ in range(self.max_reset_attempts):
            sampled = sample_sequence(self.trace, self.sequence_length, seed=self.rng)
            mask = self._start_episode(sampled)
            if mask is None:
                continue
            contended_enough = (
                self.min_baseline_bsld is None or self.baseline_bsld >= self.min_baseline_bsld
            )
            if contended_enough:
                if self.training_pool_size is not None:
                    self._pool.append(sampled)
                    self._pool_baselines.append(self.baseline_bsld)
                return mask
            if self.baseline_bsld > best[0]:
                best = (self.baseline_bsld, sampled)
        if best[1] is not None:
            # No sequence met the contention filter; fall back to the most
            # contended one seen so the episode can still proceed.
            mask = self._start_episode(best[1], cached_baseline=best[0])
            if mask is not None:
                if self.training_pool_size is not None:
                    self._pool.append(best[1])
                    self._pool_baselines.append(best[0])
                return mask
        raise RuntimeError(
            f"could not sample a job sequence with backfilling opportunities from trace "
            f"{self.trace.name!r} after {self.max_reset_attempts} attempts"
        )

    def step(self, action: int, encode: bool = True) -> StepResult:
        """Apply ``action`` and advance to the next actionable decision point.

        With ``encode=False`` the returned ``StepResult.observation`` is
        ``None`` and the caller encodes later -- the vectorized engine uses
        this to batch the feature encoding of all lanes into one numpy pass
        (:meth:`pending_encode` exposes what to encode).
        """
        if self._generator is None or self._decision is None or self._mask is None:
            raise RuntimeError("step() called before reset() or after the episode ended")
        self.validate_action(action, self._mask)
        chosen = self.builder.action_to_job(action, self._slot_jobs)

        reward = 0.0
        runtime_for_check = (
            chosen.runtime
            if self.reward_config.violation_uses_actual_runtime
            else float(self.estimator(chosen))
        )
        if self._decision.would_delay(chosen, runtime_for_check):
            reward += self.reward_config.delay_penalty
            self.episode_violations += 1

        self.episode_steps += 1
        try:
            self._decision = self._generator.send(chosen)
        except StopIteration as stop:
            self.last_result = stop.value
            self._generator = None
            self._decision = None
            return self._terminal_step(reward)

        mask = self._advance_to_actionable()
        if mask is None:
            # The rest of the sequence scheduled itself without another
            # actionable decision point.
            return self._terminal_step(reward)
        observation = self.encode_observation() if encode else None
        return StepResult(observation=observation, mask=mask, reward=reward, done=False, info={})

    def _terminal_step(self, reward_so_far: float) -> StepResult:
        """Build the terminal :class:`StepResult` once the simulation finished."""
        result = self.last_result
        if result is None:  # pragma: no cover - defensive
            raise RuntimeError("terminal step requested before the simulation finished")
        reward = reward_so_far + self._final_reward(result)
        observation = np.zeros(self.observation_size, dtype=np.float64)
        mask = np.zeros(self.num_actions, dtype=np.float64)
        info = {
            "bsld": result.bsld,
            "baseline_bsld": self.baseline_bsld,
            "violations": self.episode_violations,
            "steps": self.episode_steps,
        }
        return StepResult(observation=observation, mask=mask, reward=reward, done=True, info=info)

    # -- reward ---------------------------------------------------------------
    def _final_reward(self, result: SimulationResult) -> float:
        """Percentage bounded-slowdown improvement over the SJF-backfill baseline."""
        if not np.isfinite(self.baseline_bsld) or self.baseline_bsld <= 0:
            return 0.0
        improvement = (self.baseline_bsld - result.bsld) / self.baseline_bsld
        improvement = max(improvement, self.reward_config.min_final_reward)
        return self.reward_config.final_reward_scale * improvement

    # -- evaluation helper ------------------------------------------------------
    def evaluate_baselines(self, jobs: Sequence[Job]) -> dict[str, float]:
        """bsld of the base policy with several heuristic backfills on ``jobs``.

        Used by examples and tests to compare the trained agent against
        EASY-style baselines on exactly the same sequence.
        """
        from repro.prediction.predictors import ActualRuntime
        from repro.scheduler.backfill.none import NoBackfill

        results = {}
        for label, backfill, estimator in (
            ("no-backfill", NoBackfill(), self.estimator),
            ("easy", EasyBackfill(), UserEstimate()),
            ("easy-ar", EasyBackfill(), ActualRuntime()),
            ("easy-sjf", EasyBackfill(order="sjf"), self.estimator),
        ):
            simulator = Simulator(
                num_processors=self.num_processors,
                policy=self.policy,
                estimator=estimator,
                capacity_schedule=self.capacity_schedule,
                node_failures=self.node_failures,
                restart_policy=self.restart_policy,
                topology=self.topology,
                allocator=self.allocator,
            )
            results[label] = simulator.run(jobs, backfill=backfill).bsld
        return results
