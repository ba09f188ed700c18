"""Shared evaluation and training helpers used by every experiment driver.

Fair comparison is handled here: for a given trace, every scheduling
configuration (policy x backfill x estimator) is evaluated on the **same**
sampled job sequences, and the mean bounded slowdown over the samples is
reported, matching the paper's protocol of 10 independently seeded samples
per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.agent import RLBackfillAgent
from repro.core.environment import BackfillEnvironment, RewardConfig
from repro.core.observation import ObservationConfig
from repro.core.rlbackfill import RLBackfillPolicy
from repro.core.trainer import Trainer, TrainingHistory
from repro.experiments.config import ExperimentScale, get_scale
from repro.prediction.predictors import ActualRuntime, RuntimeEstimator, UserEstimate
from repro.scheduler.backfill.base import BackfillStrategy
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.policies import PriorityPolicy, get_policy
from repro.scheduler.simulator import SimulationResult, Simulator
from repro.utils.rng import SeedLike, as_rng, spawn_rngs
from repro.workloads.job import Job, Trace
from repro.workloads.archive import load_trace
from repro.workloads.sampling import sample_sequence

__all__ = [
    "SchedulingConfiguration",
    "evaluate_strategy",
    "evaluate_strategy_results",
    "evaluate_configurations",
    "TrainedModel",
    "train_rlbackfilling",
    "load_or_train_agent",
    "resolve_trace",
]


def resolve_trace(trace: str | Trace, scale: ExperimentScale) -> Trace:
    """Load a trace by name at the scale's job count, or pass a Trace through."""
    if isinstance(trace, Trace):
        return trace
    return load_trace(trace, num_jobs=scale.trace_jobs)


@dataclass(frozen=True, slots=True)
class SchedulingConfiguration:
    """One column of an evaluation table: policy + backfill + estimator."""

    label: str
    policy: PriorityPolicy | str
    backfill: BackfillStrategy
    estimator: RuntimeEstimator

    @classmethod
    def easy(cls, policy: str, label: str | None = None) -> "SchedulingConfiguration":
        """Base policy + EASY backfilling with the user request time."""
        return cls(
            label=label or f"{policy}+EASY",
            policy=policy,
            backfill=EasyBackfill(),
            estimator=UserEstimate(),
        )

    @classmethod
    def easy_ar(cls, policy: str, label: str | None = None) -> "SchedulingConfiguration":
        """Base policy + EASY backfilling with the actual runtime (ideal prediction)."""
        return cls(
            label=label or f"{policy}+EASY-AR",
            policy=policy,
            backfill=EasyBackfill(),
            estimator=ActualRuntime(),
        )

    @classmethod
    def rl(
        cls, policy: str, agent: RLBackfillAgent, label: str | None = None
    ) -> "SchedulingConfiguration":
        """Base policy + trained RLBackfilling agent."""
        return cls(
            label=label or f"{policy}+RLBF",
            policy=policy,
            backfill=RLBackfillPolicy(agent),
            estimator=UserEstimate(),
        )


def _sample_evaluation_sequences(
    trace: Trace, scale: ExperimentScale, seed: SeedLike
) -> List[List[Job]]:
    rngs = spawn_rngs(seed, scale.eval_samples)
    return [
        sample_sequence(trace, scale.eval_sequence_length, seed=rng) for rng in rngs
    ]


def _resolve_per_sequence(value, jobs: Sequence[Job]):
    """Resolve a per-sequence event list (capacity schedule or node failures).

    ``value`` may be ``None``, a concrete sequence of events
    (:class:`~repro.cluster.machine.DowntimeWindow` /
    :class:`~repro.faults.NodeFailure`), or a callable mapping the sequence's
    submission span (seconds) to an event list -- the form the scenario
    subsystem uses so fractional specs scale with the evaluated sequence.
    """
    if value is None:
        return None
    if callable(value):
        span = max(job.submit_time for job in jobs) - min(job.submit_time for job in jobs)
        return value(span)
    return value


def evaluate_strategy_results(
    trace: Trace,
    configuration: SchedulingConfiguration,
    sequences: Sequence[Sequence[Job]],
    capacity_schedule=None,
    node_failures=None,
    restart_policy=None,
    topology=None,
    allocator="first_fit",
) -> List[SimulationResult]:
    """Per-sequence :class:`SimulationResult` of ``configuration`` over ``sequences``."""
    results = []
    for jobs in sequences:
        simulator = Simulator(
            num_processors=trace.num_processors,
            policy=configuration.policy,
            backfill=configuration.backfill,
            estimator=configuration.estimator,
            capacity_schedule=_resolve_per_sequence(capacity_schedule, jobs),
            node_failures=_resolve_per_sequence(node_failures, jobs),
            restart_policy=restart_policy,
            topology=topology,
            allocator=allocator,
        )
        results.append(simulator.run(jobs))
    return results


def evaluate_strategy(
    trace: Trace,
    configuration: SchedulingConfiguration,
    sequences: Sequence[Sequence[Job]],
    capacity_schedule=None,
    node_failures=None,
    restart_policy=None,
) -> float:
    """Mean bounded slowdown of ``configuration`` over ``sequences``."""
    results = evaluate_strategy_results(
        trace,
        configuration,
        sequences,
        capacity_schedule=capacity_schedule,
        node_failures=node_failures,
        restart_policy=restart_policy,
    )
    return float(np.mean([result.bsld for result in results]))


def evaluate_configurations(
    trace: str | Trace,
    configurations: Sequence[SchedulingConfiguration],
    scale: ExperimentScale | str = "quick",
    seed: SeedLike = 0,
    sequences: Sequence[Sequence[Job]] | None = None,
    capacity_schedule=None,
) -> Dict[str, float]:
    """Evaluate every configuration on the same sampled sequences of ``trace``.

    ``trace`` additionally accepts a ``"scenario:<name>"`` string, which
    builds the named scenario from the registry
    (:mod:`repro.scenarios.registry`) at this call's seed: the scenario's
    transformed trace becomes the workload and its downtime windows become
    the ``capacity_schedule`` (unless one was passed explicitly).
    """
    scale = get_scale(scale)
    if isinstance(trace, str) and trace.startswith("scenario:"):
        from repro.scenarios.registry import get_scenario

        built = get_scenario(trace[len("scenario:"):]).build(
            seed=seed, num_jobs=scale.trace_jobs
        )
        trace = built.trace
        if capacity_schedule is None and built.has_downtime:
            capacity_schedule = built.capacity_schedule
    trace = resolve_trace(trace, scale)
    if sequences is None:
        sequences = _sample_evaluation_sequences(trace, scale, seed)
    return {
        configuration.label: evaluate_strategy(
            trace, configuration, sequences, capacity_schedule=capacity_schedule
        )
        for configuration in configurations
    }


@dataclass
class TrainedModel:
    """A trained RLBackfilling agent plus its provenance."""

    agent: RLBackfillAgent
    history: TrainingHistory
    trace_name: str
    policy_name: str

    @property
    def label(self) -> str:
        return f"RL-{self.trace_name}"

    def strategy(self, deterministic: bool = True) -> RLBackfillPolicy:
        return RLBackfillPolicy(self.agent, deterministic=deterministic)


def train_rlbackfilling(
    trace: str | Trace,
    policy: str | PriorityPolicy = "FCFS",
    scale: ExperimentScale | str = "quick",
    seed: SeedLike = 0,
    reward_config: RewardConfig | None = None,
    num_envs: int | None = None,
    backend: str | None = None,
    num_workers: int | None = None,
) -> TrainedModel:
    """Train an RLBackfilling agent on ``trace`` with ``policy`` as the base scheduler.

    ``num_envs`` overrides the scale's vectorized-rollout width: rollouts are
    collected by stepping that many independent environment lanes in lockstep
    with one batched policy forward pass per decision step (see
    :class:`repro.rl.vec_env.VecBackfillEnv`).  ``backend`` picks where those
    lanes live: ``"local"`` steps them in-process, ``"process"`` shards them
    across ``num_workers`` worker processes exchanging observations and
    actions through shared memory
    (:class:`repro.rl.lane_pool.ProcessLanePool`).  ``None`` keeps the
    scale's trainer configuration unchanged.
    """
    scale = get_scale(scale)
    trace = resolve_trace(trace, scale)
    policy = get_policy(policy)
    rng = as_rng(seed)
    observation_config = ObservationConfig(max_queue_size=scale.max_queue_size)
    environment = BackfillEnvironment(
        trace,
        policy=policy,
        sequence_length=scale.train_sequence_length,
        observation_config=observation_config,
        reward_config=reward_config,
        seed=rng,
        training_pool_size=scale.training_pool_size,
        min_baseline_bsld=scale.min_training_bsld,
    )
    agent = RLBackfillAgent(observation_config=observation_config, seed=rng)
    trainer_config = scale.trainer
    overrides = {}
    if num_envs is not None:
        overrides["num_envs"] = num_envs
    if backend is not None:
        overrides["backend"] = backend
    if num_workers is not None:
        overrides["num_workers"] = num_workers
    if overrides:
        trainer_config = replace(trainer_config, **overrides)
    with Trainer(environment, agent, trainer_config, seed=rng) as trainer:
        history = trainer.train()
    return TrainedModel(
        agent=agent, history=history, trace_name=trace.name, policy_name=policy.name
    )


def load_or_train_agent(
    checkpoint: str | None,
    trace: str | Trace = "lublin_256",
    policy: str | PriorityPolicy = "FCFS",
    scale: ExperimentScale | str = "smoke",
    seed: SeedLike = 0,
) -> RLBackfillAgent:
    """Load a trained agent from ``checkpoint``, training one if it is absent.

    The online scheduling service and its load harness need *some* trained
    weights without caring where they came from: a committed checkpoint on a
    developer machine, or a freshly trained smoke-scale agent on a CI runner.
    When ``checkpoint`` names an existing file it is loaded as-is; when it
    names a missing path, a quick agent is trained and saved there so repeat
    runs are warm; ``None`` trains without persisting.
    """
    from repro.core.checkpoints import load_agent, save_agent

    if checkpoint is not None:
        path = Path(checkpoint)
        if not path.suffix:
            path = path.with_suffix(".npz")
        if path.exists():
            return load_agent(path)
    model = train_rlbackfilling(trace, policy=policy, scale=scale, seed=seed)
    if checkpoint is not None:
        save_agent(model.agent, checkpoint)
    return model.agent


def standard_columns(
    trace: Trace,
    rl_models: Mapping[str, RLBackfillAgent] | None = None,
    policies: Tuple[str, ...] = ("FCFS", "SJF"),
    include_reference_policies: bool = True,
) -> List[SchedulingConfiguration]:
    """The Table 4 column set for one trace.

    ``rl_models`` maps a base-policy name to a trained agent; EASY columns are
    produced only when the trace has user estimates (synthetic Lublin traces
    report only the EASY-AR-equivalent column, as in the paper).
    """
    columns: List[SchedulingConfiguration] = []
    for policy in policies:
        if trace.has_user_estimates:
            columns.append(SchedulingConfiguration.easy(policy))
        columns.append(SchedulingConfiguration.easy_ar(policy))
        if rl_models and policy in rl_models:
            columns.append(SchedulingConfiguration.rl(policy, rl_models[policy]))
    if include_reference_policies:
        for policy in ("WFP3", "F1"):
            if trace.has_user_estimates:
                columns.append(SchedulingConfiguration.easy(policy))
            else:
                columns.append(SchedulingConfiguration.easy_ar(policy))
    return columns
