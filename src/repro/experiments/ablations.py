"""Ablation studies on RLBackfilling design choices.

The paper fixes several design parameters without ablation (the delay-violation
penalty, the observation size MAX_OBSV_SIZE, and the heuristic baseline used
in the reward).  These drivers quantify their impact, so that each of those
choices is backed by a measurement:

* ``delay_penalty`` -- how strongly the agent is punished for backfills that
  would delay the reserved job.
* ``max_queue_size`` -- how many waiting jobs the agent can observe/choose from.
* ``backfill_heuristics`` -- how the heuristic strategies (no backfilling,
  EASY, EASY-AR, conservative, greedy) compare on the same sequences, which
  frames how much headroom a learned policy has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.environment import RewardConfig
from repro.core.observation import ObservationConfig
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.runner import (
    SchedulingConfiguration,
    evaluate_strategy,
    resolve_trace,
    train_rlbackfilling,
)
from repro.prediction.predictors import ActualRuntime, UserEstimate
from repro.scheduler.backfill.conservative import ConservativeBackfill
from repro.scheduler.backfill.easy import EasyBackfill, GreedyBackfill
from repro.scheduler.backfill.none import NoBackfill
from repro.utils.rng import SeedLike, derive_seed, spawn_rngs
from repro.utils.tables import format_table
from repro.workloads.job import Trace
from repro.workloads.sampling import sample_sequence

__all__ = ["AblationResult", "run_ablations", "run_heuristic_comparison"]

DEFAULT_DELAY_PENALTIES = (0.0, -0.5, -2.0, -5.0)
DEFAULT_QUEUE_SIZES = (16, 32, 64)


@dataclass
class AblationResult:
    """bsld per ablation setting."""

    trace_name: str
    policy_name: str
    delay_penalty: Dict[float, float] = field(default_factory=dict)
    queue_size: Dict[int, float] = field(default_factory=dict)
    heuristics: Dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        sections = []
        if self.delay_penalty:
            sections.append(
                format_table(
                    ["delay penalty", "bsld"],
                    sorted(self.delay_penalty.items()),
                    title=f"Ablation -- delay-violation penalty ({self.trace_name}, {self.policy_name})",
                )
            )
        if self.queue_size:
            sections.append(
                format_table(
                    ["MAX_OBSV_SIZE", "bsld"],
                    sorted(self.queue_size.items()),
                    title="Ablation -- observation size",
                )
            )
        if self.heuristics:
            sections.append(
                format_table(
                    ["heuristic", "bsld"],
                    list(self.heuristics.items()),
                    title="Heuristic backfilling comparison",
                )
            )
        return "\n\n".join(sections)


def _evaluation_sequences(trace: Trace, scale: ExperimentScale, seed: SeedLike):
    rngs = spawn_rngs(seed, scale.eval_samples)
    return [sample_sequence(trace, scale.eval_sequence_length, seed=rng) for rng in rngs]


def run_heuristic_comparison(
    scale: ExperimentScale | str = "quick",
    trace: str | Trace = "SDSC-SP2",
    policy: str = "FCFS",
    seed: SeedLike = 0,
) -> Dict[str, float]:
    """bsld of the heuristic backfilling strategies on the same sequences."""
    scale = get_scale(scale)
    trace = resolve_trace(trace, scale)
    sequences = _evaluation_sequences(trace, scale, seed)
    configurations = [
        SchedulingConfiguration("no-backfill", policy, NoBackfill(), UserEstimate()),
        SchedulingConfiguration("EASY", policy, EasyBackfill(), UserEstimate()),
        SchedulingConfiguration("EASY-AR", policy, EasyBackfill(), ActualRuntime()),
        SchedulingConfiguration("EASY-SJF", policy, EasyBackfill(order="sjf"), UserEstimate()),
        SchedulingConfiguration("conservative", policy, ConservativeBackfill(), UserEstimate()),
        SchedulingConfiguration("greedy", policy, GreedyBackfill(), UserEstimate()),
    ]
    return {
        configuration.label: evaluate_strategy(trace, configuration, sequences)
        for configuration in configurations
    }


def run_ablations(
    scale: ExperimentScale | str = "quick",
    trace: str | Trace = "SDSC-SP2",
    policy: str = "FCFS",
    delay_penalties: Sequence[float] = DEFAULT_DELAY_PENALTIES,
    queue_sizes: Sequence[int] = DEFAULT_QUEUE_SIZES,
    include_heuristics: bool = True,
    seed: SeedLike = 0,
) -> AblationResult:
    """Train small agents under each ablation setting and evaluate them."""
    scale = get_scale(scale)
    trace = resolve_trace(trace, scale)
    sequences = _evaluation_sequences(trace, scale, seed)
    result = AblationResult(trace_name=trace.name, policy_name=policy)

    for index, penalty in enumerate(delay_penalties):
        model = train_rlbackfilling(
            trace,
            policy=policy,
            scale=scale,
            seed=derive_seed(seed, 900 + index),
            reward_config=RewardConfig(delay_penalty=penalty),
        )
        result.delay_penalty[penalty] = evaluate_strategy(
            trace, SchedulingConfiguration.rl(policy, model.agent), sequences
        )

    for index, size in enumerate(queue_sizes):
        sized_scale = get_scale(scale)
        sized_scale = ExperimentScale(
            name=f"{sized_scale.name}-q{size}",
            trace_jobs=sized_scale.trace_jobs,
            eval_sequence_length=sized_scale.eval_sequence_length,
            eval_samples=sized_scale.eval_samples,
            train_sequence_length=sized_scale.train_sequence_length,
            max_queue_size=size,
            trainer=sized_scale.trainer,
        )
        model = train_rlbackfilling(
            trace, policy=policy, scale=sized_scale, seed=derive_seed(seed, 950 + index)
        )
        result.queue_size[size] = evaluate_strategy(
            trace, SchedulingConfiguration.rl(policy, model.agent), sequences
        )

    if include_heuristics:
        result.heuristics = run_heuristic_comparison(scale, trace, policy, seed=seed)
    return result
