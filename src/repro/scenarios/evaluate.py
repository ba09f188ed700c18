"""Multi-policy scenario evaluation: cells, aggregation, and the JSON report.

One **cell** is (scenario x policy): the scenario's transformed trace is
sampled into the scale's evaluation sequences (the *same* sequences for every
policy of that scenario, the fair-comparison protocol of
:mod:`repro.experiments.runner`), each sequence is scheduled to completion
under the policy -- honouring the scenario's downtime windows -- and the
per-sequence :func:`repro.scheduler.metrics.compute_metrics` outputs are
averaged into one metrics row.  Cells are independent, so
:func:`evaluate_suite` fans them across a standard-library process pool
(:class:`concurrent.futures.ProcessPoolExecutor`); a cell takes one index in
and returns its row, so nothing heavier than a pickled dict crosses it.

The report is **seed-deterministic by construction**: every simulated float
is a pure function of ``(suite, scale, seed, policies)``, cells are keyed --
never ordered by completion -- and the serializer sorts keys, so two runs
with the same seed produce byte-identical JSON regardless of worker count.
Wall-clock telemetry is therefore kept out of the report and returned as a
separate timing document (``scripts/check_benchmark_trend.py`` ingests it
with ``--scenario-report``).
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.agent import RLBackfillAgent
from repro.core.checkpoints import agent_from_state
from repro.core.rlbackfill import RLBackfillPolicy
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.runner import (
    SchedulingConfiguration,
    evaluate_strategy_results,
    train_rlbackfilling,
)
from repro.prediction.predictors import UserEstimate
from repro.scenarios.registry import BuiltScenario, ScenarioSpec, suite_scenarios
from repro.scheduler.backfill.conservative import ConservativeBackfill
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.metrics import JobRecord
from repro.utils.rng import SeedLike, derive_seed, spawn_rngs
from repro.workloads.job import Job
from repro.workloads.sampling import sample_sequence

__all__ = [
    "METRIC_FIELDS",
    "AgentBundle",
    "HEURISTIC_POLICIES",
    "DEFAULT_POLICIES",
    "train_evaluation_agent",
    "make_configuration",
    "scenario_sequences",
    "evaluate_cell",
    "build_report",
    "report_to_json",
    "evaluate_suite",
]

#: Fixed order of the per-cell aggregate metrics (and of the report's
#: ``metric_fields``), so append-only.
METRIC_FIELDS: Tuple[str, ...] = (
    "num_jobs",
    "average_bounded_slowdown",
    "average_slowdown",
    "average_wait_time",
    "average_turnaround",
    "max_wait_time",
    "makespan",
    "utilization",
    "backfilled_jobs",
    "decision_count",
    "window_utilization",
    "preemption_count",
    "requeue_count",
)

#: Policies available without a trained agent.
HEURISTIC_POLICIES: Tuple[str, ...] = ("easy", "conservative")

#: The acceptance-criteria policy set: two heuristics plus the learned policy.
DEFAULT_POLICIES: Tuple[str, ...] = ("easy", "conservative", "rl")


@dataclass(frozen=True)
class AgentBundle:
    """A trained agent in wire form: plain arrays + the observation shape.

    Workers rebuild the agent from this (instead of pickling live network
    objects) so the pool's spawn path stays cheap and version-stable.  The
    feature width and hidden sizes are read back off the arrays, exactly as
    :func:`~repro.core.checkpoints.load_agent` does.
    """

    max_queue_size: int
    kernel_state: Mapping[str, np.ndarray]
    value_state: Mapping[str, np.ndarray]

    @classmethod
    def from_agent(cls, agent: RLBackfillAgent) -> "AgentBundle":
        state = agent.state_dict()
        return cls(
            max_queue_size=agent.observation_config.max_queue_size,
            kernel_state=dict(state["kernel"]),
            value_state=dict(state["value"]),
        )

    def to_agent(self) -> RLBackfillAgent:
        return agent_from_state(
            self.max_queue_size, dict(self.kernel_state), dict(self.value_state)
        )


def train_evaluation_agent(
    scale: ExperimentScale | str = "quick",
    seed: SeedLike = 0,
    base_trace: str = "SDSC-SP2",
) -> AgentBundle:
    """Train the suite's RL policy on the *clean* base trace.

    The robustness story evaluates a policy trained on an unperturbed
    workload across perturbed scenarios, so the agent never sees the
    transforms or downtime windows during training.  Training is
    seed-deterministic (batch-invariant kernels + the seeded trainer), which
    keeps the whole report byte-reproducible.
    """
    model = train_rlbackfilling(
        base_trace, policy="FCFS", scale=scale, seed=derive_seed(seed, 0x52_4C), backend="local"
    )
    return AgentBundle.from_agent(model.agent)


def make_configuration(
    policy: str, agent_bundle: Optional[AgentBundle] = None
) -> SchedulingConfiguration:
    """Build the :class:`SchedulingConfiguration` for a policy name.

    ``rl`` wraps the bundle's agent in a deterministic
    :class:`RLBackfillPolicy` with the serial row-block hint (``row_block=1``):
    scenario evaluation forwards one decision at a time, so the deployment
    site opts out of the 16-row padding the batched rollout engines need.
    """
    if policy == "easy":
        return SchedulingConfiguration(
            label="easy", policy="FCFS", backfill=EasyBackfill(), estimator=UserEstimate()
        )
    if policy == "conservative":
        # Bounded reservation depth / candidate attempts (the Slurm
        # bf_max_job_test discipline): surge scenarios legitimately build
        # queues hundreds deep, where the textbook unbounded re-plan is
        # quadratic per decision and a single hyper-contended sequence can
        # cost minutes.  The no-delay guarantee covers the first 64 waiting
        # jobs -- beyond what the surged sequences' windows typically hold.
        return SchedulingConfiguration(
            label="conservative",
            policy="FCFS",
            backfill=ConservativeBackfill(reservation_depth=64, max_candidates=16),
            estimator=UserEstimate(),
        )
    if policy == "rl":
        if agent_bundle is None:
            raise ValueError("the 'rl' policy needs a trained AgentBundle")
        strategy = RLBackfillPolicy(
            agent_bundle.to_agent(), deterministic=True, label="rl", row_block=1
        )
        return SchedulingConfiguration(
            label="rl", policy="FCFS", backfill=strategy, estimator=UserEstimate()
        )
    raise KeyError(
        f"unknown policy {policy!r}; available: easy, conservative, rl"
    )


def scenario_seed(seed: SeedLike, scenario_name: str) -> int:
    """Stable per-scenario sub-seed (name-keyed, so suite order is irrelevant)."""
    if isinstance(seed, np.random.Generator):
        raise TypeError("scenario evaluation requires a reproducible seed, not a Generator")
    return derive_seed(seed, zlib.crc32(scenario_name.encode("utf-8")))


def scenario_sequences(
    built: BuiltScenario, scale: ExperimentScale, seed: SeedLike
) -> List[List[Job]]:
    """The scenario's evaluation sequences (shared by every policy cell)."""
    rngs = spawn_rngs(scenario_seed(seed, built.name), scale.eval_samples)
    return [
        sample_sequence(built.trace, scale.eval_sequence_length, seed=rng) for rng in rngs
    ]


def _window_utilization(
    records: Sequence[JobRecord], windows, num_processors: int
) -> Tuple[float, float]:
    """(busy processor-seconds inside the windows, window processor-seconds)."""
    busy = 0.0
    capacity = 0.0
    for window in windows:
        capacity += (window.end - window.start) * num_processors
        for record in records:
            overlap = min(record.end_time, window.end) - max(record.start_time, window.start)
            if overlap > 0.0:
                busy += overlap * record.job.requested_processors
    return busy, capacity


def evaluate_cell(
    built: BuiltScenario,
    policy: str,
    scale: ExperimentScale,
    seed: SeedLike,
    agent_bundle: Optional[AgentBundle] = None,
    sequences: Optional[Sequence[Sequence[Job]]] = None,
) -> Dict[str, float]:
    """Evaluate one (scenario x policy) cell into an aggregate metrics row.

    Returns a mapping over :data:`METRIC_FIELDS`: each simulated sequence's
    :class:`ScheduleMetrics` are averaged (counts too -- "jobs backfilled per
    sequence" reads more naturally across scales than a grand total).
    ``window_utilization`` is the busy fraction of *nameplate* capacity over
    the scenario's downtime windows -- the number the acceptance criterion
    pins below 1.0 -- and ``NaN`` for scenarios without downtime.
    """
    if sequences is None:
        sequences = scenario_sequences(built, scale, seed)
    configuration = make_configuration(policy, agent_bundle)
    totals = {field: 0.0 for field in METRIC_FIELDS}
    window_busy = 0.0
    window_capacity = 0.0
    for jobs in sequences:
        span = max(job.submit_time for job in jobs) - min(job.submit_time for job in jobs)
        windows = built.capacity_schedule(span)
        failures = built.node_failures(span)
        result = evaluate_strategy_results(
            built.trace,
            configuration,
            [jobs],
            capacity_schedule=windows,
            node_failures=failures,
            restart_policy=built.restart_policy if failures else None,
            topology=built.topology,
            allocator=built.allocator,
        )[0]
        metrics = result.metrics.as_dict()
        for field in METRIC_FIELDS:
            if field in metrics:
                totals[field] += float(metrics[field])
        totals["decision_count"] += float(result.decision_count)
        totals["preemption_count"] += float(result.preemption_count)
        totals["requeue_count"] += float(result.requeue_count)
        if windows:
            busy, capacity = _window_utilization(
                result.records, windows, built.trace.num_processors
            )
            window_busy += busy
            window_capacity += capacity
    count = float(len(sequences))
    row = {field: totals[field] / count for field in METRIC_FIELDS}
    row["window_utilization"] = (
        window_busy / window_capacity if window_capacity > 0.0 else float("nan")
    )
    return row


# -- report assembly -----------------------------------------------------------

def build_report(
    suite_name: str,
    scenarios: Sequence[ScenarioSpec],
    policies: Sequence[str],
    scale: ExperimentScale,
    seed: int,
    cells: Mapping[Tuple[str, str], Mapping[str, float]],
) -> Dict[str, object]:
    """Assemble the deterministic report document from evaluated cells."""
    scenario_block: Dict[str, object] = {}
    wins: Dict[str, int] = {policy: 0 for policy in policies}
    bsld_sums: Dict[str, float] = {policy: 0.0 for policy in policies}
    for spec in scenarios:
        rows = {policy: dict(cells[(spec.name, policy)]) for policy in policies}
        ranking = sorted(
            policies, key=lambda policy: (rows[policy]["average_bounded_slowdown"], policy)
        )
        wins[ranking[0]] += 1
        for policy in policies:
            bsld_sums[policy] += rows[policy]["average_bounded_slowdown"]
        scenario_block[spec.name] = {
            **spec.describe(),
            "policies": rows,
            "ranking": ranking,
            "best_policy": ranking[0],
        }
    summary = {
        "wins": wins,
        "mean_bsld": {
            policy: bsld_sums[policy] / float(len(scenarios)) for policy in policies
        },
    }
    return {
        "suite": suite_name,
        "seed": int(seed),
        "scale": {
            "name": scale.name,
            "trace_jobs": scale.trace_jobs,
            "eval_samples": scale.eval_samples,
            "eval_sequence_length": scale.eval_sequence_length,
        },
        "policies": list(policies),
        "metric_fields": list(METRIC_FIELDS),
        "scenarios": scenario_block,
        "summary": summary,
    }


def report_to_json(report: Mapping[str, object]) -> str:
    """Canonical serialization: sorted keys, fixed separators, trailing newline.

    ``NaN`` would serialize non-portably, so it is rewritten to ``None``
    before dumping; byte-identical output across same-seed runs is part of
    the report's contract.
    """

    def _clean(value):
        if isinstance(value, float) and not np.isfinite(value):
            return None
        if isinstance(value, dict):
            return {key: _clean(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [_clean(item) for item in value]
        return value

    return json.dumps(_clean(dict(report)), indent=2, sort_keys=True, allow_nan=False) + "\n"


#: The suite a process evaluates cells of -- ``(scenarios, policies, scale,
#: seed, agent_bundle)`` -- set by :func:`_init_cells` (a pool worker's
#: initializer, or the parent itself inline), and the scenarios built so far.
_suite: tuple = ()
_built: Dict[int, Tuple[BuiltScenario, List[List[Job]]]] = {}


def _init_cells(*suite) -> None:
    global _suite
    _suite = suite
    _built.clear()


def _cell(index: int) -> Tuple[Dict[str, float], float]:
    """Evaluate cell ``index`` of the current suite: ``(metrics row, wall seconds)``.

    The scenario's trace and evaluation sequences are built on first touch
    and cached, so each process builds a scenario at most once.
    """
    scenarios, policies, scale, seed, agent_bundle = _suite
    scenario_index, policy_index = divmod(index, len(policies))
    started = time.perf_counter()
    if scenario_index not in _built:
        spec = scenarios[scenario_index]
        built = spec.build(seed=scenario_seed(seed, spec.name), num_jobs=scale.trace_jobs)
        _built[scenario_index] = built, scenario_sequences(built, scale, seed)
    built, sequences = _built[scenario_index]
    row = evaluate_cell(
        built, policies[policy_index], scale, seed, agent_bundle, sequences=sequences
    )
    return row, time.perf_counter() - started


def _run_cells(suite: tuple, num_workers: int) -> list:
    """Every cell's ``(row, wall)`` in index order; ``num_workers=0`` runs inline.

    Workers take cells as they free up, so a slow cell never stalls the
    others; results are read back in index order, never completion order.
    A failing cell, or a worker that dies, raises :class:`RuntimeError`
    naming the cell (the remote traceback chained), after the pending cells
    are cancelled and the pool is shut down.
    """
    scenarios, policies = suite[0], suite[1]
    indices = range(len(scenarios) * len(policies))
    if num_workers == 0:
        _init_cells(*suite)
        try:
            return [_cell(index) for index in indices]
        finally:
            _init_cells()  # drop the built scenarios
    from concurrent.futures import ProcessPoolExecutor

    from repro.rl.ipc import worker_context

    executor = ProcessPoolExecutor(
        min(num_workers, len(indices)),
        mp_context=worker_context(),
        initializer=_init_cells,
        initargs=suite,
    )
    try:
        futures = [executor.submit(_cell, index) for index in indices]
        results = []
        for index, future in zip(indices, futures):
            try:
                results.append(future.result())
            except Exception as exc:
                scenario_index, policy_index = divmod(index, len(policies))
                raise RuntimeError(
                    f"evaluation of cell {scenarios[scenario_index].name!r} x "
                    f"{policies[policy_index]!r} failed: {exc!r}"
                ) from exc
        return results
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def evaluate_suite(
    suite: str | Sequence[str] = "core",
    scale: ExperimentScale | str = "quick",
    seed: int = 0,
    policies: Sequence[str] = DEFAULT_POLICIES,
    num_workers: int | None = None,
    agent_bundle: Optional[AgentBundle] = None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Evaluate ``suite`` x ``policies`` and return ``(report, timing)``.

    ``num_workers`` > 0 fans the cells across that many worker processes;
    ``0`` evaluates inline.  ``None`` picks ``min(cells, available cores)``.
    The report is identical either way; only the timing document differs.
    """
    if num_workers is not None and num_workers < 0:
        raise ValueError(f"num_workers must be >= 0, got {num_workers}")
    scale = get_scale(scale)
    scenarios = suite_scenarios(suite)
    policies = list(policies)
    if "rl" in policies and agent_bundle is None:
        agent_bundle = train_evaluation_agent(scale=scale, seed=seed)
    cell_keys = [(spec.name, policy) for spec in scenarios for policy in policies]

    started = time.perf_counter()
    if num_workers is None:
        from repro.rl.ipc import available_worker_count

        num_workers = max(1, min(len(cell_keys), available_worker_count()))
    results = _run_cells((scenarios, policies, scale, seed, agent_bundle), num_workers)
    total_wall = time.perf_counter() - started
    cells = {key: row for key, (row, _) in zip(cell_keys, results)}

    report = build_report(
        suite_name=suite if isinstance(suite, str) else ",".join(suite),
        scenarios=scenarios,
        policies=policies,
        scale=scale,
        seed=seed,
        cells=cells,
    )
    # Reference cell: one representative cell re-evaluated inline and timed on
    # this same machine.  The suite/reference ratio is the hardware-relative
    # tripwire the trend check gates on -- an absolute suite wall-clock ceiling
    # would encode one runner's speed into the committed baseline.
    ref_scenario = next(
        (spec for spec in scenarios if spec.name == "baseline"), scenarios[0]
    )
    ref_policy = "easy" if "easy" in policies else policies[0]
    ref_started = time.perf_counter()
    _run_cells(([ref_scenario], [ref_policy], scale, seed, agent_bundle), 0)
    reference_cell_seconds = time.perf_counter() - ref_started

    timing = {
        "scenario_eval_wall_seconds": total_wall,
        "cells": len(cell_keys),
        "workers": num_workers,
        "cells_per_second": len(cell_keys) / total_wall if total_wall > 0 else 0.0,
        "reference_cell": f"{ref_scenario.name}/{ref_policy}",
        "reference_cell_seconds": reference_cell_seconds,
        "wall_per_reference_cell": (
            total_wall / reference_cell_seconds if reference_cell_seconds > 0 else 0.0
        ),
        "cell_wall_seconds": {
            f"{name}/{policy}": wall for (name, policy), (_, wall) in zip(cell_keys, results)
        },
    }
    return report, timing
