"""Rollout-throughput benchmark for the multiprocess lane pool.

Measures PPO rollout collection in decisions per second on the same
backfill-dense workload as ``test_bench_vec_rollout.py``, comparing:

* ``vec[16]`` -- the single-process 16-lane :class:`VecBackfillEnv` engine
  (the PR 1 baseline this subsystem scales out);
* ``pool[W]x16`` for W in {1, 2, 4} -- the same 16 lanes sharded across W
  worker processes (:class:`~repro.rl.lane_pool.ProcessLanePool`): simulator
  stepping and feature encoding run in the workers, the batched policy
  forward pass stays in the parent, and observations/actions cross process
  boundaries through shared-memory rings with drain-phase work stealing
  keeping the batch full.

Acceptance (ISSUE 2): on a machine with >= {REQUIRED_CORES} usable cores the
4-worker pool must collect decisions/sec above the single-process 16-lane
engine.  Pure-Python simulator stepping dominates the rollout cost
(~50us/decision), so sharding it across cores is where the speedup comes
from; on fewer cores the pool cannot win by construction (the workers
time-slice one core and pay IPC on top), so the assertion is skipped --
loudly -- and the measured ratios are still recorded in the benchmark JSON
for the CI trend check.
"""

from __future__ import annotations

import time

import pytest

from repro.core import BackfillEnvironment, RLBackfillAgent, Trainer, TrainerConfig
from repro.core.observation import ObservationConfig
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.ipc import available_worker_count

from test_bench_vec_rollout import (
    MAX_QUEUE,
    POOL_SIZE,
    SEQUENCE_LENGTH,
    backfill_dense_trace,
)

NUM_LANES = 16
WORKER_COUNTS = (1, 2, 4)
#: Episodes collected per measured configuration.
TRAJECTORIES = 32
#: Episodes collected before measuring (fills the lanes' training pools so
#: measured resets reuse cached baseline simulations).
WARMUP_TRAJECTORIES = 4 * NUM_LANES
#: Cores needed for the pool[4] > vec[16] acceptance assertion to be fair.
REQUIRED_CORES = 4


def make_trainer(trace, backend: str, num_workers: int | None = None) -> Trainer:
    env = BackfillEnvironment(
        trace,
        policy="FCFS",
        sequence_length=SEQUENCE_LENGTH,
        observation_config=ObservationConfig(max_queue_size=MAX_QUEUE),
        seed=7,
        training_pool_size=POOL_SIZE,
    )
    agent = RLBackfillAgent(observation_config=env.observation_config, seed=7)
    config = TrainerConfig(
        epochs=1,
        trajectories_per_epoch=4,
        num_envs=NUM_LANES,
        backend=backend,
        num_workers=num_workers,
    )
    return Trainer(env, agent, config, seed=7)


def warm_and_measure(trainer: Trainer, repeats: int = 2) -> float:
    """Best-of-``repeats`` decisions/sec after a pool-filling warmup (so
    measured resets reuse cached baselines)."""
    trainer.collect_rollouts(TrajectoryBuffer(), WARMUP_TRAJECTORIES)
    best = 0.0
    for _ in range(repeats):
        buffer = TrajectoryBuffer()
        start = time.perf_counter()
        infos = trainer.collect_rollouts(buffer, TRAJECTORIES)
        elapsed = time.perf_counter() - start
        decisions = sum(info["episode_steps"] for info in infos)
        best = max(best, decisions / elapsed)
    return best


@pytest.mark.benchmark(group="lane-pool")
def test_bench_lane_pool(benchmark):
    trace = backfill_dense_trace()
    cores = available_worker_count()

    results = {}
    local = make_trainer(trace, backend="local")
    results["vec[16]"] = warm_and_measure(local)

    for workers in WORKER_COUNTS[:-1]:
        trainer = make_trainer(trace, backend="process", num_workers=workers)
        try:
            results[f"pool[{workers}]x16"] = warm_and_measure(trainer)
        finally:
            trainer.close()

    headline = make_trainer(trace, backend="process", num_workers=WORKER_COUNTS[-1])
    try:
        results[f"pool[{WORKER_COUNTS[-1]}]x16"] = benchmark.pedantic(
            warm_and_measure,
            args=(headline,),
            rounds=1,
            iterations=1,
            warmup_rounds=0,
        )
    finally:
        headline.close()

    speedup_pool4 = results["pool[4]x16"] / results["vec[16]"]
    overhead_pool1 = results["pool[1]x16"] / results["vec[16]"]
    benchmark.extra_info.update(
        {f"{key}_decisions_per_sec": round(value, 1) for key, value in results.items()}
    )
    benchmark.extra_info["speedup_pool4_vs_vec16"] = round(speedup_pool4, 3)
    benchmark.extra_info["overhead_pool1_vs_vec16"] = round(overhead_pool1, 3)
    benchmark.extra_info["usable_cores"] = cores
    print(
        "\nrollout throughput (decisions/sec): "
        + ", ".join(f"{key}={value:,.0f}" for key, value in results.items())
        + f"; pool[4] vs vec[16]: {speedup_pool4:.2f}x"
        + f"; pool[1] IPC overhead: {overhead_pool1:.2f}x"
        + f"; usable cores: {cores}"
    )

    # Sanity on every machine: the pool actually collects work.
    assert all(value > 0 for value in results.values()), results
    if cores >= REQUIRED_CORES:
        assert speedup_pool4 > 1.0, (
            f"4-worker pool at {results['pool[4]x16']:.0f} decisions/sec does not "
            f"beat the single-process 16-lane engine at {results['vec[16]']:.0f} "
            f"on {cores} cores: {results}"
        )
    else:
        pytest.skip(
            f"the pool[4] > vec[16] assertion needs >= {REQUIRED_CORES} usable cores "
            f"(found {cores}); measured ratios recorded in the benchmark JSON"
        )
