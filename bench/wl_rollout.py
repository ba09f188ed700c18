"""``rollout-local-16``: trajectory collection with no PPO update.

``Trainer.collect_rollouts`` on 16 in-process lanes over SDSC-SP2, 256-job
sequences, 32 queue slots, training pools warmed in set-up.  One operation is
one block of trajectories into a fresh ``TrajectoryBuffer``; work is counted
in decisions.  It exercises generator-protocol simulator stepping,
``encode_batch`` and the batched (row-block 16) forward, and bypasses
everything the PPO update does.
"""

from __future__ import annotations

import time

from benchlib import Region, metric
from layers import (
    add_engine_delta, engine_rows, forward_rollout_micro, overhead_ratio, ring_micro, set_obs,
    timeit,
)
from repro.core import (
    BackfillEnvironment, ObservationConfig, RLBackfillAgent, Trainer, TrainerConfig,
)
from repro.obs import engine_stats_delta
from repro.rl import TrajectoryBuffer
from repro.workloads import load_trace

#: Every lane's training pool and action-sampling stream come from this seed
#: in every run; the run's ``--seed`` gives the agent its weights, and so
#: every trajectory.  (Same rule as ``wl_train``: a fixed population of
#: sequences, a seeded policy walking through it.)
POOL_SEED = 0

SIZES = {
    "full": {
        "lanes": 16, "block": 64, "sequence_length": 256, "slots": 32, "trace_jobs": 4000,
        "pool": 4, "pool_blocks": 3,
    },
    "smoke": {
        "lanes": 4, "block": 8, "sequence_length": 64, "slots": 16, "trace_jobs": 1500,
        "pool": 2, "pool_blocks": 1,
    },
}


def _trainer(seed: int, size: dict, backend: str) -> Trainer:
    environment = BackfillEnvironment(
        load_trace("SDSC-SP2", num_jobs=size["trace_jobs"]),
        policy="FCFS",
        sequence_length=size["sequence_length"],
        observation_config=ObservationConfig(max_queue_size=size["slots"]),
        seed=POOL_SEED,
        training_pool_size=size["pool"],
    )
    agent = RLBackfillAgent(observation_config=environment.observation_config, seed=seed)
    config = TrainerConfig(
        epochs=1, trajectories_per_epoch=size["block"], num_envs=size["lanes"],
        backend=backend, num_workers=2 if backend == "process" else None,
    )
    trainer = Trainer(environment, agent, config, seed=POOL_SEED)
    # Fill every lane's training pool, so measured resets reuse the cached
    # baseline simulations as a running training job does.
    trainer.collect_rollouts(TrajectoryBuffer(), 2 * size["lanes"])
    return trainer


def setup(name: str, seed: int, size: dict) -> dict:
    return {"trainer": _trainer(seed, size, "local"), "seed": seed, "size": size}


def _block(trainer: Trainer, trajectories: int) -> dict:
    buffer = TrajectoryBuffer()
    started = time.perf_counter()
    infos = trainer.collect_rollouts(buffer, trajectories)
    wall = time.perf_counter() - started
    decisions = sum(info["episode_steps"] for info in infos)
    return {
        "wall_s": wall, "decisions": decisions, "trajectories": len(infos),
        "ok": len(infos) == trajectories and decisions == len(buffer),
        "bsld": sum(info["bsld"] for info in infos) / len(infos),
    }


def _lane_pool_rows(seed: int, size: dict) -> dict:
    """The same blocks through the multiprocess lane pool (2 workers, lockstep)."""
    with _trainer(seed, size, "process") as trainer:
        before = trainer.vec_env.stats()
        blocks = [_block(trainer, size["block"]) for _ in range(size["pool_blocks"])]
        delta = engine_stats_delta(trainer.vec_env.stats(), before)
    wall = sum(block["wall_s"] for block in blocks)
    return {
        "rl.lane_pool.decisions_per_s": metric(
            sum(block["decisions"] for block in blocks) / wall, "1/s"
        ),
        "rl.lane_pool.result_wait_s": metric(float(delta.get("result_wait_s", 0.0)), "s"),
        "rl.lane_pool.worker_idle_fraction": metric(
            float(delta.get("worker_idle_fraction", 0.0)), "ratio"
        ),
    }


def _lane_micro(trainer: Trainer) -> dict:
    """``encode_batch`` on one captured decision point per lane; a warm reset."""
    lanes = trainer.vec_env.envs
    for lane in lanes:
        lane.reset(encode=False)
    items = [lane.pending_encode() for lane in lanes]
    builder = lanes[0].builder
    encode_s = timeit(lambda: builder.encode_batch(items), 200)
    reset_s = timeit(lanes[0].reset, 20)
    return {
        "core.observation.encode_rows_per_s": metric(len(items) / encode_s, "1/s"),
        "core.environment.reset_ms": metric(reset_s * 1e3, "ms"),
    }


def measure(state: dict, seconds: float, traced: bool) -> dict:
    trainer: Trainer = state["trainer"]
    size = state["size"]
    blocks, engine = [], {}
    region = Region(seconds)
    while region.open():
        obs_on = traced and len(blocks) % 2 == 0
        set_obs(obs_on)
        before = trainer.vec_env.stats()
        block = _block(trainer, size["block"])
        block["obs_on"] = obs_on
        if obs_on:
            add_engine_delta(engine, trainer.vec_env.stats(), before)
        blocks.append(block)
        region.done(block["decisions"], block["wall_s"], obs_on=obs_on)
    region.close()
    set_obs(False)

    decisions = sum(block["decisions"] for block in blocks)
    result = {
        "attempted": sum(block["trajectories"] for block in blocks),
        "failed": sum(block["trajectories"] for block in blocks if not block["ok"]),
        "checks": {"blocks_complete": all(block["ok"] for block in blocks)},
        "work": decisions,
        "region": region,
        "info": {
            "blocks": len(blocks), "decisions": decisions,
            "decisions_first_block": blocks[0]["decisions"],
        },
        "named": {},
        "layers": {},
    }
    if not traced:
        return result

    on = [block for block in blocks if block["obs_on"]]
    config = trainer.agent.observation_config
    layers = {
        "obs.traced_wall_s": metric(sum(block["wall_s"] for block in on), "s"),
        "scheduler.metrics.bsld_mean": metric(blocks[0]["bsld"], "ratio"),
    }
    layers.update(engine_rows(engine, size["lanes"]))
    layers.update(forward_rollout_micro(trainer.agent, size["lanes"]))
    layers.update(_lane_micro(trainer))
    layers.update(ring_micro(size["lanes"], config.observation_size, config.num_actions))
    layers.update(_lane_pool_rows(state["seed"], size))
    layers.update(overhead_ratio(region.ops))
    result["layers"] = layers
    return result
