"""``train-sdsc-quick``: quick-scale PPO training on SDSC-SP2, 8 local lanes.

The only workload where ``rl.ppo`` / ``rl.autograd`` / ``rl.nn`` backward does
most of the work.  The harness drives the epoch loop of
``train_rlbackfilling`` itself -- collect, ``TrajectoryBuffer.get``, ``PPO.update``
-- so each phase has one stopwatch and the loop can stop at ``--seconds``.
One operation is one epoch; work is counted in environment steps (each step
is one backfill decision).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from benchlib import Region, all_finite, digest, median, metric, span_durations, sums_to
from layers import add_engine_delta, autograd_micro, engine_rows, overhead_ratio, set_obs
from repro.core import BackfillEnvironment, ObservationConfig, RLBackfillAgent, Trainer
from repro.experiments import get_scale
from repro.obs import get_tracer
from repro.rl import TrajectoryBuffer
from repro.workloads import load_trace

#: Every lane's training pool (six 256-job sequences with a baseline bounded
#: slowdown of five or more) and action-sampling stream come from this seed
#: in every run; the run's ``--seed`` gives the agent its initial weights, and
#: so every trajectory and every update.  With pools per seed the share of an
#: epoch spent collecting differed between seeds, and the rate spread 9%.
POOL_SEED = 0

#: The documented size constants (see README "Re-sizing").
SIZES = {
    "full": {"scale": "quick", "num_envs": 8, "prefix_epochs": 3},
    "smoke": {"scale": "smoke", "num_envs": 4, "prefix_epochs": 1},
}


def setup(name: str, seed: int, size: dict) -> dict:
    scale = get_scale(size["scale"])
    trace = load_trace("SDSC-SP2", num_jobs=scale.trace_jobs)
    pool_rng = np.random.default_rng(POOL_SEED)
    observation_config = ObservationConfig(max_queue_size=scale.max_queue_size)
    environment = BackfillEnvironment(
        trace,
        policy="FCFS",
        sequence_length=scale.train_sequence_length,
        observation_config=observation_config,
        seed=pool_rng,
        training_pool_size=scale.training_pool_size,
        min_baseline_bsld=scale.min_training_bsld,
    )
    agent = RLBackfillAgent(observation_config=observation_config, seed=seed)
    config = replace(scale.trainer, num_envs=size["num_envs"], backend="local")
    return {"trainer": Trainer(environment, agent, config, seed=pool_rng), "size": size}


def weights_digest(agent: RLBackfillAgent) -> str:
    state = agent.state_dict()
    blob = b"".join(
        name.encode() + np.ascontiguousarray(state[net][name]).tobytes()
        for net in sorted(state)
        for name in sorted(state[net])
    )
    return digest(blob)


def _epoch(trainer: Trainer) -> dict:
    config = trainer.config
    t0 = time.perf_counter()
    buffer = TrajectoryBuffer(gamma=config.ppo.gamma, lam=config.ppo.lam)
    infos = trainer.collect_rollouts(buffer, config.trajectories_per_epoch)
    t1 = time.perf_counter()
    steps = len(buffer)
    data = buffer.get()
    t2 = time.perf_counter()
    update = trainer.ppo.update(data)
    t3 = time.perf_counter()
    numbers = [
        update.policy_loss, update.value_loss, update.approximate_kl, update.entropy,
        update.clip_fraction, *(info["bsld"] for info in infos),
        *(info["episode_reward"] for info in infos),
    ]
    ok = (
        len(infos) == config.trajectories_per_epoch
        and steps > 0
        and sum(info["episode_steps"] for info in infos) == steps
        and all_finite(numbers)
    )
    return {
        "steps": steps, "collect_s": t1 - t0, "get_s": t2 - t1,
        "wall_s": t3 - t0, "ok": ok, "bsld": float(np.mean([info["bsld"] for info in infos])),
    }


def measure(state: dict, seconds: float, traced: bool) -> dict:
    trainer: Trainer = state["trainer"]
    prefix = state["size"]["prefix_epochs"]
    tracer = get_tracer()
    tracer.clear()
    epochs, engine, info = [], {}, {}
    region = Region(seconds)
    while region.open(min_ops=prefix):
        # Traced runs alternate epochs with the program's tracing on and off,
        # so the overhead ratio compares neighbours in time, not two runs.
        obs_on = traced and len(epochs) % 2 == 0
        set_obs(obs_on)
        before = trainer.vec_env.stats()
        epoch = _epoch(trainer)
        epoch["obs_on"] = obs_on
        if obs_on:
            add_engine_delta(engine, trainer.vec_env.stats(), before)
        epochs.append(epoch)
        region.done(epoch["steps"], epoch["wall_s"], obs_on=obs_on)
        if len(epochs) == prefix:
            info["weights_digest"] = weights_digest(trainer.agent)
            info["env_steps_prefix"] = sum(e["steps"] for e in epochs)
    region.close()
    set_obs(False)

    steps = sum(e["steps"] for e in epochs)
    weights_ok = all_finite(
        float(np.abs(p.numpy()).max()) for p in (
            trainer.agent.policy_parameters() + trainer.agent.value_parameters()
        )
    )
    info.update({
        "epochs": len(epochs), "env_steps": steps, "prefix_epochs": prefix,
        "bsld_prefix_epoch": epochs[prefix - 1]["bsld"],
    })
    result = {
        "attempted": len(epochs),
        "failed": sum(not e["ok"] for e in epochs),
        "checks": {"weights_finite": weights_ok, "steps_positive": steps > 0},
        "work": steps,
        "region": region,
        "info": info,
        "named": {
            # The 12-epoch quick-scale training call, projected from the
            # median epoch of this run.
            "train_wall_s": metric(
                get_scale("quick").trainer.epochs
                * median([op["wall_s"] for op in region.kept()]), "s"
            ),
        },
        "layers": {},
    }
    if not traced:
        return result

    on = [e for e in epochs if e["obs_on"]]
    traced_wall = sum(e["wall_s"] for e in on)
    collect_s = sum(e["collect_s"] for e in on)
    get_s = sum(e["get_s"] for e in on)
    events = tracer.events()
    # The program times its own update (the ``ppo.update`` span); read that.
    update_s = sum(span_durations(events, "ppo.update"))
    result["checks"]["train_rows_sum_to_wall"] = sums_to(
        (collect_s, get_s, update_s), traced_wall
    )
    layers = {
        "obs.traced_wall_s": metric(traced_wall, "s"),
        "core.trainer.collect_s": metric(collect_s, "s"),
        "rl.buffer.get_s": metric(get_s, "s"),
        "rl.ppo.update_s": metric(update_s, "s"),
        "rl.ppo.update_share": metric(update_s / traced_wall, "ratio"),
        # A count over the fixed prefix, so it repeats exactly for a seed.
        "core.trainer.env_steps": metric(info["env_steps_prefix"], "count"),
        "rl.ppo.policy_iteration_s": metric(sum(span_durations(events, "ppo.policy_iteration")), "s"),
        "rl.ppo.value_iteration_s": metric(sum(span_durations(events, "ppo.value_iteration")), "s"),
        "scheduler.metrics.bsld_mean": metric(epochs[prefix - 1]["bsld"], "ratio"),
    }
    layers.update(engine_rows(engine, trainer.config.num_envs))
    layers.update(autograd_micro(trainer.agent))
    layers.update(overhead_ratio(region.ops))
    result["layers"] = layers
    return result
