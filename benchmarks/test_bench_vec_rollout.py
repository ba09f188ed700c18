"""Rollout-throughput benchmark for the vectorized multi-environment engine.

Measures PPO rollout collection in decisions per second on a backfill-dense
workload (a saturated machine fed mostly narrow, short jobs with occasional
machine-wide blockers -- the regime where the agent is consulted at almost
every scheduling event, i.e. where training time actually goes):

* ``serial-reference`` -- the pre-engine rollout formulation this PR
  replaced: one observation encoded per decision with the per-job Python
  loop (the scalar ``_reference_job_features`` below, the seed's encoder) and
  one single-observation forward pass per decision
  with ``rng.choice`` sampling.  It still runs on today's simulator (with
  its fast path), so the measured speedup is attributable to the rollout
  engine alone and is, if anything, understated.
* ``vec[N]`` for N in {1, 4, 16} -- the vectorized engine
  (:class:`repro.rl.vec_env.VecBackfillEnv`): N lanes stepped in lockstep,
  one batched feature-encoding pass and one batched policy/value forward
  pass per lockstep iteration.

Acceptance (asserted below): ``vec[16]`` collects decisions at >= 3x the
serial reference's rate, and vectorization is monotonically useful
(``vec[16]`` beats ``vec[1]``).  ``vec[1]`` is the engine's serial case and
is verified bit-identical to `Trainer.run_trajectory` in
``tests/test_vec_env.py``; its throughput is reported here for the N-scaling
curve.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import BackfillEnvironment, RLBackfillAgent, Trainer, TrainerConfig
from repro.core.observation import (
    _MAX_HORIZON,
    _MAX_RUNTIME,
    _MAX_WAIT,
    JOB_FEATURES,
    ObservationConfig,
    _log_norm,
)
from repro.rl.autograd import Tensor, no_grad
from repro.rl.buffer import TrajectoryBuffer
from repro.scheduler.simulator import Simulator
from repro.workloads.job import Job, Trace

#: Machine size of the benchmark workload.
NUM_PROCESSORS = 64
#: Observation window.  Sized so the workload's typical waiting queue
#: (~50-70 jobs under the saturated benchmark trace) fills most of it, as the
#: paper's MAX_OBSV_SIZE=128 does on its contended archive windows.
MAX_QUEUE = 64
SEQUENCE_LENGTH = 256
POOL_SIZE = 4
LANE_COUNTS = (1, 4, 16)
#: Trajectories collected per measured configuration (scaled by lane count so
#: every configuration spends a comparable, CI-friendly amount of time).
TRAJECTORIES = {0: 10, 1: 16, 4: 32, 16: 64}
REQUIRED_SPEEDUP = 3.0


def backfill_dense_trace(num_jobs: int = 4000, seed: int = 0) -> Trace:
    """Saturated bimodal workload: narrow short jobs + rare wide blockers."""
    rng = np.random.default_rng(seed)
    jobs, t = [], 0.0
    for i in range(num_jobs):
        t += float(rng.exponential(30.0))
        if rng.random() < 0.06:
            procs = int(rng.integers(48, NUM_PROCESSORS + 1))
            runtime = float(rng.uniform(7200, 21600))
        else:
            procs = int(rng.integers(1, 5))
            runtime = float(rng.uniform(300, 3600))
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=t,
                runtime=runtime,
                requested_processors=procs,
                requested_time=runtime * float(rng.uniform(1.2, 3.0)),
            )
        )
    return Trace.from_jobs("backfill-dense", num_processors=NUM_PROCESSORS, jobs=jobs)


def make_trainer(trace: Trace, num_envs: int) -> Trainer:
    env = BackfillEnvironment(
        trace,
        policy="FCFS",
        sequence_length=SEQUENCE_LENGTH,
        observation_config=ObservationConfig(max_queue_size=MAX_QUEUE),
        seed=7,
        training_pool_size=POOL_SIZE,
    )
    agent = RLBackfillAgent(observation_config=env.observation_config, seed=7)
    config = TrainerConfig(epochs=1, trajectories_per_epoch=4, num_envs=num_envs)
    return Trainer(env, agent, config, seed=7)


def warm_pools(trainer: Trainer) -> None:
    """Fill every lane's training pool so measured resets reuse cached baselines."""
    scratch = TrajectoryBuffer()
    while any(
        len(env._pool) < (env.training_pool_size or 0) for env in trainer.vec_env.envs
    ):
        trainer.collect_rollouts(scratch, trainer.vec_env.num_envs)
        scratch.clear()


def measure_engine(trainer: Trainer, trajectories: int, repeats: int = 2) -> float:
    """Best-of-``repeats`` decisions/sec of the vectorized engine."""
    best = 0.0
    for _ in range(repeats):
        buffer = TrajectoryBuffer()
        start = time.perf_counter()
        infos = trainer.collect_rollouts(buffer, trajectories)
        elapsed = time.perf_counter() - start
        decisions = sum(info["episode_steps"] for info in infos)
        best = max(best, decisions / elapsed)
    return best


# -- the pre-engine serial rollout, reproduced faithfully ---------------------
def _reference_job_features(job, decision, *, is_reserved, can_run):
    """The seed's scalar feature row of one job (the cpu-only layout)."""
    machine = decision.machine
    total = machine.num_processors if machine is not None else max(job.requested_processors, 1)
    features = np.zeros(JOB_FEATURES, dtype=np.float64)
    features[0] = _log_norm(decision.time - job.submit_time, _MAX_WAIT)
    features[1] = _log_norm(job.requested_time, _MAX_RUNTIME)
    features[2] = min(job.requested_processors / total, 1.0)
    features[3] = 1.0 if can_run else 0.0
    features[4] = 1.0 if is_reserved else 0.0
    features[6] = decision.free_fraction
    features[7] = _log_norm(decision.reservation_time - decision.time, _MAX_HORIZON)
    features[8] = min(decision.extra_processors / total, 1.0) if total else 0.0
    features[9] = 1.0  # slot occupied
    return features


def _reference_build(builder, decision):
    """The seed's observation encoder: one Python feature-row call per job."""
    cfg = builder.config
    candidate_ids = {job.job_id for job in decision.candidates}
    queue = sorted(decision.queue, key=lambda j: (j.submit_time, j.job_id))
    queue = queue[: cfg.max_queue_size]
    observation = np.zeros((cfg.max_queue_size, cfg.job_features), dtype=np.float64)
    mask = np.zeros(cfg.max_queue_size, dtype=np.float64)
    slot_jobs = [None] * cfg.max_queue_size
    for slot, job in enumerate(queue):
        is_reserved = job.job_id == decision.reserved_job.job_id
        can_run = job.job_id in candidate_ids
        observation[slot] = _reference_job_features(
            job, decision, is_reserved=is_reserved, can_run=can_run
        )
        slot_jobs[slot] = job
        if can_run and not is_reserved:
            mask[slot] = 1.0
    return observation.reshape(-1), mask, slot_jobs


def _reference_agent_step(agent, observation, mask, rng):
    """The seed's sampling step: batch-of-one forward + ``rng.choice`` draw."""
    obs_batch = np.asarray(observation, dtype=np.float64)[None, :]
    mask_batch = np.asarray(mask, dtype=np.float64)[None, :]
    with no_grad():
        log_probs = agent.masked_log_probs(Tensor(obs_batch), mask_batch).numpy()[0]
        value = float(agent.value(Tensor(obs_batch)).numpy()[0])
    probs = np.exp(log_probs)
    probs = probs / probs.sum()
    action = int(rng.choice(len(probs), p=probs))
    return action, value, float(log_probs[action])


def measure_serial_reference(trace, sequences, agent, trajectories, repeats=2) -> float:
    """Best-of-``repeats`` decisions/sec of the pre-engine serial rollout."""
    builder_env = BackfillEnvironment(
        trace,
        policy="FCFS",
        sequence_length=SEQUENCE_LENGTH,
        observation_config=ObservationConfig(max_queue_size=MAX_QUEUE),
        seed=0,
    )
    builder = builder_env.builder
    best = 0.0
    for _ in range(repeats):
        rng = np.random.default_rng(7)
        decisions = 0
        start = time.perf_counter()
        for episode in range(trajectories):
            simulator = Simulator(
                num_processors=trace.num_processors,
                policy="FCFS",
                estimator=builder_env.estimator,
            )
            generator = simulator.decision_points(sequences[episode % len(sequences)])
            buffer = TrajectoryBuffer()
            try:
                decision = next(generator)
                while True:
                    observation, mask, slot_jobs = _reference_build(builder, decision)
                    if mask.sum() <= 0.0:
                        decision = generator.send(None)
                        continue
                    action, value, log_prob = _reference_agent_step(
                        agent, observation, mask, rng
                    )
                    chosen = builder.action_to_job(action, slot_jobs)
                    # The delay-violation reward check the environment performs.
                    reward = -0.5 if decision.would_delay(chosen, chosen.runtime) else 0.0
                    buffer.store(observation, mask, action, reward, value, log_prob)
                    decisions += 1
                    decision = generator.send(chosen)
            except StopIteration:
                pass
            buffer.finish_path(last_value=0.0)
        elapsed = time.perf_counter() - start
        best = max(best, decisions / elapsed)
    return best


@pytest.mark.benchmark(group="vec-rollout")
def test_bench_vec_rollout(benchmark):
    trace = backfill_dense_trace()

    # Engine configurations, pools warmed outside the timed region.
    trainers = {}
    for lanes in LANE_COUNTS:
        trainer = make_trainer(trace, lanes)
        warm_pools(trainer)
        trainers[lanes] = trainer

    results = {}
    for lanes in LANE_COUNTS[:-1]:
        results[f"vec[{lanes}]"] = measure_engine(trainers[lanes], TRAJECTORIES[lanes])
    # The headline configuration runs under pytest-benchmark timing so the
    # JSON artifact records it; pedantic keeps it to controlled rounds.
    results["vec[16]"] = benchmark.pedantic(
        measure_engine,
        args=(trainers[16], TRAJECTORIES[16]),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )

    # Serial reference replays the same pooled sequences the engine trains on.
    sequences = list(trainers[1].environment._pool)
    results["serial-reference"] = measure_serial_reference(
        trace, sequences, trainers[1].agent, TRAJECTORIES[0]
    )

    speedup_vs_serial = results["vec[16]"] / results["serial-reference"]
    scaling_16_vs_1 = results["vec[16]"] / results["vec[1]"]
    scaling_4_vs_1 = results["vec[4]"] / results["vec[1]"]
    benchmark.extra_info.update(
        {f"{key}_decisions_per_sec": round(value, 1) for key, value in results.items()}
    )
    benchmark.extra_info["speedup_vec16_vs_serial"] = round(speedup_vs_serial, 2)
    benchmark.extra_info["scaling_vec16_vs_vec1"] = round(scaling_16_vs_1, 2)
    benchmark.extra_info["scaling_vec4_vs_vec1"] = round(scaling_4_vs_1, 2)
    print(
        "\nrollout throughput (decisions/sec): "
        + ", ".join(f"{key}={value:,.0f}" for key, value in results.items())
        + f"; vec[16] vs serial-reference: {speedup_vs_serial:.2f}x"
        + f"; vec[16] vs vec[1]: {scaling_16_vs_1:.2f}x"
        + f"; vec[4] vs vec[1]: {scaling_4_vs_1:.2f}x"
    )

    assert speedup_vs_serial >= REQUIRED_SPEEDUP, (
        f"vectorized rollout at N=16 is only {speedup_vs_serial:.2f}x the serial "
        f"reference (required {REQUIRED_SPEEDUP}x): {results}"
    )
    assert results["vec[16]"] > results["vec[1]"], (
        f"vectorization should not be slower than the serial engine: {results}"
    )
