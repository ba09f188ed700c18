"""Micro-benchmarks of the substrates: simulator throughput, PPO update, encoding.

These are not paper figures; they document the performance envelope of the
simulator and the from-scratch RL stack so regressions are visible.
"""

import time

import numpy as np

from repro.core.agent import RLBackfillAgent
from repro.core.observation import ObservationBuilder, ObservationConfig
from repro.prediction.predictors import UserEstimate
from repro.rl.autograd import Tensor
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.ppo import PPO, PPOConfig
from repro.scenarios.registry import get_scenario
from repro.scheduler.backfill.conservative import ConservativeBackfill
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.simulator import Simulator
from repro.workloads.archive import load_trace
from repro.workloads.sampling import sample_sequence


def test_simulator_easy_backfill_throughput(benchmark):
    trace = load_trace("SDSC-SP2", num_jobs=3000)
    jobs = sample_sequence(trace, 512, seed=0)
    simulator = Simulator(trace.num_processors, policy="FCFS", backfill=EasyBackfill())

    result = benchmark(simulator.run, jobs)
    assert len(result.records) == 512
    benchmark.extra_info["jobs_per_run"] = 512
    benchmark.extra_info["bsld"] = round(result.bsld, 2)


def test_simulator_conservative_backfill_throughput(benchmark):
    """Conservative on one contended sequence (the 2x load surge).

    The trend gate divides this row's mean by the EASY row's above:
    ``cost_conservative_vs_easy`` in ``throughput_baseline.json``.
    """
    trace = get_scenario("load-surge-2x").build(seed=0, num_jobs=3000).trace
    jobs = sample_sequence(trace, 256, seed=0)
    simulator = Simulator(trace.num_processors, policy="FCFS", backfill=ConservativeBackfill())

    result = benchmark(simulator.run, jobs)
    assert len(result.records) == 256
    benchmark.extra_info["jobs_per_run"] = 256


def test_simulator_topology_cost(benchmark):
    """EASY on one ``hetero-partition-drain`` sequence, on its node groups and without.

    The scalar run takes the same jobs with ``topology=None`` (and so without
    the group-tagged drain, which a scalar machine cannot express): the ratio
    ``cost_topology_vs_scalar`` is what vector accounting and the allocator
    cost over the integer path, gated in ``throughput_baseline.json``.  The two
    simulators are interleaved and the minima compared, as in
    ``test_bench_obs.py``.
    """
    built = get_scenario("hetero-partition-drain").build(seed=0, num_jobs=3000)
    jobs = sample_sequence(built.trace, 256, seed=0)
    span = max(job.submit_time for job in jobs) - min(job.submit_time for job in jobs)
    processors = built.trace.num_processors
    scalar = Simulator(processors, policy="FCFS", backfill=EasyBackfill())
    grouped = Simulator(
        processors,
        policy="FCFS",
        backfill=EasyBackfill(),
        capacity_schedule=built.capacity_schedule(span),
        topology=built.topology,
        allocator=built.allocator,
    )

    def seconds(simulator: Simulator) -> float:
        start = time.perf_counter()
        assert len(simulator.run(jobs).records) == 256
        return time.perf_counter() - start

    seconds(grouped)  # warm caches outside the timed repeats
    pairs = [(seconds(scalar), seconds(grouped)) for _ in range(7)]
    ratio = min(pair[1] for pair in pairs) / min(pair[0] for pair in pairs)
    result = benchmark(grouped.run, jobs)
    benchmark.extra_info["jobs_per_run"] = 256
    benchmark.extra_info["decisions_per_run"] = result.decision_count
    benchmark.extra_info["cost_topology_vs_scalar"] = round(ratio, 2)
    print(f"\ntopology cost: {ratio:.2f}x the scalar machine on the same 256 jobs")


def test_simulator_sjf_no_estimator_throughput(benchmark):
    trace = load_trace("Lublin-2", num_jobs=3000)
    jobs = sample_sequence(trace, 512, seed=1)
    simulator = Simulator(trace.num_processors, policy="SJF", backfill=EasyBackfill())
    result = benchmark(simulator.run, jobs)
    assert len(result.records) == 512


def test_observation_encoding_speed(benchmark):
    trace = load_trace("SDSC-SP2", num_jobs=2000)
    jobs = sample_sequence(trace, 256, seed=2)
    config = ObservationConfig(max_queue_size=128)
    builder = ObservationBuilder(config)
    simulator = Simulator(trace.num_processors, policy="FCFS", estimator=UserEstimate())
    gen = simulator.decision_points(jobs)
    decision = next(gen)

    slots, rows, slot_jobs = benchmark(builder.build, decision)
    assert slots and rows.shape == (len(slots), config.job_features)
    assert len(slot_jobs) == config.num_actions


def test_ppo_update_speed(benchmark):
    config = ObservationConfig(max_queue_size=32)
    agent = RLBackfillAgent(config, seed=0)
    ppo = PPO(agent, PPOConfig(policy_iterations=5, value_iterations=5), seed=0)
    rng = np.random.default_rng(0)
    buffer = TrajectoryBuffer(gamma=1.0, lam=1.0)
    for _ in range(256):
        observation = rng.random(config.observation_size)
        mask = np.zeros(config.num_actions)
        mask[rng.choice(config.num_actions, size=8, replace=False)] = 1.0
        action, value, log_prob = agent.step(observation, mask, rng=rng)
        buffer.store(observation, mask, action, rng.normal(), value, log_prob)
        buffer.finish_path(0.0)
    data = buffer.get()

    stats = benchmark.pedantic(ppo.update, args=(data,), rounds=3, iterations=1, warmup_rounds=0)
    assert np.isfinite(stats.value_loss)


def test_policy_forward_speed(benchmark):
    config = ObservationConfig(max_queue_size=128)
    agent = RLBackfillAgent(config, seed=0)
    observations = np.random.default_rng(0).random((64, config.observation_size))

    logits = benchmark(lambda: agent.policy_logits(Tensor(observations)))
    assert logits.shape == (64, config.num_actions)
