"""Per-layer measurement shared by the workloads: the tracing switch, the
rollout-engine rows, the timed backfill strategy and the micro-benchmarks.

Every layer is measured from outside, through names the packages export; no
span is added inside ``src/``.  Where the program already times a boundary
(``engine.stats()`` phase timers, ``ppo.*`` and ``service.*`` spans) the
harness reads that instead of adding a stopwatch.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

from benchlib import Stopwatches, median, metric
from repro.core import ObservationConfig, RLBackfillAgent, RLBackfillPolicy
from repro.obs import (
    disable_metrics, disable_tracing, enable_metrics, enable_tracing, engine_stats_delta,
)
from repro.rl import Tensor
from repro.rl.ipc import Field, FrameLayout, ShmRing
from repro.scheduler import BackfillStrategy


def set_obs(on: bool) -> None:
    """Switch the program's span tracer and global metrics registry together."""
    if on:
        enable_tracing()
        enable_metrics()
    else:
        disable_tracing()
        disable_metrics()


def timeit(function: Callable[[], object], repeats: int, rounds: int = 5) -> float:
    """Median over ``rounds`` of the seconds one call takes (``repeats`` calls
    per round, after one warm-up call)."""
    function()
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(repeats):
            function()
        samples.append((time.perf_counter() - started) / repeats)
    return median(samples)


def add_engine_delta(total: Dict[str, float], after: dict, before: dict) -> None:
    """Add one interval of ``engine.stats()`` to ``total`` (numeric keys only)."""
    for key, value in engine_stats_delta(after, before).items():
        if isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + value


def engine_rows(delta: Dict[str, float], lanes: int) -> Dict[str, dict]:
    """``rl.vec_env.*`` rows from a summed ``engine.stats()`` delta."""
    step_s = float(delta.get("step_s", 0.0))
    encode_s = float(delta.get("encode_s", 0.0))
    forward_s = float(delta.get("forward_s", 0.0))
    rollout_s = float(delta.get("rollout_s", 0.0))
    rounds = int(delta.get("rounds", 0))
    decisions = int(delta.get("decisions", 0))
    return {
        "rl.vec_env.step_s": metric(step_s, "s"),
        "rl.vec_env.encode_s": metric(encode_s, "s"),
        "rl.vec_env.forward_s": metric(forward_s, "s"),
        "rl.vec_env.other_s": metric(max(0.0, rollout_s - step_s - encode_s - forward_s), "s"),
        "rl.vec_env.rounds": metric(rounds, "count"),
        "rl.vec_env.decisions": metric(decisions, "count"),
        "rl.vec_env.lane_fill": metric(
            decisions / (rounds * lanes) if rounds else 0.0, "ratio"
        ),
    }


def overhead_ratio(ops: Sequence[dict]) -> Dict[str, dict]:
    """``obs.trace_overhead_ratio`` of a run that alternated traced and
    untraced operations: median seconds per unit of work, traced over untraced."""
    cost = {True: [], False: []}
    for op in ops:
        if op["work"]:
            cost[op["obs_on"]].append(op["wall_s"] / op["work"])
    if not cost[True] or not cost[False]:
        return {}
    return {"obs.trace_overhead_ratio": metric(median(cost[True]) / median(cost[False]), "ratio")}


def time_policy_collaborators(policy: RLBackfillPolicy, watches: Stopwatches) -> None:
    """Time ``builder.build`` and ``agent.step`` of one policy instance.

    Instance attributes shadow the methods the policy calls on its own
    collaborators, so the two stopwatches sit at the real call sites.
    """
    policy.builder.build = watches.wrap("build", policy.builder.build)
    policy.agent.step = watches.wrap("step", policy.agent.step)


class TimedStrategy(BackfillStrategy):
    """Delegates to a real strategy and times every ``select_backfill``."""

    def __init__(self, inner: BackfillStrategy, watches: Stopwatches):
        self.inner = inner
        self.name = inner.name
        self._select = watches.wrap("select", inner.select_backfill)
        if isinstance(inner, RLBackfillPolicy):
            time_policy_collaborators(inner, watches)

    def select_backfill(self, decision, estimator):
        return self._select(decision, estimator)

    def on_sequence_start(self) -> None:
        self.inner.on_sequence_start()


def schedule_violations(records: Sequence, jobs: Sequence, capacity: int) -> List[str]:
    """Sweep one ``SimulationResult.records``: each job exactly once, no start
    before its submission, never more processors running than the nameplate."""
    problems = []
    seen = sorted(record.job.job_id for record in records)
    if seen != sorted(job.job_id for job in jobs):
        problems.append("records do not hold each job exactly once")
    events = []
    for record in records:
        if record.start_time < record.job.submit_time - 1e-9:
            problems.append(f"job {record.job.job_id} starts before it is submitted")
        width = record.job.requested_processors
        events.append((record.start_time, 1, width))
        events.append((record.end_time, 0, -width))
    running = 0
    for _time, _is_start, change in sorted(events):  # releases sort before starts
        running += change
        if running > capacity:
            problems.append(f"{running} processors busy on a {capacity}-processor machine")
            break
    return problems


# -- micro-benchmarks ---------------------------------------------------------

def autograd_micro(agent: RLBackfillAgent) -> Dict[str, dict]:
    """Forward+backward of both networks at the PPO update's shapes: 1024
    observations, i.e. the kernel MLP over (1024 * slots, features) rows and
    the value MLP over (1024, slots * features)."""
    config = agent.observation_config
    rng = np.random.default_rng(0)
    observations = rng.standard_normal((1024, config.observation_size)) * 0.1

    def kernel():
        for parameter in agent.policy_parameters():
            parameter.zero_grad()
        agent.policy_logits(Tensor(observations)).mean().backward()

    def value():
        for parameter in agent.value_parameters():
            parameter.zero_grad()
        agent.value(Tensor(observations)).mean().backward()

    return {
        "rl.autograd.kernel_fwd_bwd_ms": metric(timeit(kernel, 3) * 1e3, "ms"),
        "rl.autograd.value_fwd_bwd_ms": metric(timeit(value, 20) * 1e3, "ms"),
    }


def forward_rollout_micro(agent: RLBackfillAgent, lanes: int) -> Dict[str, dict]:
    """The batched rollout forward: ``step_batch`` over ``lanes`` observations."""
    config = agent.observation_config
    rng = np.random.default_rng(0)
    observations = rng.standard_normal((lanes, config.observation_size)) * 0.1
    masks = np.ones((lanes, config.num_actions))
    rngs = [np.random.default_rng(lane) for lane in range(lanes)]
    seconds = timeit(lambda: agent.step_batch(observations, masks, rngs=rngs), 200)
    return {"rl.nn.forward_rows_per_s.rollout": metric(lanes / seconds, "1/s")}


def forward_serial_micro(seed: int) -> Dict[str, dict]:
    """The serving forward: one ``step`` at 128 slots with ``row_block=1``."""
    config = ObservationConfig(max_queue_size=128)
    policy = RLBackfillPolicy(RLBackfillAgent(config, seed=seed), row_block=1)
    rng = np.random.default_rng(0)
    observation = rng.standard_normal(config.observation_size) * 0.1
    mask = np.ones(config.num_actions)
    seconds = timeit(lambda: policy.agent.step(observation, mask, deterministic=True), 500)
    return {"rl.nn.forward_rows_per_s.serial": metric(1.0 / seconds, "1/s")}


def ring_micro(lanes: int, observation_size: int, num_actions: int) -> Dict[str, dict]:
    """One rollout-sized frame pushed into and popped from a ``ShmRing``."""
    layout = FrameLayout([
        Field("observations", (lanes, observation_size), "float64"),
        Field("masks", (lanes, num_actions), "float64"),
    ])
    frame = {
        "observations": np.zeros((lanes, observation_size)),
        "masks": np.ones((lanes, num_actions)),
    }
    ring = ShmRing(layout, capacity=2, ctx=multiprocessing.get_context("spawn"))
    try:
        def roundtrip():
            ring.push(frame, timeout=5.0)
            ring.pop(timeout=5.0)

        seconds = timeit(roundtrip, 500)
    finally:
        ring.close()
    return {"rl.ipc.ring_roundtrip_us": metric(seconds * 1e6, "us")}
