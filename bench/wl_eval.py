"""The three evaluation workloads: scenario x policy cells through ``Simulator.run``.

All three drive ``ScenarioSpec.build`` -> ``scenario_sequences`` ->
``evaluate_cell`` inline with the untrained-but-seeded agent, so the inputs do
not depend on the training code path.  One operation is one *pass*: every
cell of the workload on its next sample sequences.  Passes repeat (cycling
through the samples) until ``--seconds`` run out.  Work is counted in served
scheduling decisions: the cost of a sequence follows its decision count far
more closely than its job count (per-decision cost varies 10-25% between
sequences of one cell, per-job cost 30-50%), and scheduled jobs per second is
printed beside it.

* ``eval-rl-paper`` -- the paper protocol (1024-job samples) on homogeneous
  scenarios under EASY and RL: event loop + ``ObservationBuilder.build`` +
  ``row_block=1`` forward on the scalar ``Machine`` path.  The conservative
  profile and the allocator never run.
* ``eval-conservative`` -- conservative backfilling, where profile
  replanning is > 90% of the wall.
* ``eval-hetero`` -- node-group topologies, where vector accounting and the
  allocator dominate.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import replace

import numpy as np

from benchlib import Region, Stopwatches, all_finite, digest, median, metric, sums_to
from layers import TimedStrategy, forward_serial_micro, schedule_violations, set_obs, timeit
from repro.core import ObservationConfig, RLBackfillAgent
from repro.experiments import ExperimentScale
from repro.experiments.runner import evaluate_strategy_results
from repro.obs import get_metrics
from repro.scenarios import AgentBundle, evaluate_cell, evaluate_suite, get_scenario, report_to_json
from repro.scenarios.evaluate import build_report, make_configuration, scenario_sequences
from repro.scheduler import ConservativeBackfill, EasyBackfill, NoBackfill, Simulator
from repro.workloads import load_trace, sample_sequence

#: scenarios, policies, jobs per sample sequence, sample sequences per
#: scenario, sequences per cell in one pass.  eval-conservative uses short
#: sequences and many of them: the cost of one conservative sequence is
#: heavy-tailed (coefficient of variation ~1 at 128 and 256 jobs, one 256-job
#: surge sequence alone can take 10 s), so only a few hundred sequences per
#: run give a rate that is steady from seed to seed.  For the same reason its
#: samples are stratified: one window from each of ``samples`` equal stretches
#: of the trace, the seed choosing where in its stretch each window starts,
#: and every pass takes windows from stretches spread over the whole trace.
SPECS = {
    "eval-rl-paper": {
        "scenarios": (
            "baseline-sdsc", "baseline-lublin", "load-surge-2x", "burst-storm",
            "estimate-noise", "downtime-half", "node-failure-requeue",
        ),
        "policies": ("easy", "rl"), "length": 1024, "samples": 10, "per_pass": 1,
    },
    "eval-conservative": {
        "scenarios": (
            "load-surge-2x", "failure-storm-checkpoint", "rolling-maintenance",
            "hetero-partition-drain",
        ),
        "policies": ("conservative",), "length": 64, "samples": 96, "per_pass": 4,
        "stratified": True, "jitter": 8,
    },
    "eval-hetero": {
        "scenarios": ("hetero-gpu-scarcity", "hetero-memory-bound", "hetero-partition-drain"),
        "policies": ("easy", "rl"), "length": 256, "samples": 24, "per_pass": 1,
    },
}
#: Every run evaluates the same scenario traces, built from this seed; the
#: run's ``--seed`` draws the sample sequences from them and the agent's
#: weights.  With a trace per seed, the cost of a pass differed between seeds
#: by more than any change this benchmark is meant to resolve.
POPULATION_SEED = 0

SIZES = {
    "full": {"trace_jobs": 10_000, "slots": 32, "shrink": 1},
    # Smoke runs keep every cell and divide the sequence lengths.
    "smoke": {"trace_jobs": 1_500, "slots": 16, "shrink": 8},
}


def setup(name: str, seed: int, size: dict) -> dict:
    spec = dict(SPECS[name])
    spec["length"] = max(16, spec["length"] // size["shrink"])
    scale = ExperimentScale(
        name="bench", trace_jobs=size["trace_jobs"], eval_sequence_length=spec["length"],
        eval_samples=spec["samples"], train_sequence_length=256, max_queue_size=size["slots"],
    )
    agent = RLBackfillAgent(ObservationConfig(max_queue_size=size["slots"]), seed=seed)
    started = time.perf_counter()
    specs = [get_scenario(scenario) for scenario in spec["scenarios"]]
    built = [
        scenario.build(seed=POPULATION_SEED, num_jobs=scale.trace_jobs) for scenario in specs
    ]
    build_s = time.perf_counter() - started
    return {
        "name": name, "seed": seed, "spec": spec, "scale": scale, "specs": specs, "built": built,
        "bundle": AgentBundle.from_agent(agent), "build_s": build_s,
        "sequences": [
            _stratified_sequences(b.trace, spec, seed, index) if spec.get("stratified")
            else scenario_sequences(b, scale, seed)
            for index, b in enumerate(built)
        ],
        "size": size,
    }


def _stratified_sequences(trace, spec: dict, seed: int, scenario_index: int) -> list:
    rng = np.random.default_rng([seed, scenario_index])
    stretch = (len(trace) - spec["length"]) // spec["samples"]
    return [
        sample_sequence(
            trace, spec["length"], start=k * stretch + int(rng.integers(0, spec["jitter"]))
        )
        for k in range(spec["samples"])
    ]


def _samples(state: dict, scenario_index: int, pass_index: int) -> list:
    spec = state["spec"]
    sequences = state["sequences"][scenario_index]
    apart = len(sequences) // spec["per_pass"]
    return [sequences[(pass_index + i * apart) % len(sequences)] for i in range(spec["per_pass"])]


def _row_ok(row: dict, length: int) -> bool:
    finite = [value for key, value in row.items() if key != "window_utilization"]
    return (
        row["num_jobs"] == length and all_finite(finite) and row["utilization"] <= 1.0 + 1e-9
    )


def _pass(state: dict, pass_index: int) -> dict:
    """One pass through the program's own ``evaluate_cell``."""
    spec, scale = state["spec"], state["scale"]
    cells = {}
    started = time.perf_counter()
    for index, built in enumerate(state["built"]):
        sequences = _samples(state, index, pass_index)
        for policy in spec["policies"]:
            cell_started = time.perf_counter()
            try:
                row = evaluate_cell(
                    built, policy, scale, state["seed"], state["bundle"], sequences=sequences
                )
                ok = _row_ok(row, spec["length"])
            except Exception as error:  # noqa: BLE001 - a raising cell is a failed operation
                row, ok = {"error": repr(error), "decision_count": 0.0}, False
            cells[(built.name, policy)] = {
                "row": row, "ok": ok, "wall_s": time.perf_counter() - cell_started,
            }
    return _finished_pass(state, cells, time.perf_counter() - started)


def _finished_pass(state: dict, cells: dict, wall_s: float) -> dict:
    decisions = state["spec"]["per_pass"] * sum(
        cell["row"]["decision_count"] for cell in cells.values()
    )
    return {"cells": cells, "wall_s": wall_s, "decisions": decisions}


def _replica_pass(state: dict, pass_index: int, watches: Stopwatches | None) -> dict:
    """``evaluate_cell``'s loop rebuilt on ``evaluate_strategy_results``, so
    the harness owns the backfill strategy and sees ``SimulationResult.records``.

    With ``watches`` every ``select_backfill`` is timed and every schedule is
    swept for violations (the sweep is kept out of the walls); without, the
    same loop runs bare and is the untraced twin the overhead ratio divides by.
    """
    spec = state["spec"]
    cells = {}
    sweep_s = 0.0
    started = time.perf_counter()
    for index, built in enumerate(state["built"]):
        sequences = _samples(state, index, pass_index)
        for policy in spec["policies"]:
            cell_started = time.perf_counter()
            cell_sweep_s = 0.0
            configuration = make_configuration(policy, state["bundle"])
            if watches is not None:
                configuration = replace(
                    configuration, backfill=TimedStrategy(configuration.backfill, watches)
                )
            bsld, decisions, problems = 0.0, 0, []
            for jobs in sequences:
                span = max(j.submit_time for j in jobs) - min(j.submit_time for j in jobs)
                failures = built.node_failures(span)
                result = evaluate_strategy_results(
                    built.trace, configuration, [jobs],
                    capacity_schedule=built.capacity_schedule(span), node_failures=failures,
                    restart_policy=built.restart_policy if failures else None,
                    topology=built.topology, allocator=built.allocator,
                )[0]
                bsld += result.bsld
                decisions += result.decision_count
                if watches is not None:
                    sweep_started = time.perf_counter()
                    problems += schedule_violations(
                        result.records, jobs, built.trace.num_processors
                    )
                    cell_sweep_s += time.perf_counter() - sweep_started
            sweep_s += cell_sweep_s
            cells[(built.name, policy)] = {
                "row": {
                    "average_bounded_slowdown": bsld / float(len(sequences)),
                    "decision_count": decisions / len(sequences),
                },
                "ok": not problems, "problems": problems,
                "wall_s": time.perf_counter() - cell_started - cell_sweep_s,
            }
    return _finished_pass(state, cells, time.perf_counter() - started - sweep_s)


def _counters() -> dict:
    registry = get_metrics()
    return {
        "schedule_passes": registry.counter("sim_schedule_passes_total").value,
        "profile_builds": registry.counter("backfill_profile_builds_total").value,
    }


def measure(state: dict, seconds: float, traced: bool) -> dict:
    spec = state["spec"]
    cells_per_pass = len(spec["scenarios"]) * len(spec["policies"])
    jobs_per_pass = cells_per_pass * spec["per_pass"] * spec["length"]
    watches = Stopwatches()
    plain, timed, prefix_counts, prefix_calls = [], [], {}, 0
    region = Region(seconds)
    index = 0
    while region.open():
        if traced:
            # Each pass runs twice on the same sequences, traced and bare, in
            # alternating order: the overhead ratio is a paired comparison.
            for with_obs in ((True, False) if index % 2 == 0 else (False, True)):
                if with_obs:
                    set_obs(True)
                    before = _counters()
                    timed.append(_replica_pass(state, index, watches))
                    set_obs(False)
                    if index == 0:
                        after = _counters()
                        prefix_counts = {k: after[k] - before[k] for k in after}
                        prefix_calls = watches.calls.get("select", 0)
                else:
                    plain.append(_replica_pass(state, index, None))
                done = (timed if with_obs else plain)[-1]
                region.done(done["decisions"], done["wall_s"])
        else:
            plain.append(_pass(state, index))
            region.done(plain[-1]["decisions"], plain[-1]["wall_s"])
        index += 1
    region.close()

    passes = plain + timed
    decisions = sum(p["decisions"] for p in passes)
    # The digest and the bounded slowdown are over the first pass only: it is
    # the part of the stream every run of a seed completes, whatever the
    # machine's speed.  A traced run evaluates it once more through the
    # program's own ``evaluate_cell``: the rebuilt loop must schedule the same.
    first = (_pass(state, 0) if traced else plain[0])["cells"]
    bsld_mean = sum(c["row"].get("average_bounded_slowdown", math.nan) for c in first.values())
    bsld_mean /= len(first)
    info = {
        "passes": len(plain), "jobs_per_pass": jobs_per_pass, "sched_bsld_mean": bsld_mean,
        "decisions_first_pass": plain[0]["decisions"],
    }
    checks = {"first_pass_ok": all(cell["ok"] for cell in first.values())}
    if checks["first_pass_ok"]:
        report = build_report(
            state["name"], state["specs"], spec["policies"], state["scale"], state["seed"],
            {key: cell["row"] for key, cell in first.items()},
        )
        info["report_digest"] = digest(report_to_json(report))
    violations = [v for p in timed for c in p["cells"].values() for v in c["problems"]]
    if violations:
        info["schedule_violations"] = violations[:5]
    attempted = len(passes) * cells_per_pass * spec["per_pass"]
    failed = sum(spec["per_pass"] for p in passes for c in p["cells"].values() if not c["ok"])
    result = {
        "attempted": attempted, "failed": failed, "checks": checks,
        "work": decisions,
        "region": region, "info": info,
        "named": {
            "eval_jobs_per_s": metric(
                median([jobs_per_pass / op["wall_s"] for op in region.kept()]), "1/s"
            ),
            "sched_bsld_mean": metric(bsld_mean, "ratio"),
        },
        "layers": {},
    }
    if not traced:
        return result

    traced_wall = sum(p["wall_s"] for p in timed)
    plain_wall = sum(p["wall_s"] for p in plain)
    layers = {
        "obs.traced_wall_s": metric(traced_wall, "s"),
        "obs.trace_overhead_ratio": metric(traced_wall / plain_wall, "ratio"),
        "scheduler.metrics.bsld_mean": metric(bsld_mean, "ratio"),
        "scenarios.build_s": metric(state["build_s"], "s"),
        "scheduler.backfill.select_s": metric(watches.total_s["select"], "s"),
        "scheduler.simulator.self_s": metric(traced_wall - watches.total_s["select"], "s"),
        # Counts over the first pass only, so they repeat exactly for a seed.
        "scheduler.backfill.select_calls": metric(prefix_calls, "count"),
        "scheduler.simulator.schedule_passes": metric(prefix_counts["schedule_passes"], "count"),
        "scheduler.backfill.profile_builds": metric(prefix_counts["profile_builds"], "count"),
        "core.observation.build_s": metric(watches.total_s.get("build", 0.0), "s"),
        "core.agent.step_s": metric(watches.total_s.get("step", 0.0), "s"),
    }
    cell_rows = {}
    for key in first:
        cell_rows[key] = sum(p["cells"][key]["wall_s"] for p in timed)
        layers[f"scenarios.cell_s.{key[0]}.{key[1]}"] = metric(cell_rows[key], "s")
    checks["cell_rows_sum_to_wall"] = sums_to(cell_rows.values(), traced_wall)
    checks["replica_matches_evaluate_cell"] = all(
        first[key]["row"].get("average_bounded_slowdown")
        == p["cells"][key]["row"]["average_bounded_slowdown"]
        for p in (plain[0], timed[0]) for key in first
    )
    if state["name"] == "eval-rl-paper":
        layers.update(forward_serial_micro(state["seed"]))
        layers.update(_workload_micro(state))
        layers.update(_simulator_micro(state))
        layers.update(_pool_rows(state))
    if state["name"] == "eval-hetero":
        layers.update(_topology_ratio(state, cell_rows, len(timed)))
    result["layers"] = layers
    return result


# -- rows measured once per traced run -----------------------------------------

def _workload_micro(state: dict) -> dict:
    jobs = state["size"]["trace_jobs"]
    started = time.perf_counter()
    trace = load_trace("SDSC-SP2", num_jobs=jobs, seed=state["seed"] + 7919)  # not cached yet
    load_s = time.perf_counter() - started
    length = state["spec"]["length"]
    seeds = itertools.count()
    sample_s = timeit(lambda: sample_sequence(trace, length, seed=next(seeds)), 10)
    return {
        "workloads.load_trace_s": metric(load_s, "s"),
        "workloads.sample_sequence_us": metric(sample_s * 1e6, "us"),
    }


def _simulator_micro(state: dict) -> dict:
    """``Simulator.run`` on one fixed SDSC sequence per backfilling discipline."""
    trace = load_trace("SDSC-SP2", num_jobs=state["size"]["trace_jobs"])
    length = max(64, 256 // state["size"]["shrink"])
    jobs = sample_sequence(trace, length, start=len(trace) // 3)
    rows = {}
    for label, strategy in (
        ("none", NoBackfill()),
        ("easy", EasyBackfill()),
        ("conservative", ConservativeBackfill(reservation_depth=64, max_candidates=16)),
    ):
        simulator = Simulator(trace.num_processors, policy="FCFS", backfill=strategy)
        seconds = timeit(lambda: simulator.run(jobs), 1, rounds=3)
        rows[f"scheduler.simulator.jobs_per_s.{label}"] = metric(length / seconds, "1/s")
    return rows


def _pool_rows(state: dict) -> dict:
    """One sample per cell through ``evaluate_suite``'s worker pool and inline."""
    spec = state["spec"]
    scale = replace(state["scale"], eval_samples=1)
    workers = min(2, len(os.sched_getaffinity(0)))
    walls = {}
    for label, num_workers in (("pool", workers), ("inline", 0)):
        _report, timing = evaluate_suite(
            list(spec["scenarios"]), scale=scale, seed=state["seed"],
            policies=spec["policies"], num_workers=num_workers, agent_bundle=state["bundle"],
        )
        walls[label] = timing["scenario_eval_wall_seconds"]
    return {
        "scenarios.pool.wall_s": metric(walls["pool"], "s"),
        "scenarios.pool.speedup": metric(walls["inline"] / walls["pool"], "ratio"),
    }


def _topology_ratio(state: dict, cell_rows: dict, passes: int) -> dict:
    """Seconds of ``hetero-partition-drain/easy`` over the seconds the same
    sequences take with ``topology=None`` (the scalar ``Machine`` path)."""
    index = state["spec"]["scenarios"].index("hetero-partition-drain")
    built = state["built"][index]
    sequences = [jobs for p in range(passes) for jobs in _samples(state, index, p)]
    configuration = make_configuration("easy")
    started = time.perf_counter()
    evaluate_strategy_results(built.trace, configuration, sequences, topology=None)
    scalar_s = time.perf_counter() - started
    return {
        "cluster.machine.topology_cost_ratio": metric(
            cell_rows[("hetero-partition-drain", "easy")] / scalar_s, "ratio"
        ),
    }
