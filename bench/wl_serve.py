"""``serve-closed-2``: the online service under two closed-loop clients.

An in-process ``SchedulingService`` (64 processors, ``time_scale=6000``, the
default 128-slot agent, unthrottled admission, replay log on disk at
``flush`` durability) and, in the same generator process, two
``ServiceClient`` connections over real TCP.  **Closed loop, 2 clients**: each
submitter sends its next request (8 jobs, 75% narrow-short / 25% wide) only
after the reply to the previous one, so a slower service receives less load.
After the live window the service is drained and its replay log verified
offline.  One operation is one submit round trip; work is counted in
decisions served during the live window.

``time_scale=6000`` keeps the simulated queue contended without an unbounded
backlog: at 1200 the drain alone serves 17k decisions, at 20000 the queue is
empty and only per-request overhead is measured.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from pathlib import Path

import numpy as np

from benchlib import (
    WORK_DIR, Region, Stopwatches, metric, percentile, span_durations, tail_percentile,
)
from layers import overhead_ratio, set_obs, time_policy_collaborators, timeit
from repro.core import RLBackfillAgent
from repro.obs import get_tracer
from repro.service import (
    AdmissionController, ReplayLogWriter, SchedulingService, ServiceClient, ServiceConfig,
    ServiceError, job_from_wire, verify_replay_log,
)

SIZES = {
    "full": {
        "procs": 64, "time_scale": 6000.0, "clients": 2, "batch": 8, "wide_fraction": 0.25,
        "micro_repeats": 2000,
    },
    "smoke": {
        "procs": 64, "time_scale": 6000.0, "clients": 2, "batch": 8, "wide_fraction": 0.25,
        "micro_repeats": 100,
    },
}

#: Seconds a client waits for one reply before the request counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: The live window is read in slices of this length: each gives one sample
#: of the decision rate, and a traced run turns tracing on for every other one.
SLICE_S = 0.5


def setup(name: str, seed: int, size: dict) -> dict:
    return {"agent": RLBackfillAgent(seed=seed), "seed": seed, "size": size}


def make_batch(rng: np.random.Generator, first_id: int, stride: int, size: dict) -> list:
    """One submit request: mostly narrow, short jobs that can be backfilled,
    and now and then a wide one that blocks the head of the queue."""
    procs = size["procs"]
    jobs = []
    for offset in range(size["batch"]):
        if rng.random() < size["wide_fraction"]:
            width = int(rng.integers(procs // 2, max(procs // 2 + 1, procs - 4)))
            runtime = float(rng.exponential(40.0)) + 5.0
        else:
            width = int(rng.integers(1, 5))
            runtime = float(rng.exponential(8.0)) + 1.0
        jobs.append({
            "job_id": first_id + offset * stride, "runtime": runtime,
            "requested_processors": width, "requested_time": runtime * 2.0,
        })
    return jobs


def request_failed(response: dict) -> bool:
    """A reply that is ``ok: false`` (refused, overloaded, errored) or that
    did not admit every job of the request is a failed operation."""
    if not response.get("ok"):
        return True
    return any(not result.get("admitted") for result in response.get("results", ()))


class _Live:
    """What the clients and the tracing switch record during the live window."""

    def __init__(self):
        self.latencies = []       # (seconds, sent while tracing was on, slice sent in)
        self.attempted = 0
        self.failed = 0
        self.obs_on = False
        self.slice = 0            # index of the running slice


async def _client(index, address, state, deadline, live: _Live) -> None:
    size = state["size"]
    rng = np.random.default_rng([state["seed"], index])
    next_id = index + 1
    async with ServiceClient(*address, timeout=REQUEST_TIMEOUT_S) as client:
        while time.perf_counter() < deadline:
            jobs = make_batch(rng, next_id, size["clients"], size)
            next_id += size["batch"] * size["clients"]
            sent_on, sent_in = live.obs_on, live.slice
            live.attempted += 1
            started = time.perf_counter()
            try:
                response = await client.submit(jobs, tenant=f"tenant-{index}")
            except (ServiceError, ConnectionError, OSError):
                live.failed += 1
                await client.connect()
                continue
            live.latencies.append((time.perf_counter() - started, sent_on, sent_in))
            live.failed += request_failed(response)


async def _read_slices(service, watches, deadline, live: _Live, traced: bool, region) -> None:
    """Count the decisions served in each slice of the live window; in a
    traced run, alternate slices with tracing on and off."""
    while deadline - time.perf_counter() > SLICE_S / 2:
        live.obs_on = traced and not live.obs_on
        set_obs(live.obs_on)
        watches.enabled = live.obs_on
        decisions, started = service.counters.decisions, time.perf_counter()
        await asyncio.sleep(min(SLICE_S, deadline - started))
        region.done(
            service.counters.decisions - decisions, time.perf_counter() - started,
            obs_on=live.obs_on, index=live.slice,
        )
        live.slice += 1
    live.obs_on = False
    set_obs(False)
    watches.enabled = False


async def _run(state: dict, seconds: float, traced: bool, log_path: Path) -> dict:
    size = state["size"]
    config = ServiceConfig(
        num_processors=size["procs"], time_scale=size["time_scale"],
        replay_log_path=str(log_path), admission_capacity=1e9,
        admission_refill=((0.0, 1e9),),
    )
    service = SchedulingService(state["agent"], config)
    watches = Stopwatches()
    watches.enabled = False
    if traced:
        service.replay.write = watches.wrap("write", service.replay.write)
        service.session.advance_to = watches.wrap("advance_to", service.session.advance_to)
        time_policy_collaborators(service.strategy, watches)
    live = _Live()
    async with service:
        address = service.address
        region = Region(seconds)
        deadline = region.wall_start + seconds
        tasks = [
            asyncio.create_task(_client(i, address, state, deadline, live))
            for i in range(size["clients"])
        ]
        tasks.append(
            asyncio.create_task(_read_slices(service, watches, deadline, live, traced, region))
        )
        await asyncio.gather(*tasks)
        region.close()
        live_decisions = service.counters.decisions
        async with ServiceClient(*address, timeout=120.0) as client:
            started = time.perf_counter()
            drain = await client.drain()
            drain_s = time.perf_counter() - started
            stats = (await client.stats())["stats"]
            await client.shutdown()
        await service.wait_stopped()
    return {
        "region": region, "live": live, "live_decisions": live_decisions, "drain": drain,
        "drain_s": drain_s, "stats": stats, "watches": watches,
    }


def measure(state: dict, seconds: float, traced: bool) -> dict:
    tracer = get_tracer()
    tracer.clear()
    work_dir = WORK_DIR / f"serve-{time.time_ns()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        log_path = work_dir / "replay.jsonl"
        run = asyncio.run(_run(state, seconds, traced, log_path))
        started = time.perf_counter()
        check = verify_replay_log(log_path, state["agent"])
        verify_s = time.perf_counter() - started
        layers = _layers(state, run, check, verify_s, tracer, work_dir) if traced else {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    live, stats, region = run["live"], run["stats"], run["region"]
    # Round trips count when the slice they were sent in is one of the kept.
    kept = {op["index"] for op in region.kept()}
    samples_ms = [
        seconds_ * 1e3 for seconds_, _, sent_in in live.latencies if sent_in in kept
    ]
    p99 = tail_percentile(samples_ms, 99.0)
    named = {} if p99 is None else {"serve_p99_ms": metric(p99, "ms")}
    return {
        "attempted": live.attempted,
        "failed": live.failed,
        "checks": {
            "replay_matched": check.matched,
            "submitted_accounted": (
                stats["jobs_admitted"] + stats["jobs_rejected"] + stats["jobs_errored"]
                == stats["jobs_submitted"]
            ),
            "drain_ok": bool(run["drain"].get("ok")),
        },
        "work": run["live_decisions"],
        "op_ms": samples_ms,
        "region": region,
        "info": {
            "serve_latency_samples": len(samples_ms),
            "live_decisions": run["live_decisions"],
            "drain_decisions": int(run["drain"].get("decisions_served", 0)) - run["live_decisions"],
            "jobs_admitted": stats["jobs_admitted"], "replay_jobs": check.jobs,
            "replay_decisions": check.decisions, "drain_bsld": run["drain"].get("bsld"),
        },
        "named": named,
        "layers": layers,
    }


def _layers(state, run, check, verify_s, tracer, work_dir: Path) -> dict:
    live, watches, region = run["live"], run["watches"], run["region"]
    events = tracer.events()
    queue_wait = [s * 1e3 for s in span_durations(events, "service.queue_wait", op="submit")]
    handle = [s * 1e3 for s in span_durations(events, "service.handle", op="submit")]
    all_ms = [seconds * 1e3 for seconds, _, _ in live.latencies]
    on_ms = [seconds * 1e3 for seconds, sent_on, _ in live.latencies if sent_on]
    drain_decisions = int(run["drain"].get("decisions_served", 0)) - run["live_decisions"]
    layers = {
        "obs.traced_wall_s": metric(
            sum(op["wall_s"] for op in region.ops if op["obs_on"]), "s"
        ),
        "service.client.samples": metric(len(all_ms), "count"),
        # Span percentiles are p95: the tracing-on slices hold about half of
        # the window's ~1300 requests, too few for ten samples beyond p99.
        "service.server.queue_wait_p50_ms": metric(percentile(queue_wait, 50.0), "ms"),
        "service.server.queue_wait_p95_ms": metric(tail_percentile(queue_wait, 95.0) or 0.0, "ms"),
        "service.server.handle_p50_ms": metric(percentile(handle, 50.0), "ms"),
        "service.server.handle_p95_ms": metric(tail_percentile(handle, 95.0) or 0.0, "ms"),
        "service.server.advance_s": metric(sum(span_durations(events, "service.advance")), "s"),
        "service.admission.admit_s": metric(sum(span_durations(events, "service.admission")), "s"),
        "service.replay.write_s": metric(watches.total_s["write"], "s"),
        "service.server.wire_overhead_p50_ms": metric(
            percentile(on_ms, 50.0) - percentile(queue_wait, 50.0) - percentile(handle, 50.0),
            "ms",
        ),
        "service.server.decisions_per_request": metric(
            run["live_decisions"] / max(1, live.attempted), "ratio"
        ),
        "service.server.drain_decisions_per_s": metric(
            drain_decisions / run["drain_s"] if run["drain_s"] > 0 else 0.0, "1/s"
        ),
        "scheduler.simulator.session_self_s": metric(watches.self_s("advance_to"), "s"),
        "core.observation.build_s": metric(watches.total_s["build"], "s"),
        "core.agent.step_s": metric(watches.total_s["step"], "s"),
        "service.replay.verify_decisions_per_s": metric(check.decisions / verify_s, "1/s"),
        "scheduler.metrics.bsld_mean": metric(float(run["drain"].get("bsld", 0.0)), "ratio"),
    }
    p99 = tail_percentile(all_ms, 99.0)
    if p99 is not None:
        layers["service.client.p99_ms"] = metric(p99, "ms")
    layers.update(overhead_ratio(region.ops))
    layers.update(_micro(state["size"], work_dir))
    return layers


def _micro(size: dict, work_dir: Path) -> dict:
    repeats = size["micro_repeats"]
    record = {
        "type": "decision", "index": 1, "time": 1234.5, "reserved_job_id": 7,
        "chosen_job_id": 9,
    }
    rows = {}
    for durability in ("none", "flush", "fsync"):
        writer = ReplayLogWriter(work_dir / f"micro-{durability}.jsonl", durability=durability)
        try:
            # fsync waits for the disk: fewer repeats keep the run short.
            count = repeats // 20 if durability == "fsync" else repeats
            seconds = timeit(lambda: writer.write(record), max(1, count), rounds=3)
        finally:
            writer.close()
        rows[f"service.replay.append_us.{durability}"] = metric(seconds * 1e6, "us")
    admission = AdmissionController(capacity=1e9, schedule=1e9)
    rows["service.admission.admit_us"] = metric(
        timeit(lambda: admission.admit("tenant-0", 1.0), repeats) * 1e6, "us"
    )
    payload = {
        "job_id": 1, "submit_time": 10.0, "runtime": 12.0, "requested_processors": 4,
        "requested_time": 24.0, "user_id": 0,
    }
    rows["service.replay.job_from_wire_us"] = metric(
        timeit(lambda: job_from_wire(payload), repeats) * 1e6, "us"
    )
    return rows
