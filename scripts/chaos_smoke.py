#!/usr/bin/env python
"""Chaos smoke harness: fault-injected runs must stay bit-identical.

Exercises the failure domains end to end (docs/resilience.md) and writes a
``chaos-timing.json`` telemetry sidecar consumed by
``scripts/check_benchmark_trend.py --chaos-report``:

* **Lane pool**: the same rollout workload runs through a clean process pool
  and through a pool whose :class:`~repro.faults.plan.FaultPlan` SIGKILLs
  workers at round boundaries.  The faulted run must reproduce the unfailed
  local engine's episode infos and buffer floats bit for bit; the harness
  also reports ``recovery_overhead_vs_clean`` --
  fault-injected wall seconds over clean pool wall seconds -- the
  machine-relative cost of respawn + command replay that the trend check
  gates.
* **Service**: a live service is crashed mid-stream (stopped without drain,
  replay log torn mid-record), recovered via
  :meth:`~repro.service.server.SchedulingService.recover`, driven further,
  drained, and the combined pre-crash + post-recovery log is verified
  offline.  Any parity mismatch exits non-zero.

Run ``PYTHONPATH=src python scripts/chaos_smoke.py --quick`` for the CI
configuration (~30s wall).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import BackfillEnvironment, RLBackfillAgent  # noqa: E402
from repro.core.observation import ObservationConfig  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.obs import (  # noqa: E402
    enable_tracing,
    export_chrome_trace,
    set_trace_spool_dir,
)
from repro.rl.buffer import TrajectoryBuffer  # noqa: E402
from repro.rl.lane_pool import ProcessLanePool  # noqa: E402
from repro.rl.vec_env import VecBackfillEnv  # noqa: E402
from repro.service import (  # noqa: E402
    SchedulingService,
    ServiceClient,
    ServiceConfig,
    read_replay_log,
    verify_replay_log,
)
from repro.workloads.synthetic import SyntheticTraceSpec, synthetic_trace  # noqa: E402

OBS_CONFIG = ObservationConfig(max_queue_size=16)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke preset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lanes", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--kills", type=int, default=3, help="worker kills drawn into the fault plan"
    )
    parser.add_argument("--out", default=None, help="chaos timing JSON path")
    parser.add_argument(
        "--trace-out",
        default=None,
        help="enable span tracing and write the merged Chrome trace-event "
        "JSON (parent + surviving worker rings; respawned workers' replay "
        "rounds are tagged args.replay=true; view in ui.perfetto.dev)",
    )
    return parser.parse_args(argv)


def make_env(seed: int) -> BackfillEnvironment:
    spec = SyntheticTraceSpec(
        name="chaos",
        num_processors=64,
        mean_interarrival=300.0,
        mean_runtime=3000.0,
        mean_processors=8.0,
    )
    trace = synthetic_trace(spec, num_jobs=600, seed=123)
    return BackfillEnvironment(
        trace,
        policy="FCFS",
        sequence_length=96,
        observation_config=OBS_CONFIG,
        seed=seed,
        training_pool_size=3,
        min_baseline_bsld=1.1,
    )


def buffer_arrays(buffer: TrajectoryBuffer) -> Dict[str, np.ndarray]:
    return {
        "observations": np.stack(buffer.observations),
        "masks": np.stack(buffer.masks),
        "actions": np.asarray(buffer.actions),
        "rewards": np.asarray(buffer.rewards),
        "values": np.asarray(buffer.values),
        "log_probs": np.asarray(buffer.log_probs),
        "advantages": np.asarray(buffer.advantages),
        "returns": np.asarray(buffer.returns),
    }


def lane_rngs(count: int) -> List[np.random.Generator]:
    return [np.random.default_rng(i) for i in range(count)]


def run_pool(
    args: argparse.Namespace,
    agent: RLBackfillAgent,
    fault_plan: Optional[FaultPlan],
) -> Dict[str, object]:
    pool = ProcessLanePool.from_template(
        make_env(seed=5),
        args.lanes,
        seed=11,
        num_workers=args.workers,
        work_stealing=False,
        fault_plan=fault_plan,
    )
    with pool:
        buffer = TrajectoryBuffer()
        t0 = time.perf_counter()
        infos = pool.rollout(agent, args.lanes, buffer, rngs=lane_rngs(args.lanes))
        wall = time.perf_counter() - t0
        stats = pool.stats()
    return {
        "wall_seconds": wall,
        "infos": infos,
        "arrays": buffer_arrays(buffer),
        "respawns": stats["respawns"],
        "replayed_commands": stats["replayed_commands"],
    }


def pool_chaos(args: argparse.Namespace) -> Dict[str, object]:
    """Kill-matrix parity + the recovery-overhead ratio."""
    agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
    # Ground truth: the unfailed local engine.
    vec = VecBackfillEnv.from_template(make_env(seed=5), args.lanes, seed=11)
    buffer = TrajectoryBuffer()
    reference_infos = vec.rollout(agent, args.lanes, buffer, rngs=lane_rngs(args.lanes))
    reference_arrays = buffer_arrays(buffer)

    plan = FaultPlan.generate(
        args.seed,
        rounds=6,
        num_workers=args.workers,
        num_worker_kills=args.kills,
    )
    clean = run_pool(args, agent, None)
    faulted = run_pool(args, agent, plan)
    mismatches: List[str] = []
    if faulted["infos"] != reference_infos or not all(
        np.array_equal(faulted["arrays"][key], reference_arrays[key])
        for key in reference_arrays
    ):
        mismatches.append("pool: fault-injected rollout diverged")
    if not faulted["respawns"]:
        mismatches.append("pool: fault plan injected no kills")
    overhead = (
        faulted["wall_seconds"] / clean["wall_seconds"]
        if clean["wall_seconds"] > 0
        else float("inf")
    )
    return {
        "clean_wall_seconds": clean["wall_seconds"],
        "faulted_wall_seconds": faulted["wall_seconds"],
        "respawns": faulted["respawns"],
        "replayed_commands": faulted["replayed_commands"],
        "recovery_overhead_vs_clean": overhead,
        "fault_plan": plan.describe(),
        "parity_ok": not mismatches,
        "mismatches": mismatches,
    }


def wire_jobs(rng: np.random.Generator, next_id: int, count: int, procs: int = 64):
    jobs = []
    for k in range(count):
        if rng.random() < 0.25:
            width = int(rng.integers(procs // 2, procs - 4))
            runtime = float(rng.exponential(2000.0)) + 100.0
        else:
            width = int(rng.integers(1, 5))
            runtime = float(rng.exponential(400.0)) + 10.0
        jobs.append(
            {
                "job_id": next_id + k,
                "runtime": runtime,
                "requested_processors": width,
                "requested_time": runtime * 2.0,
            }
        )
    return jobs


def service_chaos(args: argparse.Namespace, log_path: Path) -> Dict[str, object]:
    """Crash a live service mid-stream, tear the log, recover, verify."""
    agent = RLBackfillAgent(seed=args.seed)
    config = ServiceConfig(
        num_processors=64,
        time_scale=5000.0,
        tick_interval=0.01,
        admission_capacity=1e6,
        admission_refill=((0.0, 1e6),),
        replay_log_path=str(log_path),
        replay_durability="fsync",
    )

    async def crash_phase() -> None:
        service = SchedulingService(agent, config)
        async with service:
            host, port = service.address
            rng = np.random.default_rng(args.seed + 2)
            async with ServiceClient(host, port) as client:
                for burst in range(6):
                    response = await client.submit(wire_jobs(rng, burst * 8 + 1, 8))
                    assert response["ok"], response
                    await asyncio.sleep(0.003)
            # Crash: stop without drain; the log keeps only its durable prefix.

    asyncio.run(crash_phase())
    with log_path.open("a", encoding="utf-8") as handle:
        handle.write('{"type": "decision", "index": 10')  # torn mid-record

    torn = read_replay_log(log_path, allow_torn_tail=True)

    async def recovery_phase():
        service = SchedulingService.recover(agent, log_path)
        async with service:
            host, port = service.address
            rng = np.random.default_rng(args.seed + 99)
            async with ServiceClient(host, port, timeout=10.0) as client:
                response = await client.submit_with_retry(wire_jobs(rng, 1000, 8))
                assert response["ok"], response
                drain = await client.drain()
                await client.shutdown()
            await service.wait_stopped()
        return drain

    drain = asyncio.run(recovery_phase())
    check = verify_replay_log(log_path, agent)
    return {
        "torn_tail_detected": bool(torn.torn_tail),
        "jobs_before_crash": len(torn.jobs),
        "jobs_total": int(drain["jobs"]),
        "decisions_total": check.decisions,
        "recovery_ok": bool(check.matched and torn.torn_tail),
        "mismatches": list(check.mismatches),
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spool_dir = None
    if args.trace_out:
        enable_tracing()
        # Workers drain their span rings here at pool close; SIGKILLed
        # workers never get the chance (their rings are lost by design),
        # but their respawned replacements export generation-tagged rings
        # whose recovery-replay spans carry args.replay=true.
        spool_dir = tempfile.mkdtemp(prefix="repro-chaos-spans-")
        set_trace_spool_dir(spool_dir)
    t0 = time.perf_counter()
    pool = pool_chaos(args)
    log_path = Path(args.out).parent if args.out else Path(".")
    service = service_chaos(args, log_path / "chaos-replay.jsonl")
    wall = time.perf_counter() - t0

    if args.trace_out:
        trace_path = Path(args.trace_out)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        summary = export_chrome_trace(trace_path, spool_dir=spool_dir)
        print(
            f"wrote {trace_path} ({summary['events']} spans merged from "
            f"{len(summary['sources'])} ring(s))"
        )
        set_trace_spool_dir(None)
        shutil.rmtree(spool_dir, ignore_errors=True)

    report: Dict[str, object] = {
        "chaos_wall_seconds": wall,
        "pool": pool,
        "service": service,
        "recovery_overhead_vs_clean": pool["recovery_overhead_vs_clean"],
        "pool_parity_ok": 1.0 if pool["parity_ok"] else 0.0,
        "service_recovery_ok": 1.0 if service["recovery_ok"] else 0.0,
        "config": {
            "lanes": args.lanes,
            "workers": args.workers,
            "kills": args.kills,
            "seed": args.seed,
            "quick": args.quick,
        },
    }

    print(
        f"pool: clean {pool['clean_wall_seconds']:.2f}s, "
        f"faulted {pool['faulted_wall_seconds']:.2f}s "
        f"(overhead x{pool['recovery_overhead_vs_clean']:.2f}), "
        f"respawns {pool['respawns']}, parity_ok={pool['parity_ok']}"
    )
    print(
        f"service: {service['jobs_before_crash']} jobs survived the crash, "
        f"{service['jobs_total']} total after recovery, "
        f"torn_tail={service['torn_tail_detected']}, "
        f"recovery_ok={service['recovery_ok']}"
    )

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out}")

    failed = False
    if not pool["parity_ok"]:
        print("FAIL: fault-injected pool rollouts diverged from the clean reference:")
        for mismatch in pool["mismatches"]:
            print(f"  {mismatch}")
        failed = True
    if not service["recovery_ok"]:
        print("FAIL: service crash recovery did not verify:")
        for mismatch in service["mismatches"][:5]:
            print(f"  {mismatch}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
