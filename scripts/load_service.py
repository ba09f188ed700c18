#!/usr/bin/env python
"""Closed-loop load generator for the online scheduling service.

Starts a :class:`~repro.service.server.SchedulingService` in-process, drives
it over real TCP with concurrent closed-loop clients (each submits a batch,
waits for the response, submits the next), then drains the service, verifies
the replay log offline, and writes a ``service-timing.json`` telemetry
sidecar consumed by ``scripts/check_benchmark_trend.py --service-report``.

Reported metrics are machine-relative so they transfer across runners:

* ``decisions_per_second`` -- served decisions during the live window (drain
  excluded) divided by live wall seconds;
* ``latency_p50/p95/p99_ms`` -- submit round-trip percentiles;
* ``reference_forward_seconds`` -- the measured serial (``row_block=1``)
  policy forward on this machine;
* ``p99_latency_per_forward`` / ``decision_throughput_x_forward`` -- the two
  ratios committed to ``benchmarks/throughput_baseline.json``;
* ``jobs_admitted`` / ``queue_depth_max`` / ``peak_rss_mb`` /
  ``rss_bytes_per_admitted_job`` -- the load the figures above were measured
  at: a closed loop admits as fast as the service answers, so a faster
  service runs a deeper queue and holds more jobs in the same wall window.

Run ``PYTHONPATH=src python scripts/load_service.py --quick`` for the CI
smoke configuration (~15s wall).  ``--min-rate`` turns the throughput floor
into a hard exit code; replay parity is always enforced unless
``--no-parity-check``.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import random
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.agent import RLBackfillAgent  # noqa: E402
from repro.experiments.runner import load_or_train_agent  # noqa: E402
from repro.faults.plan import FaultPlan  # noqa: E402
from repro.obs import enable_tracing, export_chrome_trace  # noqa: E402
from repro.obs.metrics import (  # noqa: E402
    LATENCY_BUCKETS_S,
    Histogram,
    parse_prometheus_text,
)
from repro.service import (  # noqa: E402
    SchedulingService,
    ServiceClient,
    ServiceConfig,
    verify_replay_log,
)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke preset: short run, untrained weights"
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="agent checkpoint (.npz); trained at smoke scale if missing (see "
        "load_or_train_agent). Default: untrained weights with --quick, "
        "otherwise a smoke-scale training run without persisting.",
    )
    parser.add_argument("--duration", type=float, default=None, help="live window wall seconds")
    parser.add_argument("--clients", type=int, default=4, help="concurrent closed-loop clients")
    parser.add_argument("--batch", type=int, default=16, help="jobs per submit request")
    parser.add_argument("--procs", type=int, default=64, help="simulated cluster width")
    parser.add_argument(
        "--time-scale",
        type=float,
        default=1200.0,
        help="event seconds per wall second (tuned so arrivals keep the cluster contended)",
    )
    parser.add_argument(
        "--wide-fraction",
        type=float,
        default=0.25,
        help="fraction of wide jobs (they block the queue head and create backfill decisions)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--admission-rate",
        type=float,
        default=None,
        help="per-tenant refill tokens/sec (default: effectively unthrottled for load runs)",
    )
    parser.add_argument("--out", default=None, help="service-timing JSON path")
    parser.add_argument("--replay-out", default=None, help="replay log JSONL path")
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the service's Prometheus text exposition (the `metrics` "
        "wire op, scraped after drain) to this path",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="also serve GET /metrics + /healthz over plain HTTP on this "
        "port (0 = ephemeral) and verify the scrape body matches the "
        "`metrics` wire op byte for byte",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="enable span tracing and write the merged Chrome trace-event "
        "JSON (request-correlated service spans with flow events; view in "
        "ui.perfetto.dev)",
    )
    parser.add_argument(
        "--min-rate",
        type=float,
        default=None,
        help="fail (exit 1) if live decisions/sec falls below this floor",
    )
    parser.add_argument(
        "--connection-drops",
        type=int,
        default=0,
        help="chaos mode: this many request ordinals per --drop-window are "
        "dropped mid-flight (written, never read) and retried with the same "
        "dedup_key; replay parity then proves the retries never double-admit",
    )
    parser.add_argument(
        "--drop-window",
        type=int,
        default=64,
        help="request-ordinal window the FaultPlan drop ordinals are drawn "
        "over; the plan repeats every window, giving a sustained drop rate",
    )
    parser.add_argument(
        "--no-parity-check",
        action="store_true",
        help="skip the offline replay verification (parity is enforced by default)",
    )
    args = parser.parse_args(argv)
    if args.duration is None:
        args.duration = 8.0 if args.quick else 20.0
    return args


def make_batch(
    rng: np.random.Generator,
    next_id: int,
    batch: int,
    procs: int,
    wide_fraction: float,
) -> List[Dict[str, object]]:
    """One submit batch: mostly narrow/short backfill fodder, occasionally a
    wide job that blocks the FCFS head and opens backfill opportunities.
    Runtimes are in event seconds (the service assigns submit times)."""
    jobs = []
    for offset in range(batch):
        if rng.random() < wide_fraction:
            width = int(rng.integers(procs // 2, max(procs // 2 + 1, procs - 4)))
            runtime = float(rng.exponential(40.0)) + 5.0
        else:
            width = int(rng.integers(1, 5))
            runtime = float(rng.exponential(8.0)) + 1.0
        jobs.append(
            {
                "job_id": next_id + offset,
                "runtime": runtime,
                "requested_processors": width,
                "requested_time": runtime * 2.0,
            }
        )
    return jobs


class ChaosClient(ServiceClient):
    """A :class:`ServiceClient` that can abandon an in-flight submit.

    ``submit_dropped`` writes the request and closes the socket without
    reading the response -- the FaultPlan ``connection_drops`` failure mode:
    the service may or may not have executed the request, and only an
    idempotent ``dedup_key`` retry can safely find out.
    """

    async def submit_dropped(
        self, jobs: List[Dict[str, object]], tenant: str, dedup_key: str
    ) -> None:
        await self.connect()
        payload = {"op": "submit", "tenant": tenant, "dedup_key": dedup_key, "jobs": jobs}
        assert self._writer is not None
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await self._writer.drain()
        await self.close()


async def run_client(
    index: int,
    host: str,
    port: int,
    args: argparse.Namespace,
    deadline: float,
    id_stride: int,
    latencies: Histogram,
    totals: Dict[str, int],
    fault_plan: Optional[FaultPlan] = None,
    ordinals: Optional[Dict[str, int]] = None,
) -> None:
    rng = np.random.default_rng(args.seed * 1000 + index)
    retry_rng = random.Random(args.seed * 1000 + index)
    next_id = index + 1
    async with ChaosClient(host, port) as client:
        while time.perf_counter() < deadline:
            jobs = make_batch(rng, next_id, args.batch, args.procs, args.wide_fraction)
            # Stride ids by client so concurrent submitters never collide.
            for offset, job in enumerate(jobs):
                job["job_id"] = next_id + offset * id_stride
            next_id += args.batch * id_stride
            # One global submit ordinal across all clients (asyncio tasks
            # interleave on one thread, so the counter needs no lock); the
            # fault plan's drop ordinals repeat every --drop-window requests.
            drop = False
            if fault_plan is not None and ordinals is not None:
                ordinal = ordinals["next"]
                ordinals["next"] = ordinal + 1
                drop = fault_plan.drops_connection(ordinal % args.drop_window)
            t0 = time.perf_counter()
            if drop:
                dedup_key = f"chaos-{index}-{next_id}"
                await client.submit_dropped(jobs, f"tenant-{index}", dedup_key)
                totals["dropped"] += 1
                await client.connect()
                response = await client.submit_with_retry(
                    jobs, tenant=f"tenant-{index}", dedup_key=dedup_key, rng=retry_rng
                )
                if response.get("deduplicated"):
                    totals["deduplicated"] += 1
            else:
                response = await client.submit(jobs, tenant=f"tenant-{index}")
            latencies.observe(time.perf_counter() - t0)
            if not response.get("ok"):
                if response.get("error") == "overloaded":
                    totals["overloaded"] += 1
                    await asyncio.sleep(0.005)
                    continue
                raise RuntimeError(f"client {index}: submit failed: {response}")
            totals["decisions"] += len(response["decisions"])
            totals["queue_depth_max"] = max(totals["queue_depth_max"], response["queue_depth"])
            for result in response["results"]:
                if result.get("admitted"):
                    totals["admitted"] += 1
                else:
                    totals["rejected"] += 1


def measure_reference_forward(service: SchedulingService, repeats: int = 2000) -> float:
    """Mean serial-forward seconds of the *serving* agent (the ``row_block=1``
    deep copy), measured on this machine after the load run.

    The unit is ``agent.step`` -- policy, value network and the log-prob grid
    -- and stays so although the deployed policy now calls the cheaper
    ``agent.act``: it is a machine-speed yardstick the committed
    ``service_load`` ratios are expressed in, not the cost of a decision."""
    agent = service.strategy.agent
    cfg = agent.observation_config
    rng = np.random.default_rng(0)
    observation = rng.standard_normal(cfg.observation_size) * 0.1
    mask = np.ones(cfg.num_actions)
    agent.step(observation, mask, deterministic=True)  # warm caches
    t0 = time.perf_counter()
    for _ in range(repeats):
        agent.step(observation, mask, deterministic=True)
    return (time.perf_counter() - t0) / repeats


async def _http_get(host: str, port: int, path: str) -> Tuple[int, str]:
    """One stdlib-HTTP GET, run in the default executor: the service's loop
    must stay free to render the scrape body for the handler thread."""

    def fetch() -> Tuple[int, str]:
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            conn.close()

    return await asyncio.get_running_loop().run_in_executor(None, fetch)


async def check_http_scrape(
    service: SchedulingService, client: ServiceClient
) -> Dict[str, object]:
    """Verify ``GET /metrics`` equals the ``metrics`` wire op byte for byte.

    A background tick can observe into the registry between the two scrapes,
    so a transient mismatch is retried; a persistent one is a real failure
    (the report's ``matched_wire_body`` goes false and main() exits 1).
    """
    mhost, mport = service.metrics_address
    health_status, _ = await _http_get(mhost, mport, "/healthz")
    matched = False
    attempts = 0
    for attempts in range(1, 31):
        status, http_body = await _http_get(mhost, mport, "/metrics")
        wire_body = str((await client.metrics()).get("body", ""))
        if status == 200 and http_body == wire_body:
            matched = True
            break
    return {
        "port": mport,
        "healthz_status": health_status,
        "matched_wire_body": matched,
        "attempts": attempts,
    }


def percentile_ms(latencies: Histogram, q: float) -> float:
    """Bucket-interpolated percentile in milliseconds, ``q`` in percent.

    Uses the same fixed-bucket histogram the service exposes over its
    ``metrics`` wire op, so offline report percentiles and scraped
    ``service_request_seconds`` quantiles share one implementation (and one
    set of compiled-in bucket edges) instead of a separate np.percentile
    code path."""
    return latencies.quantile(q / 100.0) * 1000.0


def stage_budget(service: SchedulingService) -> Dict[str, Dict[str, float]]:
    """Per request stage: seconds summed over the run, that sum as a share of
    the summed ``handle`` time (``admission`` and ``advance`` are parts of
    ``handle``; ``queue_wait`` and ``respond`` lie outside it, so their share
    says how they compare with it), and p50/p99."""
    stages = {
        stage: service.metrics.histogram("service_stage_seconds", stage=stage)
        for stage in service.STAGES
    }
    handle_seconds = stages["handle"].sum
    return {
        stage: {
            "seconds": hist.sum,
            "share_of_handle": hist.sum / handle_seconds if handle_seconds > 0 else 0.0,
            "p50_ms": percentile_ms(hist, 50.0),
            "p99_ms": percentile_ms(hist, 99.0),
        }
        for stage, hist in stages.items()
    }


def peak_rss_bytes() -> int:
    """The process's peak resident set so far (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


async def run_load(args: argparse.Namespace, agent: RLBackfillAgent) -> Dict[str, object]:
    rss_at_start = peak_rss_bytes()
    config = ServiceConfig(
        num_processors=args.procs,
        time_scale=args.time_scale,
        replay_log_path=args.replay_out,
        admission_capacity=1e9 if args.admission_rate is None else 4 * args.admission_rate,
        admission_refill=((0.0, 1e9 if args.admission_rate is None else args.admission_rate),),
        metrics_port=args.metrics_port,
    )
    service = SchedulingService(agent, config)
    # Standalone (registry-less) histogram: always records, shared by every
    # client task (asyncio tasks interleave on one thread, so no locking).
    latencies = Histogram("load_client_submit_seconds", LATENCY_BUCKETS_S)
    totals = {
        "decisions": 0,
        "admitted": 0,
        "rejected": 0,
        "overloaded": 0,
        "dropped": 0,
        "deduplicated": 0,
        "queue_depth_max": 0,
    }
    fault_plan = None
    ordinals = {"next": 0}
    if args.connection_drops > 0:
        fault_plan = FaultPlan.generate(
            args.seed,
            num_requests=args.drop_window,
            num_connection_drops=args.connection_drops,
        )
    async with service:
        host, port = service.address
        start = time.perf_counter()
        deadline = start + args.duration
        clients = [
            asyncio.create_task(
                run_client(
                    i, host, port, args, deadline, args.clients, latencies, totals,
                    fault_plan=fault_plan, ordinals=ordinals,
                )
            )
            for i in range(args.clients)
        ]
        await asyncio.gather(*clients)
        live_seconds = time.perf_counter() - start
        live_decisions = service.counters.decisions
        stages = stage_budget(service)  # the live window's: read before the drain
        async with ServiceClient(host, port) as client:
            drain = await client.drain()
            stats = (await client.stats())["stats"]
            metrics_text = str((await client.metrics()).get("body", ""))
            http_check = None
            if args.metrics_port is not None:
                http_check = await check_http_scrape(service, client)
            await client.shutdown()
        await service.wait_stopped()

    replay = {"checked": False, "matched": None, "jobs": None, "decisions": None}
    if not args.no_parity_check:
        source = args.replay_out if args.replay_out else service.replay.records
        check = verify_replay_log(source, agent)
        replay = {
            "checked": True,
            "matched": check.matched,
            "jobs": check.jobs,
            "decisions": check.decisions,
            "mismatches": list(check.mismatches),
        }

    # Peak over live window, drain and verification, as ``bench/run.py`` reads it.
    rss_peak = peak_rss_bytes()
    forward_seconds = measure_reference_forward(service)
    rate = live_decisions / live_seconds if live_seconds > 0 else 0.0
    p99_ms = percentile_ms(latencies, 99.0)
    report: Dict[str, object] = {
        "service_load_wall_seconds": live_seconds,
        "decisions": live_decisions,
        "decisions_per_second": rate,
        "drain_decisions": int(drain.get("decisions_served", 0)) - live_decisions,
        "jobs_admitted": totals["admitted"],
        "queue_depth_max": totals["queue_depth_max"],
        "peak_rss_mb": rss_peak / 2**20,
        "rss_bytes_per_admitted_job": (rss_peak - rss_at_start) / max(totals["admitted"], 1),
        "jobs_rejected": totals["rejected"],
        "overloaded_responses": totals["overloaded"],
        "connections_dropped": totals["dropped"],
        "deduplicated_retries": totals["deduplicated"],
        "requests": latencies.count,
        "latency_p50_ms": percentile_ms(latencies, 50.0),
        "latency_p95_ms": percentile_ms(latencies, 95.0),
        "latency_p99_ms": p99_ms,
        "stages": stages,
        "reference_forward_seconds": forward_seconds,
        "p99_latency_per_forward": (p99_ms / 1000.0) / forward_seconds,
        "decision_throughput_x_forward": rate * forward_seconds,
        "replay": replay,
        "drain": {k: v for k, v in drain.items() if k != "ok"},
        "service_stats": stats,
        "service_metrics": {
            name: value
            for name, value in parse_prometheus_text(metrics_text).items()
            if "_bucket" not in name
        },
        "metrics_text": metrics_text,
        "metrics_http": http_check,
        "config": {
            "clients": args.clients,
            "batch": args.batch,
            "procs": args.procs,
            "time_scale": args.time_scale,
            "wide_fraction": args.wide_fraction,
            "duration": args.duration,
            "seed": args.seed,
            "quick": args.quick,
            "connection_drops": args.connection_drops,
            "drop_window": args.drop_window,
        },
    }
    return report


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.checkpoint is not None:
        agent = load_or_train_agent(args.checkpoint, scale="smoke", seed=args.seed)
    elif args.quick:
        # CI smoke: untrained weights exercise the identical forward path and
        # determinism contract without a training run in the loop.
        agent = RLBackfillAgent(seed=args.seed)
    else:
        agent = load_or_train_agent(None, scale="smoke", seed=args.seed)

    if args.trace_out:
        enable_tracing()

    report = asyncio.run(run_load(args, agent))

    if args.trace_out:
        trace_path = Path(args.trace_out)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        # The service runs in-process (no workers), so the merged export is
        # just the parent ring -- queue_wait/handle/respond spans connected
        # per request id by flow events.
        summary = export_chrome_trace(trace_path)
        print(f"wrote {trace_path} ({summary['events']} spans)")

    metrics_text = str(report.pop("metrics_text", ""))
    if args.metrics_out:
        metrics_path = Path(args.metrics_out)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(metrics_text, encoding="utf-8")
        print(f"wrote {metrics_path}")

    print(
        f"live: {report['decisions']} decisions in "
        f"{report['service_load_wall_seconds']:.1f}s = "
        f"{report['decisions_per_second']:.0f} dec/s "
        f"(+{report['drain_decisions']} on drain)"
    )
    print(
        f"load: {report['jobs_admitted']} jobs admitted, queue depth max "
        f"{report['queue_depth_max']}; peak RSS {report['peak_rss_mb']:.1f} MB = "
        f"{report['rss_bytes_per_admitted_job']:.0f} B per admitted job over the start"
    )
    print(
        f"latency ms: p50={report['latency_p50_ms']:.1f} "
        f"p95={report['latency_p95_ms']:.1f} p99={report['latency_p99_ms']:.1f}"
    )
    print("stage: share of handle time, p50/p99 ms")
    for stage, row in report["stages"].items():
        print(
            f"  {stage:<10} {row['share_of_handle']:6.1%}  "
            f"p50={row['p50_ms']:.2f} p99={row['p99_ms']:.2f}"
        )
    print(
        f"reference forward: {report['reference_forward_seconds'] * 1e6:.0f}us; "
        f"p99/forward={report['p99_latency_per_forward']:.0f}; "
        f"throughput*forward={report['decision_throughput_x_forward']:.3f}"
    )
    if report["connections_dropped"]:
        print(
            f"chaos: {report['connections_dropped']} connections dropped, "
            f"{report['deduplicated_retries']} retries answered from the dedup cache"
        )
    replay = report["replay"]
    if replay["checked"]:
        print(
            f"replay: {replay['jobs']} jobs, {replay['decisions']} decisions, "
            f"matched={replay['matched']}"
        )
    http_check = report.get("metrics_http")
    if http_check is not None:
        print(
            f"http scrape: port={http_check['port']} "
            f"healthz={http_check['healthz_status']} "
            f"matched_wire_body={http_check['matched_wire_body']} "
            f"(attempt {http_check['attempts']})"
        )

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out}")

    failed = False
    if replay["checked"] and not replay["matched"]:
        print("FAIL: served decisions are not bit-identical to the offline replay:")
        for mismatch in replay.get("mismatches", [])[:5]:
            print(f"  {mismatch}")
        failed = True
    if args.min_rate is not None and report["decisions_per_second"] < args.min_rate:
        print(
            f"FAIL: {report['decisions_per_second']:.0f} decisions/s is below the "
            f"--min-rate floor of {args.min_rate:.0f}"
        )
        failed = True
    if http_check is not None and not (
        http_check["matched_wire_body"] and http_check["healthz_status"] == 200
    ):
        print("FAIL: HTTP /metrics scrape did not match the metrics wire op")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
