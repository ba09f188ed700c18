"""The asyncio online scheduling service.

A long-lived process around one :class:`~repro.scheduler.simulator.OnlineSession`:
concurrent clients stream job submissions over TCP (newline-delimited JSON,
one request per line, one response per line), a per-tenant token-bucket
:class:`~repro.service.admission.AdmissionController` throttles them, and
admitted jobs are scheduled by the trained
:class:`~repro.core.rlbackfill.RLBackfillPolicy` running the ``row_block=1``
serial forward path -- the deployment site PR 5's kernel hint was tuned for.

**Event time is wall-clock-mapped**: ``event_seconds = wall_seconds_since_start
* time_scale``.  The mapping only decides *when* the service looks at the
event loop; every simulated instant (arrivals as assigned, completions from
job runtimes) is independent of wall-clock granularity, which is why the
replay log (:mod:`repro.service.replay`) reproduces every served decision
offline, bit for bit.  Submission event times are assigned monotonically with
a margin wider than the simulator's admission epsilon, so an arrival can
never land inside an already-processed instant.

**Concurrency model**: connection handlers only parse/frame; every
state-touching request goes through one bounded queue into a single scheduler
task (requests are totally ordered, so are assigned event times and served
decisions).  A full queue is backpressure -- the client gets an ``overloaded``
error immediately instead of unbounded buffering.  ``drain`` stops admission
and runs the simulation to completion; ``shutdown`` closes the server after
the in-flight queue empties.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.resources import ClusterTopology, NodeGroup
from repro.core.agent import RLBackfillAgent
from repro.core.rlbackfill import RLBackfillPolicy
from repro.obs import get_metrics, metrics_enabled
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.trace import get_tracer, span
from repro.prediction.predictors import UserEstimate
from repro.scheduler.simulator import OnlineSession, ServedDecision, Simulator
from repro.service.admission import AdmissionController, RefillSchedule
from repro.service.replay import (
    ReplayLog,
    ReplayLogWriter,
    decision_to_wire,
    job_from_wire,
    job_to_wire,
    read_replay_log,
)
from repro.workloads.job import Job

__all__ = [
    "ServiceConfig",
    "SchedulingService",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceTimeoutError",
    "RecoveryError",
]


class ServiceError(RuntimeError):
    """Base class for typed client-side service errors.

    ``retryable`` tells callers whether backing off and resending the same
    request (with the same ``dedup_key``) can succeed.
    """

    retryable = False


class ServiceOverloadedError(ServiceError):
    """The scheduler queue was full; the request was refused, not executed."""

    retryable = True


class ServiceTimeoutError(ServiceError):
    """No response within the per-op timeout; request state is unknown."""

    retryable = True


class RecoveryError(RuntimeError):
    """Crash recovery could not reconcile the replay log with a fresh replay."""

#: Margin (event seconds) added between an assigned submission time and the
#: latest processed event.  Must exceed the simulator's admission epsilon
#: (1e-9): an arrival assigned within that epsilon of an already-processed
#: instant would be admitted retroactively by the offline replay, breaking
#: online/offline parity.
_TIME_MARGIN = 1e-6

#: Per-line frame limit: a batch submission of a few hundred jobs fits well
#: under this; anything larger is a framing error, not a workload.
_STREAM_LIMIT = 1 << 20

#: Distinct tenant strings that may mint their own ``tenant`` label value on
#: ``service_admission_total`` before further tenants collapse into
#: ``other`` -- tenant names come off the wire with unknown cardinality.
_MAX_TENANT_LABELS = 8


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of one :class:`SchedulingService`."""

    num_processors: int = 64
    policy: str = "FCFS"
    #: Event seconds that elapse per wall second.  High values make the
    #: simulated cluster churn fast enough to generate backfill decisions at
    #: load-test rates; 1.0 would serve a real-time cluster.
    time_scale: float = 1000.0
    host: str = "127.0.0.1"
    port: int = 0
    #: Scheduler-queue bound: requests beyond this are refused with an
    #: ``overloaded`` error (the service's backpressure signal).
    max_pending_requests: int = 1024
    #: Admission: per-tenant burst capacity and time-varying refill phases
    #: ``(start_wall_seconds, tokens_per_second)``.
    admission_capacity: float = 256.0
    admission_refill: Tuple[Tuple[float, float], ...] = ((0.0, 128.0),)
    #: JSONL replay log path (``None`` keeps records in memory only).
    replay_log_path: Optional[str] = None
    #: Replay-log write durability: ``"none"`` (buffered), ``"flush"``
    #: (crash-safe against process death, the default), or ``"fsync"``
    #: (crash-safe against host death).  See
    #: :class:`~repro.service.replay.ReplayLogWriter`.
    replay_durability: str = "flush"
    #: Bound on the idempotent-submit dedup cache (LRU-evicted).  Each
    #: ``dedup_key``-carrying submit caches its response so a client retry
    #: after a timeout cannot double-admit jobs.
    dedup_cache_size: int = 4096
    #: Row block pinned on the serving policy's forward site.
    row_block: Optional[int] = 1
    #: Wall seconds between background event-loop ticks (``None`` disables;
    #: decisions are then only served on submit/tick requests).
    tick_interval: Optional[float] = 0.05
    #: Second listener for plain-HTTP observability (``GET /metrics`` serving
    #: the same Prometheus text as the ``metrics`` wire op, ``GET /healthz``).
    #: ``None`` disables; ``0`` binds an ephemeral port (see
    #: :attr:`SchedulingService.metrics_address`).
    metrics_port: Optional[int] = None
    #: Heterogeneous cluster shape as ``(name, cpus, memory, gpus)`` tuples
    #: (summing to ``num_processors`` cpus); ``None`` serves the homogeneous
    #: cluster.  Recorded in the replay-log header so offline replay rebuilds
    #: the same topology, and surfaced as ``cluster_group_free`` gauges.
    node_groups: Optional[Tuple[Tuple[str, int, int, int], ...]] = None


def _normalize_node_groups(groups) -> Optional[Tuple[Tuple[str, int, int, int], ...]]:
    """Canonical ``(name, cpus, memory, gpus)`` tuples (JSON round-trips as
    lists, so normalize before comparing or constructing)."""
    if not groups:
        return None
    return tuple(
        (str(name), int(cpus), int(memory), int(gpus))
        for name, cpus, memory, gpus in groups
    )


def topology_from_node_groups(groups) -> Optional[ClusterTopology]:
    """Build the :class:`ClusterTopology` a ``node_groups`` spec describes."""
    normalized = _normalize_node_groups(groups)
    if normalized is None:
        return None
    return ClusterTopology(
        tuple(
            NodeGroup(name=name, cpus=cpus, memory=memory, gpus=gpus)
            for name, cpus, memory, gpus in normalized
        )
    )


@dataclass
class _Counters:
    requests: int = 0
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    errored: int = 0
    decisions: int = 0
    overloaded: int = 0
    ticks: int = 0
    deduplicated: int = 0


class SchedulingService:
    """Serve backfill decisions for a live submission stream.

    ``clock`` is injectable (seconds, monotone) so tests can drive event time
    deterministically; the default is :func:`time.monotonic`.
    """

    #: Stages of one request, the ``stage`` label values of
    #: ``service_stage_seconds``.  ``admission`` and ``advance`` are inside
    #: ``handle``; ``queue_wait`` precedes it and ``respond`` follows it.
    STAGES = ("queue_wait", "admission", "advance", "handle", "respond")

    def __init__(
        self,
        agent: RLBackfillAgent,
        config: ServiceConfig | None = None,
        clock: Callable[[], float] | None = None,
        *,
        _resume_log: Optional[ReplayLog] = None,
    ):
        self.config = config or ServiceConfig()
        self.strategy = RLBackfillPolicy(
            agent,
            deterministic=True,
            label="serve",
            row_block=self.config.row_block,
        )
        self.simulator = Simulator(
            num_processors=self.config.num_processors,
            policy=self.config.policy,
            backfill=self.strategy,
            estimator=UserEstimate(),
            topology=topology_from_node_groups(self.config.node_groups),
        )
        self.session: OnlineSession = self.simulator.open_session()
        self.admission = AdmissionController(
            capacity=self.config.admission_capacity,
            schedule=RefillSchedule(self.config.admission_refill),
        )
        self.replay = ReplayLogWriter(
            self.config.replay_log_path,
            durability=self.config.replay_durability,
            resume=_resume_log is not None,
        )
        if _resume_log is None:
            self.replay.header(
                num_processors=self.config.num_processors,
                policy=self.config.policy,
                time_scale=self.config.time_scale,
                row_block=self.config.row_block,
                bsld_threshold=self.simulator.bsld_threshold,
                node_groups=_normalize_node_groups(self.config.node_groups),
            )
        self.counters = _Counters()
        # The service *is* a telemetry surface: its registry is always on and
        # exposed through the ``metrics`` wire op (Prometheus text format).
        # ``self.counters`` stays the public coarse view; the registry adds
        # per-op latency histograms, admission-outcome counters, and depth
        # gauges without changing that surface.
        self.metrics = MetricsRegistry(enabled=True)
        self._op_histograms: Dict[str, Histogram] = {}
        self._stage = {
            stage: self.metrics.histogram("service_stage_seconds", stage=stage)
            for stage in self.STAGES
        }
        self._queue_depth_gauge = self.metrics.gauge("service_queue_depth")
        self._pending_gauge = self.metrics.gauge("service_pending_requests")
        # Admission counters carry a capped ``tenant`` label: tenant strings
        # come off the wire with unknown cardinality, so only the first
        # _MAX_TENANT_LABELS distinct tenants mint their own label value and
        # the rest collapse into ``other`` (same discipline as the per-op
        # histograms).  The three outcomes are pre-registered for the default
        # tenant so a scrape always shows them, even at zero.
        self._admission_counters: Dict[Tuple[str, str], Counter] = {}
        self._tenant_labels: set = set()
        for outcome in ("admitted", "throttled", "invalid"):
            self._admission_counter(outcome, "default")
        self._decisions_counter = self.metrics.counter("service_decisions_total")
        self._clock = clock or time.monotonic
        self._t0: Optional[float] = None
        self._last_assigned = 0.0
        self._tenant_ids: Dict[str, int] = {}
        self._draining = False
        self._drain_summary: Optional[Dict[str, object]] = None
        self._dedup_cache: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.max_pending_requests)
        self._server: Optional[asyncio.base_events.Server] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._ticker_task: Optional[asyncio.Task] = None
        self._stopped = asyncio.Event()
        #: Monotonic per-request correlation id, minted at accept time and
        #: threaded through every span of the request as ``args.request_id``.
        self._next_request_id = 0
        self._current_request_id: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._metrics_httpd: Optional[ThreadingHTTPServer] = None
        self._metrics_thread: Optional[threading.Thread] = None
        if _resume_log is not None:
            self._restore_from_log(_resume_log)

    # -- crash recovery -----------------------------------------------------
    @classmethod
    def recover(
        cls,
        agent: RLBackfillAgent,
        replay_log_path: str | Path,
        config: ServiceConfig | None = None,
        clock: Callable[[], float] | None = None,
    ) -> "SchedulingService":
        """Rebuild a crashed service from its replay log.

        Reads the log (tolerating the torn final record a crash mid-write
        leaves), reconstructs the :class:`~repro.scheduler.simulator.OnlineSession`
        by resubmitting every logged job and advancing to the last logged
        instant, and verifies the logged decisions are a prefix of the
        rebuilt stream -- the determinism contract is what makes recovery
        *possible*.  Decisions that were served before the crash but lost
        from the torn tail are re-served identically and re-appended, and
        the log file is reopened for append (torn tail truncated), so the
        recovered service continues the same log.

        ``config`` defaults to one rebuilt from the log header; when given,
        its simulator-shaping fields must match the header (anything else
        could not replay the logged decisions).
        """
        log = read_replay_log(replay_log_path, allow_torn_tail=True)
        header = log.header
        header_row_block = header.get("row_block")
        header_groups = _normalize_node_groups(header.get("node_groups"))
        if config is None:
            config = ServiceConfig(
                num_processors=int(header["num_processors"]),
                policy=str(header.get("policy", "FCFS")),
                time_scale=float(header.get("time_scale", 1000.0)),
                row_block=None if header_row_block is None else int(header_row_block),
                replay_log_path=str(replay_log_path),
                node_groups=header_groups,
            )
        else:
            config = replace(config, replay_log_path=str(replay_log_path))
            expected = {
                "num_processors": int(header["num_processors"]),
                "policy": str(header.get("policy", "FCFS")),
                "row_block": None if header_row_block is None else int(header_row_block),
            }
            for key, value in expected.items():
                if getattr(config, key) != value:
                    raise RecoveryError(
                        f"config.{key}={getattr(config, key)!r} does not match the "
                        f"log header's {value!r}; the logged decisions would not replay"
                    )
            if _normalize_node_groups(config.node_groups) != header_groups:
                raise RecoveryError(
                    f"config.node_groups={config.node_groups!r} does not match the "
                    f"log header's {header_groups!r}; the logged decisions would "
                    "not replay"
                )
        return cls(agent, config, clock, _resume_log=log)

    def _restore_from_log(self, log: ReplayLog) -> None:
        """Reconstruct session state by replaying the log's job stream."""
        for tenant, job in zip(log.tenants, log.jobs):
            self._tenant_ids.setdefault(tenant, int(job.user_id))
            self.session.submit(job)
            self._last_assigned = max(self._last_assigned, job.submit_time)
        rebuilt: List[ServedDecision] = []
        if log.jobs:
            horizon = self._last_assigned
            if log.decisions:
                horizon = max(horizon, log.decisions[-1].time)
            rebuilt += self.session.advance_to(horizon)
        if log.summary is not None:
            # The prior process completed its drain; recovery reproduces the
            # terminal state (summary kept verbatim, not re-logged).
            rebuilt += self.session.drain()
            self._draining = True
            self._drain_summary = dict(log.summary)
        for index, logged in enumerate(log.decisions):
            if index >= len(rebuilt) or rebuilt[index] != logged:
                fresh = rebuilt[index] if index < len(rebuilt) else None
                raise RecoveryError(
                    f"logged decision {index} is not reproduced by the rebuilt "
                    f"session: log {logged} != replay {fresh}"
                )
        # Decisions the crash served but never made durable: re-log them now
        # (bit-identical by the prefix check above).
        for decision in rebuilt[len(log.decisions):]:
            self.replay.decision(decision)
        self.counters.submitted = len(log.jobs) + log.rejects
        self.counters.admitted = len(log.jobs)
        self.counters.rejected = log.rejects
        self.counters.decisions = len(rebuilt)
        self._decisions_counter.inc(len(rebuilt))

    # -- clocks -------------------------------------------------------------
    def wall_now(self) -> float:
        """Wall seconds since the service started serving."""
        if self._t0 is None:
            return 0.0
        return self._clock() - self._t0

    def event_now(self) -> float:
        """The wall-clock-mapped event-time horizon."""
        return self.wall_now() * self.config.time_scale

    def _assign_event_time(self) -> float:
        """Strictly-increasing submission event time, margin-separated from
        every processed instant (see :data:`_TIME_MARGIN`)."""
        floor = max(self.session.now, self._last_assigned) + _TIME_MARGIN
        assigned = max(self.event_now(), floor)
        self._last_assigned = assigned
        return assigned

    # -- lifecycle ----------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("service is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def metrics_address(self) -> Tuple[str, int]:
        """Bound ``(host, port)`` of the HTTP scrape listener."""
        if self._metrics_httpd is None:
            raise RuntimeError("metrics endpoint is not started (set metrics_port)")
        host, port = self._metrics_httpd.server_address[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the scheduler/ticker tasks."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._t0 = self._clock()
        self._loop = asyncio.get_running_loop()
        self._worker_task = asyncio.create_task(self._worker(), name="service-scheduler")
        if self.config.tick_interval is not None:
            self._ticker_task = asyncio.create_task(self._ticker(), name="service-ticker")
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self.config.host,
            port=self.config.port,
            limit=_STREAM_LIMIT,
        )
        if self.config.metrics_port is not None:
            self._start_metrics_http()
        return self.address

    def _start_metrics_http(self) -> None:
        """The plain-HTTP observability listener (``--metrics-port``).

        Runs a stdlib :class:`ThreadingHTTPServer` on its own thread so a
        stock Prometheus can scrape ``GET /metrics`` without speaking the
        JSONL wire protocol.  Handlers never touch service state directly:
        the registry render is scheduled onto the event loop
        (``run_coroutine_threadsafe``), so every registry access stays on the
        loop thread and the HTTP body is byte-identical to the ``metrics``
        wire op's ``body`` field by construction.
        """
        service = self
        loop = self._loop

        class _MetricsHandler(BaseHTTPRequestHandler):
            def _send(self, status: int, body: bytes, content_type: str) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 - stdlib handler naming
                if self.path == "/metrics":
                    try:
                        future = asyncio.run_coroutine_threadsafe(
                            service._render_metrics_body(), loop
                        )
                        body = future.result(timeout=10.0).encode("utf-8")
                    except Exception as error:  # pragma: no cover - shutdown race
                        self.send_error(503, explain=f"{type(error).__name__}: {error}")
                        return
                    self._send(200, body, "text/plain; version=0.0.4")
                elif self.path == "/healthz":
                    self._send(200, b"ok\n", "text/plain")
                else:
                    self.send_error(404)

            def log_message(self, format, *args):  # noqa: A002 - stdlib signature
                pass

        httpd = ThreadingHTTPServer(
            (self.config.host, self.config.metrics_port), _MetricsHandler
        )
        httpd.daemon_threads = True
        self._metrics_httpd = httpd
        self._metrics_thread = threading.Thread(
            target=httpd.serve_forever, name="service-metrics-http", daemon=True
        )
        self._metrics_thread.start()

    async def _render_metrics_body(self) -> str:
        """Loop-thread trampoline for the HTTP handler threads."""
        return self._metrics_body()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, flush the queue, close the log."""
        if self._metrics_httpd is not None:
            httpd = self._metrics_httpd
            thread = self._metrics_thread
            self._metrics_httpd = None
            self._metrics_thread = None
            # serve_forever's poll loop exits within its poll interval;
            # in-flight handler threads are daemonic and finish on their own.
            await asyncio.get_running_loop().run_in_executor(None, httpd.shutdown)
            httpd.server_close()
            if thread is not None:
                thread.join(timeout=5.0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._ticker_task is not None:
            self._ticker_task.cancel()
            try:
                await self._ticker_task
            except asyncio.CancelledError:
                pass
            self._ticker_task = None
        if self._worker_task is not None:
            await self._queue.put(None)
            await self._worker_task
            self._worker_task = None
        self.replay.close()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def __aenter__(self) -> "SchedulingService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- scheduler task -----------------------------------------------------
    async def _worker(self) -> None:
        tracer = get_tracer()
        while True:
            item = await self._queue.get()
            if item is None:
                return
            request, future, enqueue_ns, request_id = item
            op = str(request.get("op", "unknown")) if isinstance(request, dict) else "unknown"
            t0 = time.perf_counter_ns()
            if tracer.enabled:
                # The request already measured its queue wait (enqueue at
                # dispatch, dequeue here), so trace it as a complete span.
                # One flow chain per request id connects queue_wait -> handle
                # -> respond as arrows in Perfetto (the flow events' own
                # timestamps sit at the start of each span, which is how
                # Perfetto binds them to the right slice).
                tracer.complete(
                    "service.queue_wait", enqueue_ns, t0 - enqueue_ns,
                    cat="service", args={"op": op, "request_id": request_id},
                )
                tracer.flow_start("service.request", request_id, enqueue_ns, cat="service")
            self._current_request_id = request_id
            try:
                response = self._handle(request)
            except Exception as error:  # noqa: BLE001 - surfaced to the client
                self.counters.errored += 1
                response = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            finally:
                self._current_request_id = None
            handled = time.perf_counter_ns()
            self._observe_request(op, (handled - t0) / 1e9)
            self._stage["queue_wait"].observe((t0 - enqueue_ns) / 1e9)
            self._stage["handle"].observe((handled - t0) / 1e9)
            if tracer.enabled:
                tracer.flow_step("service.request", request_id, t0, cat="service")
                tracer.complete(
                    "service.handle", t0, handled - t0, cat="service",
                    args={"op": op, "request_id": request_id},
                )
            if future is not None and not future.cancelled():
                future.set_result(response)
            responded = time.perf_counter_ns()
            self._stage["respond"].observe((responded - handled) / 1e9)
            if tracer.enabled:
                tracer.flow_end("service.request", request_id, handled, cat="service")
                tracer.complete(
                    "service.respond", handled, responded - handled,
                    cat="service", args={"op": op, "request_id": request_id},
                )

    async def _ticker(self) -> None:
        while True:
            await asyncio.sleep(self.config.tick_interval)
            try:
                self._queue.put_nowait(
                    ({"op": "tick"}, None, time.perf_counter_ns(), self._mint_request_id())
                )
            except asyncio.QueueFull:
                # The scheduler is saturated with client work; it advances
                # event time on every submit anyway, so a dropped tick is
                # harmless.
                pass

    def _mint_request_id(self) -> int:
        """The next monotonic request-correlation id (loop thread only)."""
        self._next_request_id += 1
        return self._next_request_id

    def _advance(self, horizon: Optional[float] = None) -> List[ServedDecision]:
        if horizon is None:
            horizon = max(self.event_now(), self._last_assigned)
        with span(
            "service.advance", cat="service",
            args={"request_id": self._current_request_id},
        ):
            t0 = time.perf_counter_ns()
            served = self.session.advance_to(horizon)
            self._stage["advance"].observe((time.perf_counter_ns() - t0) / 1e9)
        for decision in served:
            self.replay.decision(decision)
        self.counters.decisions += len(served)
        self._decisions_counter.inc(len(served))
        return served

    _KNOWN_OPS = frozenset({"tick", "submit", "stats", "drain", "metrics"})

    def _observe_request(self, op: str, seconds: float) -> None:
        """Record one scheduler-task request into the service registry.

        Unknown op strings come off the wire, so they collapse into one
        ``other`` label rather than minting unbounded label values.
        """
        label = op if op in self._KNOWN_OPS else "other"
        hist = self._op_histograms.get(label)
        if hist is None:
            hist = self.metrics.histogram("service_request_seconds", op=label)
            self._op_histograms[label] = hist
        hist.observe(seconds)
        self._queue_depth_gauge.set(self.session.queue_depth)
        self._pending_gauge.set(self._queue.qsize())

    # -- request handling ---------------------------------------------------
    def _handle(self, request: Dict[str, object]) -> Dict[str, object]:
        op = request.get("op")
        self.counters.requests += 1
        if op == "tick":
            self.counters.ticks += 1
            if self._draining:
                return {"ok": True, "decisions": []}
            served = self._advance()
            return {
                "ok": True,
                "decisions": [decision_to_wire(d) for d in served],
                "event_time": self.session.now,
            }
        if op == "submit":
            return self._handle_submit(request)
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "metrics":
            return self._handle_metrics()
        if op == "drain":
            return self._handle_drain()
        raise ValueError(f"unknown op {op!r}")

    def _admission_counter(self, outcome: str, tenant: str) -> Counter:
        """The ``service_admission_total{outcome,tenant}`` counter, with the
        tenant label value capped (overflow tenants share ``other``)."""
        if tenant not in self._tenant_labels:
            if len(self._tenant_labels) < _MAX_TENANT_LABELS:
                self._tenant_labels.add(tenant)
            else:
                tenant = "other"
        key = (outcome, tenant)
        counter = self._admission_counters.get(key)
        if counter is None:
            counter = self.metrics.counter(
                "service_admission_total", outcome=outcome, tenant=tenant
            )
            self._admission_counters[key] = counter
        return counter

    def _publish_cluster_gauges(self) -> None:
        """Refresh ``cluster_group_free{group,resource}`` gauges from the
        session machine (hetero clusters only; a no-op otherwise)."""
        machine = self.session.state.machine
        if machine.topology is None:
            return
        for group, vector in machine.hetero_free_map().items():
            for resource, value in vector.as_dict().items():
                self.metrics.gauge(
                    "cluster_group_free", group=group, resource=resource
                ).set(value)

    def _metrics_body(self) -> str:
        """Prometheus text exposition 0.0.4, shared verbatim by the
        ``metrics`` wire op and ``GET /metrics`` on the scrape port.

        Always includes the service's own registry; when global collection is
        on (``REPRO_OBS_METRICS=1``) the process-wide registry -- simulator
        counters, PPO timings -- is appended so one scrape covers both.
        """
        self._publish_cluster_gauges()
        body = self.metrics.to_prometheus()
        if metrics_enabled():
            body += get_metrics().to_prometheus()
        return body

    def _handle_metrics(self) -> Dict[str, object]:
        """The ``metrics`` wire op (see :meth:`_metrics_body`)."""
        return {
            "ok": True,
            "content_type": "text/plain; version=0.0.4",
            "body": self._metrics_body(),
        }

    def _tenant_user_id(self, tenant: str) -> int:
        user_id = self._tenant_ids.get(tenant)
        if user_id is None:
            user_id = len(self._tenant_ids)
            self._tenant_ids[tenant] = user_id
        return user_id

    def _handle_submit(self, request: Dict[str, object]) -> Dict[str, object]:
        dedup_key = request.get("dedup_key")
        dedup_key = None if dedup_key is None else str(dedup_key)
        if dedup_key is not None:
            cached = self._dedup_cache.get(dedup_key)
            if cached is not None:
                # Idempotent retry: the original submission already ran (or
                # was throttled); replay its response instead of double-
                # admitting the jobs.
                self._dedup_cache.move_to_end(dedup_key)
                self.counters.deduplicated += 1
                return {**cached, "deduplicated": True}
        if self._draining:
            return {"ok": False, "error": "draining", "results": []}
        tenant = str(request.get("tenant", "default"))
        payloads = request.get("jobs")
        if payloads is None:
            job = request.get("job")
            payloads = [] if job is None else [job]
        if not isinstance(payloads, list) or not payloads:
            return {"ok": False, "error": "submit needs 'job' or a non-empty 'jobs' list"}
        results: List[Dict[str, object]] = []
        wall = self.wall_now()
        admission_t0 = time.perf_counter_ns()
        for payload in payloads:
            self.counters.submitted += 1
            try:
                verdict = self.admission.admit(tenant, wall)
                if not verdict.admitted:
                    self.counters.rejected += 1
                    self._admission_counter("throttled", tenant).inc()
                    retry = verdict.retry_after
                    self.replay.reject(tenant, wall, retry)
                    results.append(
                        {
                            "job_id": payload.get("job_id"),
                            "admitted": False,
                            "reason": "throttled",
                            "retry_after": retry if math.isfinite(retry) else None,
                        }
                    )
                    continue
                job = job_from_wire(
                    {
                        **payload,
                        "submit_time": self._assign_event_time(),
                        "user_id": self._tenant_user_id(tenant),
                    }
                )
                self.session.submit(job)
            except (ValueError, TypeError, KeyError) as error:
                self.counters.errored += 1
                self._admission_counter("invalid", tenant).inc()
                results.append(
                    {
                        "job_id": payload.get("job_id") if isinstance(payload, dict) else None,
                        "admitted": False,
                        "reason": "invalid",
                        "error": f"{type(error).__name__}: {error}",
                    }
                )
                continue
            self.counters.admitted += 1
            self._admission_counter("admitted", tenant).inc()
            self.replay.submit(tenant, job)
            results.append(
                {"job_id": job.job_id, "admitted": True, "event_time": job.submit_time}
            )
        admission_ns = time.perf_counter_ns() - admission_t0
        self._stage["admission"].observe(admission_ns / 1e9)
        get_tracer().complete(
            "service.admission",
            admission_t0,
            admission_ns,
            cat="service",
            args={"jobs": len(payloads), "request_id": self._current_request_id},
        )
        served = self._advance()
        response: Dict[str, object] = {
            "ok": True,
            "results": results,
            "decisions": [decision_to_wire(d) for d in served],
            "event_time": self.session.now,
            "queue_depth": self.session.queue_depth,
        }
        if dedup_key is not None:
            self._dedup_cache[dedup_key] = response
            self._dedup_cache.move_to_end(dedup_key)
            while len(self._dedup_cache) > self.config.dedup_cache_size:
                self._dedup_cache.popitem(last=False)
        return response

    def _handle_drain(self) -> Dict[str, object]:
        if self._drain_summary is not None:
            return {"ok": True, **self._drain_summary}
        self._draining = True
        served = 0
        for decision in self.session.iter_drain():
            self.replay.decision(decision)
            served += 1
        self.counters.decisions += served
        self._decisions_counter.inc(served)
        summary: Dict[str, object] = {
            "jobs": self.session.jobs_submitted,
            "decisions_served": self.session.decisions_served,
            "event_time": self.session.now,
        }
        if self.session.jobs_submitted:
            result = self.session.result()
            summary.update(
                {
                    "bsld": result.bsld,
                    "backfilled": result.backfill_count,
                    "utilization": result.metrics.utilization,
                }
            )
        if self.replay.path is not None:
            summary["replay_log"] = str(self.replay.path)
        self.replay.drain(summary)
        self.replay.flush()
        self._drain_summary = summary
        return {"ok": True, **summary}

    def stats(self) -> Dict[str, object]:
        return {
            "wall_seconds": self.wall_now(),
            "event_time": self.session.now,
            "event_horizon": self.event_now(),
            "time_scale": self.config.time_scale,
            "jobs_submitted": self.counters.submitted,
            "jobs_admitted": self.counters.admitted,
            "jobs_rejected": self.counters.rejected,
            "jobs_errored": self.counters.errored,
            "decisions_served": self.counters.decisions,
            "requests": self.counters.requests,
            "ticks": self.counters.ticks,
            "overloaded": self.counters.overloaded,
            "deduplicated": self.counters.deduplicated,
            "queue_depth": self.session.queue_depth,
            "pending_requests": self._queue.qsize(),
            "draining": self._draining,
            "admission": self.admission.snapshot(),
        }

    # -- framing ------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._dispatch_line(line)
                writer.write(json.dumps(response, sort_keys=True).encode() + b"\n")
                await writer.drain()
                if response.get("bye"):
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch_line(self, line: bytes) -> Dict[str, object]:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as error:
            return {"ok": False, "error": f"bad request framing: {error}"}
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        if op == "hello":
            return {
                "ok": True,
                "service": "repro-scheduler",
                "num_processors": self.config.num_processors,
                "policy": self.config.policy,
                "time_scale": self.config.time_scale,
                "row_block": self.config.row_block,
            }
        if op == "shutdown":
            # Respond first, then stop: the scheduler queue is flushed by
            # stop(), so already-enqueued work still completes.
            asyncio.get_running_loop().create_task(self.stop())
            return {"ok": True, "bye": True}
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait(
                (request, future, time.perf_counter_ns(), self._mint_request_id())
            )
        except asyncio.QueueFull:
            self.counters.overloaded += 1
            return {
                "ok": False,
                "error": "overloaded",
                "retryable": True,
                "pending_requests": self._queue.qsize(),
            }
        return await future


class ServiceClient:
    """Minimal line-framed client used by tests and the load generator.

    ``timeout`` (wall seconds) bounds every request round trip; ``None``
    waits forever.  A timed-out connection is dropped -- after an abandoned
    round trip the stream's framing state is unknown, so the next request
    must reconnect (:meth:`connect` is idempotent).
    """

    def __init__(self, host: str, port: int, timeout: Optional[float] = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "ServiceClient":
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=_STREAM_LIMIT
            )
        return self

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    async def _roundtrip(self, payload: Dict[str, object]) -> Dict[str, object]:
        assert self._writer is not None and self._reader is not None
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    async def request(
        self,
        payload: Dict[str, object],
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """One request/response round trip.

        ``timeout`` overrides the client default for this op; on expiry the
        connection is closed and :class:`ServiceTimeoutError` (retryable)
        is raised -- whether the service executed the request is unknown,
        which is what ``dedup_key`` retries are for.
        """
        if self._writer is None or self._reader is None:
            raise RuntimeError("client is not connected")
        timeout = self.timeout if timeout is None else timeout
        if timeout is None:
            return await self._roundtrip(payload)
        try:
            return await asyncio.wait_for(self._roundtrip(payload), timeout)
        except asyncio.TimeoutError:
            await self.close()
            raise ServiceTimeoutError(
                f"no response within {timeout}s for op {payload.get('op')!r}"
            ) from None

    async def submit(
        self,
        jobs: Sequence[Dict[str, object]] | Dict[str, object],
        tenant: str = "default",
        dedup_key: Optional[str] = None,
    ) -> Dict[str, object]:
        payload: Dict[str, object] = {"op": "submit", "tenant": tenant}
        if dedup_key is not None:
            payload["dedup_key"] = dedup_key
        if isinstance(jobs, dict):
            payload["job"] = jobs
        else:
            payload["jobs"] = list(jobs)
        return await self.request(payload)

    async def submit_with_retry(
        self,
        jobs: Sequence[Dict[str, object]] | Dict[str, object],
        tenant: str = "default",
        *,
        dedup_key: Optional[str] = None,
        attempts: int = 6,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        rng: Optional[random.Random] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """Submit with jittered exponential backoff on retryable failures.

        Retries on ``overloaded`` responses, timeouts, and dropped
        connections (reconnecting as needed), always resending the **same**
        ``dedup_key`` -- the service's idempotent-submit cache guarantees a
        retry after an ambiguous failure cannot double-admit jobs.  A key is
        generated when the caller does not supply one.  Non-retryable error
        responses are returned as-is; exhausting ``attempts`` raises the
        last retryable error.
        """
        if dedup_key is None:
            dedup_key = uuid.uuid4().hex
        rng = rng if rng is not None else random.Random()
        payload: Dict[str, object] = {
            "op": "submit",
            "tenant": tenant,
            "dedup_key": dedup_key,
        }
        if isinstance(jobs, dict):
            payload["job"] = jobs
        else:
            payload["jobs"] = list(jobs)
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                delay = min(max_delay, base_delay * (2 ** (attempt - 1)))
                await asyncio.sleep(delay * (0.5 + 0.5 * rng.random()))
            try:
                await self.connect()
                response = await self.request(payload, timeout=timeout)
            except (ServiceTimeoutError, ConnectionError, OSError) as error:
                last_error = error
                await self.close()
                continue
            if response.get("ok") or response.get("error") != "overloaded":
                return response
            last_error = ServiceOverloadedError(
                f"service overloaded on submit attempt {attempt + 1}"
            )
        assert last_error is not None
        raise last_error

    async def drain(self) -> Dict[str, object]:
        return await self.request({"op": "drain"})

    async def stats(self) -> Dict[str, object]:
        return await self.request({"op": "stats"})

    async def metrics(self) -> Dict[str, object]:
        """Scrape the service's Prometheus text exposition (``body`` key)."""
        return await self.request({"op": "metrics"})

    async def shutdown(self) -> Dict[str, object]:
        return await self.request({"op": "shutdown"})


def job_wire_from_job(job: Job) -> Dict[str, object]:
    """Client-side helper: the wire form of a trace job (submit_time is
    assigned by the service, so the trace's own submit time is dropped)."""
    payload = job_to_wire(job)
    payload.pop("submit_time", None)
    payload.pop("user_id", None)
    return payload
