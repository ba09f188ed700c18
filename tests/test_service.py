"""Online/offline parity and protocol tests for the scheduling service.

The determinism contract under test: decisions served online -- through
:class:`~repro.scheduler.simulator.OnlineSession` directly, or over the async
TCP API with concurrent clients -- are **bit-identical** to an offline
simulator replay of the service's replay log.  Plus the service plumbing
around it: admission integration, backpressure, graceful drain, and the
monotone event-time assignment that protects the parity margin.
"""

from __future__ import annotations

import asyncio
import json
import math

import numpy as np
import pytest

from repro.cluster.machine import DowntimeWindow
from repro.core.agent import RLBackfillAgent
from repro.obs import parse_prometheus_text
from repro.core.rlbackfill import RLBackfillPolicy
from repro.prediction.predictors import UserEstimate
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.simulator import Simulator, capture_decisions
from repro.service import (
    RecoveryError,
    ReplayLogWriter,
    SchedulingService,
    ServiceClient,
    ServiceConfig,
    ServiceOverloadedError,
    ServiceTimeoutError,
    read_replay_log,
    verify_replay_log,
)
from repro.workloads.job import Job


def make_jobs(n, seed=0, procs=64, start=100.0):
    """A contended synthetic stream: narrow backfill fodder plus wide
    blockers, submit times spaced so backfill opportunities recur."""
    rng = np.random.default_rng(seed)
    jobs, t = [], start
    for i in range(n):
        t += float(rng.exponential(60.0))
        if rng.random() < 0.25:
            width = int(rng.integers(procs // 2, procs - 4))
            runtime = float(rng.exponential(2000.0)) + 100.0
        else:
            width = int(rng.integers(1, 5))
            runtime = float(rng.exponential(400.0)) + 10.0
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=t,
                runtime=runtime,
                requested_processors=width,
                requested_time=runtime * 2.0,
                user_id=int(i % 5),
            )
        )
    return jobs


def make_simulator(backfill=None, capacity_schedule=None):
    return Simulator(
        64,
        policy="FCFS",
        backfill=backfill if backfill is not None else EasyBackfill(),
        estimator=UserEstimate(),
        capacity_schedule=capacity_schedule,
    )


class TestOnlineSession:
    """The incremental session equals the offline batch run, bit for bit."""

    @pytest.mark.parametrize("chunk_seed", [1, 2, 3])
    def test_irregular_advances_match_offline_run(self, chunk_seed):
        jobs = make_jobs(300, seed=7)
        offline_decisions, offline_result = capture_decisions(make_simulator(), jobs)

        session = make_simulator().open_session()
        rng = np.random.default_rng(chunk_seed)
        served = []
        submitted = 0
        horizon = 0.0
        while submitted < len(jobs):
            # Submit every job below the next horizon before advancing to it
            # -- the online contract is submit-before-advance.
            horizon += float(rng.uniform(50.0, 2000.0))
            while submitted < len(jobs) and jobs[submitted].submit_time <= horizon:
                session.submit(jobs[submitted])
                submitted += 1
            served += session.advance_to(horizon)
        served += session.drain()
        online_result = session.result()

        assert served == list(offline_decisions)
        assert session.decisions_served == len(served)
        assert online_result.bsld == offline_result.bsld
        assert online_result.backfill_count == offline_result.backfill_count
        assert online_result.records == offline_result.records

    def test_rl_policy_session_matches_offline_run(self):
        agent = RLBackfillAgent(seed=3)
        jobs = make_jobs(200, seed=11)

        def rl_sim():
            return make_simulator(
                backfill=RLBackfillPolicy(agent, deterministic=True, row_block=1)
            )

        offline_decisions, offline_result = capture_decisions(rl_sim(), jobs)
        session = rl_sim().open_session()
        served = []
        for job in jobs:
            session.submit(job)
            served += session.advance_to(job.submit_time)
        served += session.drain()
        assert served == list(offline_decisions)
        assert session.result().bsld == offline_result.bsld

    def test_capacity_schedule_respected_online(self):
        """Downtime windows are simulator configuration, so the online
        session must honour them identically to the offline run."""
        windows = (DowntimeWindow(start=500.0, end=5000.0, processors=32),)
        jobs = make_jobs(150, seed=5)
        offline_decisions, offline_result = capture_decisions(
            make_simulator(capacity_schedule=windows), jobs
        )
        session = make_simulator(capacity_schedule=windows).open_session()
        for job in jobs:
            session.submit(job)
        served = session.advance_to(jobs[-1].submit_time) + session.drain()
        assert served == list(offline_decisions)
        assert session.result().records == offline_result.records

    def test_submissions_must_be_in_the_open_future(self):
        session = make_simulator().open_session()
        session.submit(make_jobs(1, seed=1)[0])
        session.advance_to(10_000.0)
        with pytest.raises(ValueError):
            session.submit(
                Job(
                    job_id=99,
                    submit_time=1.0,
                    runtime=10.0,
                    requested_processors=1,
                    requested_time=20.0,
                )
            )

    def test_only_drain_jumps_to_the_last_completion(self):
        """A live advance past an idle machine's last completion stays at the
        last event, so an arrival dated before that completion is still
        accepted and served as the offline run serves it."""
        first = Job(job_id=1, submit_time=0.0, runtime=100.0, requested_processors=60,
                    requested_time=100.0)
        later = [
            Job(job_id=2, submit_time=50.0, runtime=80.0, requested_processors=8,
                requested_time=80.0),
            Job(job_id=3, submit_time=60.0, runtime=10.0, requested_processors=2,
                requested_time=10.0),
        ]
        session = make_simulator().open_session()
        session.submit(first)
        assert session.advance_to(200.0) == []
        assert session.now == 0.0
        for job in later:
            session.submit(job)
        served = session.advance_to(200.0) + session.drain()
        offline_decisions, offline_result = capture_decisions(make_simulator(), [first, *later])
        assert served == offline_decisions and served
        assert session.result().records == offline_result.records

    def test_duplicate_ids_rejected(self):
        session = make_simulator().open_session()
        job = make_jobs(1, seed=1)[0]
        session.submit(job)
        with pytest.raises(ValueError):
            session.submit(job)

    def test_result_requires_drain(self):
        session = make_simulator().open_session()
        session.submit(make_jobs(1, seed=1)[0])
        with pytest.raises(RuntimeError):
            session.result()


def run_service(coro):
    return asyncio.run(coro)


def service_config(**overrides):
    defaults = dict(
        num_processors=64,
        time_scale=5000.0,
        tick_interval=0.01,
        admission_capacity=1e6,
        admission_refill=((0.0, 1e6),),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def wire_jobs(rng, next_id, count, stride=1, procs=64):
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
                "job_id": next_id + k * stride,
                "runtime": runtime,
                "requested_processors": width,
                "requested_time": runtime * 2.0,
            }
        )
    return jobs


class TestServiceParity:
    """Decisions served over the async API replay bit-identically offline."""

    def test_single_client_stream_replays_exactly(self):
        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(agent, service_config())
            async with service:
                host, port = service.address
                rng = np.random.default_rng(2)
                async with ServiceClient(host, port) as client:
                    next_id = 1
                    for _ in range(12):
                        response = await client.submit(wire_jobs(rng, next_id, 8))
                        assert response["ok"], response
                        next_id += 8
                        await asyncio.sleep(0.003)
                    drain = await client.drain()
                    await client.shutdown()
                await service.wait_stopped()
            return service, drain

        service, drain = run_service(scenario())
        check = verify_replay_log(service.replay.records, agent).raise_on_mismatch()
        assert check.jobs == 96
        assert check.decisions == drain["decisions_served"]
        # The offline replay reproduces the drain summary's headline metric.
        assert drain["bsld"] == check.result.bsld

    def test_concurrent_clients_replay_exactly(self):
        """Multiple interleaved tenants still produce a totally-ordered,
        exactly-replayable submission stream."""
        agent = RLBackfillAgent(seed=1)

        async def client_task(host, port, index, stride):
            rng = np.random.default_rng(100 + index)
            next_id = index + 1
            async with ServiceClient(host, port) as client:
                for _ in range(8):
                    response = await client.submit(
                        wire_jobs(rng, next_id, 6, stride=stride),
                        tenant=f"tenant-{index}",
                    )
                    assert response["ok"], response
                    next_id += 6 * stride
                    await asyncio.sleep(0.002)

        async def scenario():
            service = SchedulingService(agent, service_config())
            async with service:
                host, port = service.address
                await asyncio.gather(
                    *(client_task(host, port, i, 3) for i in range(3))
                )
                async with ServiceClient(host, port) as client:
                    drain = await client.drain()
                    await client.shutdown()
                await service.wait_stopped()
            return service, drain

        service, drain = run_service(scenario())
        check = verify_replay_log(service.replay.records, agent).raise_on_mismatch()
        assert check.jobs == 3 * 8 * 6
        log = read_replay_log(service.replay.records)
        assert set(log.tenants) == {"tenant-0", "tenant-1", "tenant-2"}
        # Assigned event times are strictly increasing across ALL clients:
        # total order is what makes the replay well-defined.
        times = [job.submit_time for job in log.jobs]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_replay_log_file_round_trips(self, tmp_path):
        agent = RLBackfillAgent(seed=4)
        path = tmp_path / "replay.jsonl"

        async def scenario():
            service = SchedulingService(
                agent, service_config(replay_log_path=str(path))
            )
            async with service:
                host, port = service.address
                rng = np.random.default_rng(8)
                async with ServiceClient(host, port) as client:
                    await client.submit(wire_jobs(rng, 1, 16))
                    await client.drain()
                    await client.shutdown()
                await service.wait_stopped()

        run_service(scenario())
        # Every line is valid JSON and the parsed log verifies from disk.
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "header"
        assert records[-1]["type"] == "drain"
        verify_replay_log(path, agent).raise_on_mismatch()

    def test_tampered_log_fails_verification(self):
        agent = RLBackfillAgent(seed=4)

        async def scenario():
            service = SchedulingService(agent, service_config())
            async with service:
                host, port = service.address
                rng = np.random.default_rng(8)
                async with ServiceClient(host, port) as client:
                    await client.submit(wire_jobs(rng, 1, 16))
                    await client.drain()
                    await client.shutdown()
                await service.wait_stopped()
            return service

        service = run_service(scenario())
        records = [dict(r) for r in service.replay.records]
        for record in records:
            if record["type"] == "decision":
                record["time"] += 1e-9  # a single-ulp-scale nudge
                break
        check = verify_replay_log(records, agent)
        assert not check.matched
        with pytest.raises(AssertionError):
            check.raise_on_mismatch()


class TestServiceProtocol:
    def test_hello_stats_and_unknown_op(self):
        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(agent, service_config())
            async with service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    hello = await client.request({"op": "hello"})
                    stats = await client.stats()
                    bogus = await client.request({"op": "frobnicate"})
                    framing = None
                    # Raw non-JSON line: framing error, connection stays up.
                    client._writer.write(b"not json\n")
                    await client._writer.drain()
                    framing = json.loads(await client._reader.readline())
                    await client.shutdown()
                await service.wait_stopped()
            return hello, stats, bogus, framing

        hello, stats, bogus, framing = run_service(scenario())
        assert hello["ok"] and hello["service"] == "repro-scheduler"
        assert hello["row_block"] == 1
        assert stats["ok"] and "event_time" in stats["stats"]
        assert not bogus["ok"] and "frobnicate" in bogus["error"]
        assert not framing["ok"] and "framing" in framing["error"]

    def test_admission_throttles_a_storm_and_keeps_replay_clean(self):
        """A tenant storming past its bucket gets throttled responses with a
        retry hint; rejected jobs never reach the simulator or the replayed
        job stream, so parity still holds."""
        agent = RLBackfillAgent(seed=0)
        config = service_config(
            admission_capacity=10.0, admission_refill=((0.0, 0.5),)
        )

        async def scenario():
            service = SchedulingService(agent, config)
            async with service:
                host, port = service.address
                rng = np.random.default_rng(3)
                async with ServiceClient(host, port) as client:
                    response = await client.submit(
                        wire_jobs(rng, 1, 30), tenant="stormy"
                    )
                    drain = await client.drain()
                    await client.shutdown()
                await service.wait_stopped()
            return service, response, drain

        service, response, drain = run_service(scenario())
        admitted = [r for r in response["results"] if r["admitted"]]
        rejected = [r for r in response["results"] if not r["admitted"]]
        assert len(admitted) == 10
        assert len(rejected) == 20
        assert all(r["reason"] == "throttled" for r in rejected)
        assert all(r["retry_after"] > 0 for r in rejected)
        log = read_replay_log(service.replay.records)
        assert len(log.jobs) == 10
        assert log.rejects == 20
        verify_replay_log(log, agent).raise_on_mismatch()

    def test_invalid_jobs_are_reported_not_fatal(self):
        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(agent, service_config())
            async with service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    response = await client.submit(
                        [
                            {"job_id": 1, "runtime": 10.0,
                             "requested_processors": 1, "requested_time": 20.0},
                            {"job_id": 2, "runtime": 10.0,
                             "requested_processors": 9999, "requested_time": 20.0},
                            {"job_id": 1, "runtime": 10.0,
                             "requested_processors": 1, "requested_time": 20.0},
                            # JSON admits NaN; a job running NaN seconds never completes.
                            {"job_id": 3, "runtime": math.nan,
                             "requested_processors": 1, "requested_time": 20.0},
                        ]
                    )
                    # Checked before the drain, which an admitted NaN would hang.
                    outcomes = [r["admitted"] for r in response["results"]]
                    assert outcomes == [True, False, False, False]
                    drain = await client.drain()
                    await client.shutdown()
                await service.wait_stopped()
            return response, drain

        response, drain = run_service(scenario())
        assert response["results"][1]["reason"] == "invalid"  # too wide
        assert response["results"][2]["reason"] == "invalid"  # duplicate id
        assert response["results"][3]["reason"] == "invalid"  # NaN runtime
        assert "runtime must be finite" in response["results"][3]["error"]
        assert drain["jobs"] == 1

    def test_backpressure_overload_response(self):
        """A full scheduler queue refuses new requests immediately instead of
        buffering without bound."""
        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(
                agent, service_config(max_pending_requests=2, tick_interval=None)
            )
            # Fill the bounded queue directly (the worker is not draining it
            # yet -- the service was never started, so this is deterministic).
            service._queue.put_nowait(({"op": "tick"}, None))
            service._queue.put_nowait(({"op": "tick"}, None))
            response = await service._dispatch_line(b'{"op": "stats"}')
            return response, service.counters.overloaded

        response, overloaded = run_service(scenario())
        assert not response["ok"]
        assert response["error"] == "overloaded"
        assert overloaded == 1

    def test_drain_is_idempotent_and_blocks_new_submissions(self):
        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(agent, service_config())
            async with service:
                host, port = service.address
                rng = np.random.default_rng(5)
                async with ServiceClient(host, port) as client:
                    await client.submit(wire_jobs(rng, 1, 8))
                    first = await client.drain()
                    late = await client.submit(wire_jobs(rng, 100, 4))
                    second = await client.drain()
                    await client.shutdown()
                await service.wait_stopped()
            return first, late, second

        first, late, second = run_service(scenario())
        assert first["ok"] and first["jobs"] == 8
        assert not late["ok"] and late["error"] == "draining"
        assert second == first

    def test_event_times_strictly_increase_even_with_a_frozen_clock(self):
        """The 1us assignment margin dominates the simulator's 1e-9 admission
        epsilon, so replay can never retroactively admit an arrival -- even
        if the wall clock stalls completely."""
        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(
                agent, service_config(tick_interval=None), clock=lambda: 1000.0
            )
            async with service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    response = await client.submit(
                        [
                            {"job_id": k, "runtime": 10.0,
                             "requested_processors": 1, "requested_time": 20.0}
                            for k in range(1, 9)
                        ]
                    )
                    await client.shutdown()
                await service.wait_stopped()
            return response

        response = run_service(scenario())
        times = [r["event_time"] for r in response["results"]]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(b - a >= 1e-6 - 1e-12 for a, b in zip(times, times[1:]))


class TestCrashRecovery:
    """Torn-tail log handling and service reconstruction from the replay log.

    The determinism contract is what makes recovery possible: the surviving
    log prefix fully determines the session state at the crash instant, so a
    recovered service continues the *same* log and the combined stream still
    verifies bit-for-bit offline.
    """

    def _run_and_crash(self, agent, path, bursts=6):
        """Serve some jobs, then stop WITHOUT draining -- a crash leaves the
        log with no drain record -- and tear the final line."""

        async def scenario():
            service = SchedulingService(
                agent,
                service_config(
                    replay_log_path=str(path), replay_durability="fsync"
                ),
            )
            async with service:
                host, port = service.address
                rng = np.random.default_rng(2)
                async with ServiceClient(host, port) as client:
                    for burst in range(bursts):
                        response = await client.submit(wire_jobs(rng, burst * 8 + 1, 8))
                        assert response["ok"], response
                        await asyncio.sleep(0.003)
            return service

        service = run_service(scenario())
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "decision", "index": 9')  # torn mid-record
        return service

    def test_torn_tail_is_rejected_strictly_and_dropped_tolerantly(self, tmp_path):
        agent = RLBackfillAgent(seed=4)
        path = tmp_path / "replay.jsonl"
        self._run_and_crash(agent, path)
        with pytest.raises(ValueError, match="torn final record"):
            read_replay_log(path)
        log = read_replay_log(path, allow_torn_tail=True)
        assert log.torn_tail
        assert len(log.jobs) == 48
        assert log.summary is None
        # Prefix verification: logged decisions only need to be a prefix of
        # the fresh replay when the log is a crash artifact.
        check = verify_replay_log(path, agent, allow_torn_tail=True)
        assert check.matched and check.torn_tail

    def test_mid_file_corruption_always_raises(self, tmp_path):
        agent = RLBackfillAgent(seed=4)
        path = tmp_path / "replay.jsonl"
        self._run_and_crash(agent, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # corrupt a non-final record
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt record"):
            read_replay_log(path, allow_torn_tail=True)

    def test_recovered_service_continues_the_same_log(self, tmp_path):
        agent = RLBackfillAgent(seed=4)
        path = tmp_path / "replay.jsonl"
        crashed = self._run_and_crash(agent, path)
        pre_crash_decisions = crashed.counters.decisions

        async def resume():
            service = SchedulingService.recover(agent, path)
            # Reconstructed state matches the crashed process.
            assert service.counters.admitted == 48
            assert service.counters.decisions >= 0
            async with service:
                host, port = service.address
                rng = np.random.default_rng(99)
                async with ServiceClient(host, port) as client:
                    response = await client.submit(wire_jobs(rng, 1000, 8))
                    assert response["ok"], response
                    drain = await client.drain()
                    await client.shutdown()
                await service.wait_stopped()
            return service, drain

        service, drain = run_service(resume())
        assert drain["jobs"] == 48 + 8
        assert service.config.num_processors == crashed.config.num_processors
        # The torn tail is gone from disk, every line parses, and the
        # combined pre-crash + post-recovery log verifies end to end.
        for line in path.read_text(encoding="utf-8").splitlines():
            json.loads(line)
        check = verify_replay_log(path, agent).raise_on_mismatch()
        assert check.jobs == 56
        assert check.decisions >= pre_crash_decisions

    def test_recovery_of_a_drained_log_restores_the_terminal_state(self, tmp_path):
        agent = RLBackfillAgent(seed=4)
        path = tmp_path / "replay.jsonl"

        async def scenario():
            service = SchedulingService(
                agent, service_config(replay_log_path=str(path))
            )
            async with service:
                host, port = service.address
                rng = np.random.default_rng(8)
                async with ServiceClient(host, port) as client:
                    await client.submit(wire_jobs(rng, 1, 16))
                    drain = await client.drain()
                    await client.shutdown()
                await service.wait_stopped()
            return drain

        drain = run_service(scenario())
        recovered = SchedulingService.recover(agent, path)
        assert recovered._draining
        summary = recovered._drain_summary
        assert summary is not None and summary["jobs"] == drain["jobs"]
        assert recovered.counters.decisions == drain["decisions_served"]

    def test_recover_rejects_a_mismatched_config(self, tmp_path):
        agent = RLBackfillAgent(seed=4)
        path = tmp_path / "replay.jsonl"
        self._run_and_crash(agent, path, bursts=1)
        with pytest.raises(RecoveryError, match="num_processors"):
            SchedulingService.recover(
                agent, path, config=service_config(num_processors=32)
            )

    def test_writer_resume_truncates_the_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        first = ReplayLogWriter(path, durability="fsync")
        first.write({"type": "header", "num_processors": 4})
        first.write({"type": "submit", "tenant": "t"})
        first.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "subm')
        resumed = ReplayLogWriter(path, resume=True)
        assert resumed.records == []  # the file is the log; nothing is preloaded
        resumed.write({"type": "drain"})
        resumed.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["type"] for r in records] == ["header", "submit", "drain"]

    def test_writer_rejects_unknown_durability(self):
        with pytest.raises(ValueError, match="durability"):
            ReplayLogWriter(None, durability="paranoid")


class TestClientResilience:
    """Per-op timeouts, typed retryable errors, and idempotent retries."""

    def test_idempotent_submit_dedup_key(self):
        """Retrying a submit with the same dedup key replays the cached
        response instead of double-admitting the jobs."""
        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(agent, service_config())
            async with service:
                host, port = service.address
                rng = np.random.default_rng(5)
                jobs = wire_jobs(rng, 1, 6)
                async with ServiceClient(host, port) as client:
                    first = await client.submit(jobs, dedup_key="retry-1")
                    replayed = await client.submit(jobs, dedup_key="retry-1")
                    fresh = await client.submit(wire_jobs(rng, 100, 2), dedup_key="retry-2")
                    await client.shutdown()
                await service.wait_stopped()
            return service, first, replayed, fresh

        service, first, replayed, fresh = run_service(scenario())
        assert first["ok"] and "deduplicated" not in first
        assert replayed["deduplicated"] is True
        assert replayed["results"] == first["results"]
        assert fresh["ok"] and "deduplicated" not in fresh
        assert service.counters.deduplicated == 1
        # The jobs were admitted exactly once: the replay log stays clean.
        log = read_replay_log(service.replay.records)
        assert len(log.jobs) == 8
        verify_replay_log(log, agent).raise_on_mismatch()

    def test_request_timeout_raises_typed_retryable_error(self):
        """A server that never responds trips the per-op timeout with a
        typed, retryable error, and the dead connection is dropped."""

        async def scenario():
            async def mute_handler(reader, writer):
                await reader.readline()  # swallow the request, never answer

            server = await asyncio.start_server(mute_handler, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            async with ServiceClient(host, port, timeout=0.05) as client:
                with pytest.raises(ServiceTimeoutError) as excinfo:
                    await client.request({"op": "stats"})
                assert excinfo.value.retryable
                assert client._writer is None  # connection dropped
            server.close()
            await server.wait_closed()

        run_service(scenario())

    def test_submit_with_retry_backs_off_on_overload(self):
        """Overloaded responses are retried with the SAME dedup key until the
        service accepts; exhausting attempts raises the typed error."""
        seen_keys = []
        responses = [
            {"ok": False, "error": "overloaded", "retryable": True},
            {"ok": False, "error": "overloaded", "retryable": True},
            {"ok": True, "results": [{"job_id": 1, "admitted": True}], "decisions": []},
        ]

        async def scenario():
            calls = {"n": 0}

            async def stub_handler(reader, writer):
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    request = json.loads(line)
                    seen_keys.append(request.get("dedup_key"))
                    index = min(calls["n"], len(responses) - 1)
                    calls["n"] += 1
                    writer.write(json.dumps(responses[index]).encode() + b"\n")
                    await writer.drain()

            server = await asyncio.start_server(stub_handler, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            import random as random_module

            async with ServiceClient(host, port) as client:
                response = await client.submit_with_retry(
                    {"job_id": 1, "runtime": 10.0,
                     "requested_processors": 1, "requested_time": 20.0},
                    base_delay=0.001,
                    rng=random_module.Random(0),
                )
            server.close()
            await server.wait_closed()
            return response

        response = run_service(scenario())
        assert response["ok"]
        assert len(seen_keys) == 3
        assert len(set(seen_keys)) == 1 and seen_keys[0] is not None

    def test_submit_with_retry_exhausts_attempts(self):
        async def scenario():
            async def always_overloaded(reader, writer):
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    writer.write(
                        json.dumps({"ok": False, "error": "overloaded"}).encode() + b"\n"
                    )
                    await writer.drain()

            server = await asyncio.start_server(always_overloaded, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            import random as random_module

            async with ServiceClient(host, port) as client:
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    await client.submit_with_retry(
                        [{"job_id": 1, "runtime": 10.0,
                          "requested_processors": 1, "requested_time": 20.0}],
                        attempts=3,
                        base_delay=0.001,
                        rng=random_module.Random(0),
                    )
                assert excinfo.value.retryable
            server.close()
            await server.wait_closed()

        run_service(scenario())


class TestServiceMetrics:
    """The `metrics` wire op and the registry behind it."""

    def test_metrics_op_exposes_prometheus_text(self):
        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(agent, service_config())
            async with service:
                host, port = service.address
                rng = np.random.default_rng(7)
                async with ServiceClient(host, port) as client:
                    for burst in range(4):
                        response = await client.submit(wire_jobs(rng, burst * 8 + 1, 8))
                        assert response["ok"], response
                    # one invalid job exercises the invalid-outcome counter
                    bad = await client.submit({"job_id": 999, "runtime": -1.0,
                                               "requested_processors": 1,
                                               "requested_time": 1.0})
                    await client.drain()
                    scraped = await client.metrics()
                    await client.shutdown()
                await service.wait_stopped()
            return service, bad, scraped

        service, bad, scraped = run_service(scenario())
        assert scraped["ok"]
        assert scraped["content_type"].startswith("text/plain")
        body = scraped["body"]
        assert "# TYPE service_request_seconds histogram" in body

        samples = parse_prometheus_text(body)
        assert samples['service_admission_total{outcome="admitted",tenant="default"}'] == 32
        assert samples['service_admission_total{outcome="invalid",tenant="default"}'] == 1
        assert samples['service_admission_total{outcome="throttled",tenant="default"}'] == 0
        assert not bad["results"][0]["admitted"]
        # per-op latency histograms: one observation per submit *request*
        # (4 batch bursts + 1 invalid single), not per job
        assert samples['service_request_seconds_count{op="submit"}'] == 5
        # +Inf bucket equals _count (exposition-format invariant)
        assert (
            samples['service_request_seconds_bucket{op="submit",le="+Inf"}']
            == samples['service_request_seconds_count{op="submit"}']
        )
        # decisions counter mirrors the public coarse counter
        assert samples["service_decisions_total"] == service.counters.decisions
        # where a request's time goes: every handled request observes its
        # queue wait, handle and respond once; a submit adds its admission,
        # and every live advance (submits and ticks) its advance_to
        stage = {
            name: samples[f'service_stage_seconds_count{{stage="{name}"}}']
            for name in ("queue_wait", "admission", "advance", "handle", "respond")
        }
        assert stage["queue_wait"] == stage["handle"] == stage["respond"] >= 6
        assert stage["admission"] == 5
        assert 5 <= stage["advance"] <= stage["handle"]
        assert (
            samples['service_stage_seconds_sum{stage="advance"}']
            <= samples['service_stage_seconds_sum{stage="handle"}']
        )

    def test_registry_counters_match_public_counters(self):
        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(
                agent,
                service_config(admission_capacity=4.0, admission_refill=((0.0, 0.001),)),
            )
            async with service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    response = await client.submit(
                        [
                            {"job_id": k, "runtime": 10.0,
                             "requested_processors": 1, "requested_time": 20.0}
                            for k in range(1, 9)
                        ]
                    )
                    await client.shutdown()
                await service.wait_stopped()
            return service, response

        service, response = run_service(scenario())
        samples = parse_prometheus_text(service.metrics.to_prometheus())
        assert samples['service_admission_total{outcome="admitted",tenant="default"}'] == (
            service.counters.admitted
        )
        assert samples['service_admission_total{outcome="throttled",tenant="default"}'] == (
            service.counters.rejected
        )
        assert service.counters.rejected > 0  # the tight bucket throttled some

    def test_tenant_label_is_capped(self):
        """Tenant strings come off the wire with unbounded cardinality, so
        only the first ``_MAX_TENANT_LABELS`` distinct tenants mint their own
        label value; later ones collapse into ``other``."""
        from repro.service.server import _MAX_TENANT_LABELS

        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(agent, service_config())
            async with service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    for i in range(_MAX_TENANT_LABELS + 4):
                        response = await client.submit(
                            {"job_id": i + 1, "runtime": 10.0,
                             "requested_processors": 1, "requested_time": 20.0},
                            tenant=f"team-{i}",
                        )
                        assert response["ok"], response
                    await client.shutdown()
                await service.wait_stopped()
            return service

        service = run_service(scenario())
        samples = parse_prometheus_text(service.metrics.to_prometheus())
        tenants = {
            key.split('tenant="')[1].rstrip('"}')
            for key in samples
            if key.startswith("service_admission_total{")
        }
        # "default" is pre-registered; the first cap-1 wire tenants mint
        # labels (team-0 .. team-6), the remaining five collapse to "other".
        assert "other" in tenants
        assert len(tenants) <= _MAX_TENANT_LABELS + 1
        overflow = sum(
            value
            for key, value in samples.items()
            if key == 'service_admission_total{outcome="admitted",tenant="other"}'
        )
        assert overflow == 5

    def test_node_groups_expose_cluster_group_free_gauges(self):
        """A hetero service publishes per-group free-resource gauges into its
        always-on registry, keyed ``cluster_group_free{group,resource}``."""
        agent = RLBackfillAgent(seed=0)
        groups = (("cpu", 48, 0, 0), ("gpu", 16, 0, 4))

        async def scenario():
            service = SchedulingService(agent, service_config(node_groups=groups))
            async with service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    scraped = await client.metrics()
                    await client.shutdown()
                await service.wait_stopped()
            return scraped

        scraped = run_service(scenario())
        assert scraped["ok"]
        samples = parse_prometheus_text(scraped["body"])
        assert samples['cluster_group_free{group="cpu",resource="cpus"}'] == 48
        assert samples['cluster_group_free{group="gpu",resource="cpus"}'] == 16
        assert samples['cluster_group_free{group="gpu",resource="gpus"}'] == 4


class TestRequestCorrelation:
    """Request-id threading: one monotonic id per request connects the
    queue_wait -> handle -> respond spans (as args) and the
    ``service.request`` flow chain (as the flow id)."""

    def test_request_id_spans_and_flow_chain(self):
        from repro.obs import disable_tracing, enable_tracing, get_tracer, tracing_enabled

        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(agent, service_config())
            async with service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    response = await client.submit(
                        {"job_id": 1, "runtime": 10.0,
                         "requested_processors": 1, "requested_time": 20.0}
                    )
                    assert response["ok"], response
                    await client.shutdown()
                await service.wait_stopped()

        was_tracing = tracing_enabled()
        tracer = get_tracer()
        tracer.clear()
        enable_tracing()
        try:
            run_service(scenario())
            events = tracer.events()
        finally:
            if not was_tracing:
                disable_tracing()
            tracer.clear()

        spans = [e for e in events if e[0] == "X" and e[2] == "service"]
        submit_ids = {
            e[6]["request_id"]
            for e in spans
            if e[1] == "service.queue_wait" and e[6].get("op") == "submit"
        }
        assert len(submit_ids) == 1
        (request_id,) = submit_ids
        assert isinstance(request_id, int) and request_id >= 1

        correlated = {
            e[1] for e in spans if (e[6] or {}).get("request_id") == request_id
        }
        # service.advance rides along inside _handle with the same id.
        assert correlated >= {
            "service.queue_wait", "service.handle",
            "service.respond", "service.advance",
        }

        flows = [
            e for e in events
            if e[0] in "stf" and e[1] == "service.request" and e[7] == request_id
        ]
        assert [e[0] for e in flows] == ["s", "t", "f"]
        # flow timestamps sit at the start of the span each arrow should
        # bind to, so the chain reads enqueue -> handle -> respond.
        assert flows[0][3] <= flows[1][3] <= flows[2][3]

    def test_request_ids_are_monotonic_across_requests(self):
        from repro.obs import disable_tracing, enable_tracing, get_tracer, tracing_enabled

        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(agent, service_config())
            async with service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    for i in range(3):
                        await client.submit(
                            {"job_id": i + 1, "runtime": 10.0,
                             "requested_processors": 1, "requested_time": 20.0}
                        )
                    await client.shutdown()
                await service.wait_stopped()

        was_tracing = tracing_enabled()
        tracer = get_tracer()
        tracer.clear()
        enable_tracing()
        try:
            run_service(scenario())
            events = tracer.events()
        finally:
            if not was_tracing:
                disable_tracing()
            tracer.clear()

        submit_ids = [
            e[6]["request_id"]
            for e in events
            if e[0] == "X" and e[1] == "service.queue_wait"
            and e[6].get("op") == "submit"
        ]
        assert len(submit_ids) == 3
        assert submit_ids == sorted(submit_ids)
        assert len(set(submit_ids)) == 3


class TestMetricsHTTPEndpoint:
    """The plain-HTTP scrape listener (``--metrics-port``)."""

    @staticmethod
    async def http_get(host, port, path):
        """GET over http.client in an executor -- the service shares this
        loop, so a blocking socket read here would deadlock the handler."""
        import http.client

        def fetch():
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                return response.status, response.read()
            finally:
                conn.close()

        return await asyncio.get_running_loop().run_in_executor(None, fetch)

    def test_scrape_round_trip_matches_wire_op(self):
        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(agent, service_config(metrics_port=0))
            async with service:
                host, port = service.address
                http_host, http_port = service.metrics_address
                async with ServiceClient(host, port) as client:
                    response = await client.submit(
                        {"job_id": 1, "runtime": 10.0,
                         "requested_processors": 1, "requested_time": 20.0}
                    )
                    assert response["ok"], response
                    # A background tick between the two scrapes can bump
                    # tick-op counters; retry until a quiescent window.
                    for _ in range(30):
                        status, http_body = await self.http_get(
                            http_host, http_port, "/metrics"
                        )
                        wire = await client.metrics()
                        if status == 200 and http_body == wire["body"].encode():
                            break
                    health = await self.http_get(http_host, http_port, "/healthz")
                    missing = await self.http_get(http_host, http_port, "/nope")
                    await client.shutdown()
                await service.wait_stopped()
            return status, http_body, wire, health, missing

        status, http_body, wire, health, missing = run_service(scenario())
        assert status == 200
        assert http_body == wire["body"].encode()
        samples = parse_prometheus_text(http_body.decode())
        assert samples['service_admission_total{outcome="admitted",tenant="default"}'] == 1
        assert "service_decisions_total" in samples
        assert health == (200, b"ok\n")
        assert missing[0] == 404

    def test_metrics_address_requires_started_service(self):
        agent = RLBackfillAgent(seed=0)
        service = SchedulingService(agent, service_config(metrics_port=0))
        with pytest.raises(RuntimeError):
            service.metrics_address

    def test_no_listener_without_metrics_port(self):
        agent = RLBackfillAgent(seed=0)

        async def scenario():
            service = SchedulingService(agent, service_config())
            async with service:
                assert service._metrics_httpd is None
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    await client.shutdown()
                await service.wait_stopped()

        run_service(scenario())
