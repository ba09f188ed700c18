"""Failure-domain tests: fault plans, simulator preemption, pool respawn.

Three layers of the fault subsystem (ISSUE 8, ``docs/resilience.md``):

* :class:`~repro.faults.plan.FaultPlan` -- seeded, reproducible schedules of
  adversity that compose with scenario seeds without perturbing them;
* the simulator -- :class:`~repro.faults.plan.NodeFailure` preempts running
  jobs (kill + requeue through the active
  :class:`~repro.faults.plan.RestartPolicy`), coexists with graceful
  :class:`~repro.cluster.machine.DowntimeWindow` drains, and keeps the
  online session bit-identical to the offline run;
* the process lane pool -- workers SIGKILLed at round boundaries are
  respawned and their lanes replayed so fault-injected rollouts are
  **bit-identical** to unfailed ones (the parity column the chaos CI job
  re-checks under timing pressure).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.machine import DowntimeWindow
from repro.core import RLBackfillAgent
from repro.faults import FaultPlan, NodeFailure, RestartPolicy, as_restart_policy
from repro.prediction.predictors import UserEstimate
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.lane_pool import ProcessLanePool
from repro.rl.vec_env import VecBackfillEnv
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.simulator import Simulator, capture_decisions
from repro.workloads.job import Job
from tests.test_parity_matrix import OBS_CONFIG, make_training_env


def make_job(job_id, submit_time, runtime, processors, requested_time=None):
    return Job(
        job_id=job_id,
        submit_time=submit_time,
        runtime=runtime,
        requested_processors=processors,
        requested_time=requested_time if requested_time is not None else runtime * 2.0,
    )


class TestFaultPlan:
    def test_generate_is_reproducible(self):
        kwargs = dict(
            horizon=10_000.0,
            num_processors=64,
            num_node_failures=4,
            rounds=6,
            num_workers=3,
            num_worker_kills=5,
            num_requests=40,
            num_connection_drops=3,
        )
        first = FaultPlan.generate(7, **kwargs)
        again = FaultPlan.generate(7, **kwargs)
        other = FaultPlan.generate(8, **kwargs)
        assert first == again
        assert first != other
        assert len(first.node_failures) == 4
        assert len(first.worker_kills) == 5
        assert len(first.connection_drops) == 3
        assert all(0.0 < f.time < 10_000.0 for f in first.node_failures)
        assert all(0 <= r < 6 and 0 <= w < 3 for r, w in first.worker_kills)

    def test_generation_does_not_perturb_the_caller_stream(self):
        """Fault plans draw from their own derive_seed child stream: the same
        base seed's direct draws are identical with and without a plan."""
        before = np.random.default_rng(7).uniform(size=8)
        FaultPlan.generate(7, horizon=100.0, num_processors=8, num_node_failures=2)
        after = np.random.default_rng(7).uniform(size=8)
        assert np.array_equal(before, after)

    def test_kills_for_round_selects_and_sorts(self):
        plan = FaultPlan(worker_kills=((2, 1), (0, 3), (2, 0)))
        assert plan.kills_for_round(0) == (3,)
        assert plan.kills_for_round(1) == ()
        assert plan.kills_for_round(2) == (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeFailure(time=-1.0, processors=4, repair_duration=10.0)
        with pytest.raises(ValueError):
            NodeFailure(time=0.0, processors=0, repair_duration=10.0)
        with pytest.raises(ValueError):
            NodeFailure(time=0.0, processors=4, repair_duration=float("inf"))
        with pytest.raises(ValueError):
            RestartPolicy(mode="reincarnate")
        with pytest.raises(ValueError):
            FaultPlan.generate(0, num_node_failures=1)


class TestRestartPolicy:
    def test_requeue_discards_elapsed_credit(self):
        job = make_job(1, 0.0, 1000.0, 4)
        assert as_restart_policy("requeue").remaining_runtime(job, 600.0) is None

    def test_checkpoint_credits_elapsed_with_a_floor(self):
        job = make_job(1, 0.0, 1000.0, 4)
        policy = as_restart_policy("checkpoint")
        assert policy.remaining_runtime(job, 600.0) == 400.0
        # Nearly-done job: the floor keeps a restart from being free.
        assert policy.remaining_runtime(job, 999.9) == pytest.approx(1.0)
        # A job shorter than the floor is clamped to its own runtime.
        tiny = make_job(2, 0.0, 0.5, 1)
        assert policy.remaining_runtime(tiny, 0.4) == pytest.approx(0.5)


def contended_jobs(n=60, seed=3, procs=32):
    rng = np.random.default_rng(seed)
    jobs, t = [], 0.0
    for i in range(n):
        t += float(rng.exponential(120.0))
        wide = rng.random() < 0.3
        width = int(rng.integers(procs // 2, procs)) if wide else int(rng.integers(1, 6))
        runtime = float(rng.exponential(1500.0)) + 50.0
        jobs.append(make_job(i + 1, t, runtime, width))
    return jobs


class TestSimulatorFailures:
    PROCS = 32

    def run(self, jobs, **kwargs):
        return Simulator(
            num_processors=self.PROCS,
            policy="FCFS",
            backfill=EasyBackfill(),
            estimator=UserEstimate(),
            **kwargs,
        ).run(jobs)

    def test_node_failure_preempts_and_requeues(self):
        jobs = contended_jobs()
        clean = self.run(jobs)
        failures = (NodeFailure(time=2000.0, processors=24, repair_duration=3000.0),)
        failed = self.run(jobs, node_failures=failures, restart_policy="requeue")
        assert failed.preemption_count > 0
        assert failed.requeue_count == failed.preemption_count
        assert clean.preemption_count == 0
        # Every job still completes, and preempted jobs record their restarts.
        assert len(failed.records) == len(jobs)
        restarted = [r for r in failed.records if r.restarts > 0]
        assert len(restarted) == failed.preemption_count or sum(
            r.restarts for r in restarted
        ) == failed.preemption_count
        # The preemptions genuinely changed the schedule.
        assert failed.records != clean.records

    def test_checkpoint_restart_never_slower_than_requeue(self):
        """Crediting elapsed runtime can only shrink re-run work, so the
        checkpointed makespan is bounded by the requeue makespan."""
        jobs = contended_jobs(seed=5)
        failures = (NodeFailure(time=3000.0, processors=20, repair_duration=2000.0),)
        requeue = self.run(jobs, node_failures=failures, restart_policy="requeue")
        checkpoint = self.run(jobs, node_failures=failures, restart_policy="checkpoint")
        assert requeue.preemption_count > 0
        assert checkpoint.preemption_count == requeue.preemption_count
        assert checkpoint.metrics.makespan <= requeue.metrics.makespan

    def test_requeue_accounting_under_overlapping_downtime_and_failure(self):
        """A graceful drain and a preempting failure over the same span stay
        distinguishable: only the NodeFailure kills jobs, and the drained
        capacity window still caps restarts."""
        jobs = contended_jobs(seed=9)
        windows = (DowntimeWindow(start=1500.0, end=6000.0, processors=8),)
        failures = (NodeFailure(time=2500.0, processors=12, repair_duration=2500.0),)
        drained_only = self.run(jobs, capacity_schedule=windows)
        both = self.run(
            jobs,
            capacity_schedule=windows,
            node_failures=failures,
            restart_policy="requeue",
        )
        # Graceful drains never preempt; the overlapping failure does.
        assert drained_only.preemption_count == 0
        assert drained_only.requeue_count == 0
        assert both.preemption_count > 0
        assert both.requeue_count == both.preemption_count
        assert len(both.records) == len(jobs)

    def test_failure_past_the_end_equals_the_clean_run(self):
        """A failure scheduled after the last completion (with an empty
        queue) never becomes an event: results equal the clean run, so
        composing a fault plan cannot perturb an untouched scenario."""
        jobs = contended_jobs(seed=11)
        clean = self.run(jobs)
        late = (
            NodeFailure(
                time=clean.metrics.makespan + 10_000.0,
                processors=16,
                repair_duration=500.0,
            ),
        )
        with_late = self.run(jobs, node_failures=late)
        assert with_late.preemption_count == 0
        assert with_late.records == clean.records
        assert with_late.metrics == clean.metrics

    def test_online_session_matches_offline_run_under_failures(self):
        """The failure-aware event loop keeps online/offline parity: the
        incremental session serves the same decisions and final records as
        the batch run with identical NodeFailures configured."""
        jobs = contended_jobs(seed=13)
        failures = (
            NodeFailure(time=1800.0, processors=16, repair_duration=2200.0),
            NodeFailure(time=7000.0, processors=10, repair_duration=1000.0),
        )

        def sim():
            return Simulator(
                num_processors=self.PROCS,
                policy="FCFS",
                backfill=EasyBackfill(),
                estimator=UserEstimate(),
                node_failures=failures,
                restart_policy="checkpoint",
            )

        offline_decisions, offline_result = capture_decisions(sim(), jobs)
        session = sim().open_session()
        rng = np.random.default_rng(2)
        served = []
        submitted, horizon = 0, 0.0
        while submitted < len(jobs):
            horizon += float(rng.uniform(100.0, 2500.0))
            while submitted < len(jobs) and jobs[submitted].submit_time <= horizon:
                session.submit(jobs[submitted])
                submitted += 1
            served += session.advance_to(horizon)
        served += session.drain()
        online_result = session.result()
        assert offline_result.preemption_count > 0
        assert served == list(offline_decisions)
        assert online_result.records == offline_result.records
        assert online_result.preemption_count == offline_result.preemption_count
        assert online_result.requeue_count == offline_result.requeue_count


LANES = 8


def lane_rngs(count, base=0):
    return [np.random.default_rng(base + i) for i in range(count)]


def buffer_arrays(buffer):
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


class TestPoolFaultParity:
    """Fault-injected kill matrix: respawned rollouts are bit-identical.

    The reference row is the unfailed local engine; each fault column runs
    the same lanes through a pool whose :class:`FaultPlan` SIGKILLs workers
    at round boundaries.  Worker respawn replays the lane command history
    from canonical rng state, so infos AND every stored buffer float must
    equal the unfailed reference exactly -- faults may cost wall-clock,
    never trajectory content.
    """

    KILLS = FaultPlan(worker_kills=((0, 0), (1, 1), (2, 0)))

    @pytest.fixture(scope="class")
    def reference(self, small_trace):
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        vec = VecBackfillEnv.from_template(make_training_env(small_trace), LANES, seed=11)
        buffer = TrajectoryBuffer()
        infos = vec.rollout(agent, LANES, buffer, rngs=lane_rngs(LANES))
        return {"agent": agent, "infos": infos, "arrays": buffer_arrays(buffer)}

    @pytest.mark.parametrize(
        "label, kwargs",
        [
            ("faulted[w2]", dict(num_workers=2, work_stealing=False)),
            ("faulted[w3]", dict(num_workers=3, work_stealing=False)),
        ],
    )
    def test_killed_workers_replay_bit_identically(
        self, small_trace, reference, label, kwargs
    ):
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace),
            LANES,
            seed=11,
            fault_plan=self.KILLS,
            **kwargs,
        )
        with pool:
            buffer = TrajectoryBuffer()
            infos = pool.rollout(reference["agent"], LANES, buffer, rngs=lane_rngs(LANES))
            arrays = buffer_arrays(buffer)
            stats = pool.stats()
        assert stats["respawns"] >= 1, label
        assert stats["replayed_commands"] >= 1, label
        assert infos == reference["infos"], label
        for key in reference["arrays"]:
            assert np.array_equal(arrays[key], reference["arrays"][key]), f"{label}: {key}"

    def _two_calls(self, small_trace, work_stealing, episodes, fault_plan):
        """Two consecutive rollouts on one 2-worker pool; per call the infos
        and buffer arrays, then the cumulative rounds, stats and reset counts."""
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace),
            LANES,
            seed=11,
            num_workers=2,
            work_stealing=work_stealing,
            fault_plan=fault_plan,
        )
        out, rounds = [], []
        with pool:
            for call in range(2):
                buffer = TrajectoryBuffer()
                infos = pool.rollout(
                    agent, episodes, buffer, rngs=lane_rngs(LANES, base=10 * call)
                )
                out.append((infos, buffer_arrays(buffer)))
                rounds.append(pool.stats()["rounds"])
            return out, rounds, pool.stats(), list(pool._reset_counts)

    @staticmethod
    def _assert_same_calls(clean, faulted):
        for call, ((clean_infos, clean_arrays), (f_infos, f_arrays)) in enumerate(
            zip(clean, faulted)
        ):
            assert f_infos == clean_infos, f"call {call}"
            for key in clean_arrays:
                assert np.array_equal(f_arrays[key], clean_arrays[key]), f"call {call}: {key}"

    def test_stealing_rollouts_survive_kills_across_calls(self, small_trace):
        """Two consecutive stealing rollouts with kills in both equal the
        unfailed stealing pool, surplus banking included."""
        clean, _, clean_stats, _ = self._two_calls(small_trace, True, 12, None)
        faulted, _, faulted_stats, _ = self._two_calls(
            small_trace, True, 12, FaultPlan(worker_kills=((0, 1), (2, 0), (3, 1)))
        )
        assert clean_stats["respawns"] == 0
        assert faulted_stats["respawns"] >= 1
        self._assert_same_calls(clean, faulted)

    def test_replay_after_repeated_resets_matches_unfailed_run(self, small_trace):
        """A worker killed once its lanes have each acknowledged two sampled
        resets is rebuilt from the *count* of those resets plus the current
        episode's actions, and the second call's stream equals the unfailed
        pool's."""
        clean, rounds, _, resets = self._two_calls(small_trace, False, LANES, None)
        assert resets == [2] * LANES
        # Kill rounds well inside the second call: every lane's second reset
        # was acknowledged in that call's first round.
        inside = rounds[0] + (rounds[1] - rounds[0]) // 3
        faulted, _, stats, _ = self._two_calls(
            small_trace, False, LANES, FaultPlan(worker_kills=((inside, 0), (inside + 1, 1)))
        )
        assert stats["respawns"] == 2
        # Both resets of every lane of a shard were replayed, then its actions.
        assert stats["replayed_commands"] > 2 * LANES
        self._assert_same_calls(clean, faulted)

    def test_respawn_off_raises_on_kill(self, small_trace):
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace),
            LANES,
            seed=11,
            num_workers=2,
            respawn=False,
            fault_plan=FaultPlan(worker_kills=((0, 0),)),
        )
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        with pool:
            with pytest.raises(RuntimeError, match="died"):
                for _ in range(4):
                    pool.rollout(agent, LANES, TrajectoryBuffer(), rngs=lane_rngs(LANES))
