"""Heterogeneous-cluster integration: machine, simulator, scenarios, features.

Covers the two load-bearing contracts of the multi-resource allocator layer
(docs/cluster.md):

* **homogeneous reduction** -- a one-group cpu-only topology schedules every
  sequence bit-identically to the scalar machine, under EASY and conservative
  backfilling, with and without capacity drains;
* **hetero semantics** -- group-tagged drains, partition pinning, per-group
  feasibility, and the ``hetero`` scenario suite's policy-ranking flip.
"""

import numpy as np
import pytest

from repro.cluster.machine import DowntimeWindow, Machine
from repro.cluster.resources import ClusterTopology, NodeGroup, ResourceVector
from repro.core.observation import JOB_FEATURES, ObservationConfig
from repro.prediction.predictors import UserEstimate
from repro.scheduler.backfill.conservative import ConservativeBackfill
from repro.scheduler.backfill.easy import EasyBackfill
from repro.scheduler.simulator import Simulator
from repro.scenarios.registry import (
    HETERO_SUITE,
    ClusterSpec,
    DowntimeSpec,
    NodeGroupSpec,
    get_scenario,
    suite_scenarios,
)
from repro.service.replay import job_from_wire, job_to_wire
from repro.workloads.archive import load_trace
from repro.workloads.job import Job
from repro.workloads.sampling import sample_sequence
from tests.conftest import make_job


def _hetero_machine(**kwargs):
    topology = ClusterTopology(
        (
            NodeGroup(name="cpu", cpus=24),
            NodeGroup(name="gpu", cpus=8, gpus=8),
        )
    )
    return Machine(num_processors=32, topology=topology, **kwargs)


def _gpu_job(job_id, procs=4, gpus=2, runtime=100.0, submit=0.0):
    return Job(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        requested_processors=procs,
        requested_time=runtime * 2,
        requested_gpus=gpus,
    )


# -- homogeneous reduction ----------------------------------------------------


@pytest.mark.parametrize("backfill", [EasyBackfill, ConservativeBackfill])
@pytest.mark.parametrize("with_drain", [False, True])
def test_trivial_topology_schedules_bit_identically(backfill, with_drain):
    """A one-group cpu-only topology reduces to the scalar machine exactly."""
    trace = load_trace("SDSC-SP2", num_jobs=400, seed=7)
    jobs = sample_sequence(trace, 120, seed=3)
    windows = (
        [DowntimeWindow(start=500.0, end=5_000.0, processors=64)] if with_drain else None
    )
    scalar = Simulator(
        trace.num_processors,
        backfill=backfill(),
        estimator=UserEstimate(),
        capacity_schedule=windows,
    ).run(jobs)
    vector = Simulator(
        trace.num_processors,
        backfill=backfill(),
        estimator=UserEstimate(),
        capacity_schedule=windows,
        topology=ClusterTopology.homogeneous(trace.num_processors),
    ).run(jobs)
    assert scalar.records == vector.records
    assert scalar.metrics == vector.metrics
    assert scalar.decision_count == vector.decision_count
    assert scalar.backfill_count == vector.backfill_count


# -- machine semantics --------------------------------------------------------


class TestHeteroMachine:
    def test_topology_size_must_match(self):
        with pytest.raises(ValueError):
            Machine(num_processors=16, topology=ClusterTopology.homogeneous(32))

    def test_gpu_job_only_fits_gpu_group(self):
        machine = _hetero_machine()
        job = _gpu_job(1)
        assert machine.can_start(job)
        assert machine.placement_group(job) == "gpu"
        machine.start(job, now=0.0)
        assert machine.free_processors == 28
        # The gpu group has 4 cpus / 6 gpus left; a 6-cpu gpu job cannot start.
        assert not machine.can_start(_gpu_job(2, procs=6, gpus=1))
        assert machine.can_start(_gpu_job(3, procs=4, gpus=6))

    def test_release_restores_group_vectors(self):
        machine = _hetero_machine()
        job = _gpu_job(1)
        machine.start(job, now=0.0)
        machine.release(job.job_id)
        assert machine.free_processors == 32
        assert machine.hetero_free_map()["gpu"] == ResourceVector(cpus=8, gpus=8)

    def test_multi_group_windows_require_group_tags(self):
        topology = ClusterTopology(
            (NodeGroup(name="a", cpus=16), NodeGroup(name="b", cpus=16))
        )
        with pytest.raises(ValueError):
            Machine(
                num_processors=32,
                topology=topology,
                capacity_schedule=[DowntimeWindow(start=0.0, end=10.0, processors=4)],
            )
        machine = Machine(
            num_processors=32,
            topology=topology,
            capacity_schedule=[
                DowntimeWindow(start=0.0, end=10.0, processors=4, group="b")
            ],
        )
        assert machine.hetero_free_map(time=5.0)["b"].cpus == 12
        assert machine.hetero_free_map(time=5.0)["a"].cpus == 16
        assert machine.hetero_free_map(time=20.0)["b"].cpus == 16

    def test_scalar_machine_rejects_group_tags(self):
        with pytest.raises(ValueError):
            Machine(
                num_processors=32,
                capacity_schedule=[
                    DowntimeWindow(start=0.0, end=10.0, processors=4, group="a")
                ],
            )

    def test_unknown_group_tag_rejected(self):
        machine = _hetero_machine()
        with pytest.raises(KeyError):
            machine.add_capacity_window(
                DowntimeWindow(start=0.0, end=10.0, processors=4, group="nope")
            )

    def test_fail_nodes_rejected_on_hetero(self):
        machine = _hetero_machine()
        with pytest.raises(RuntimeError):
            machine.fail_nodes(now=0.0, processors=4, repair_end=10.0)

    def test_group_drain_caps_at_capacity(self):
        topology = ClusterTopology(
            (NodeGroup(name="a", cpus=16), NodeGroup(name="b", cpus=16))
        )
        machine = Machine(
            num_processors=32,
            topology=topology,
            capacity_schedule=[
                DowntimeWindow(start=0.0, end=10.0, processors=64, group="b")
            ],
        )
        assert machine.hetero_free_map(time=5.0)["b"].cpus == 0


# -- simulator validation -----------------------------------------------------


class TestHeteroSimulator:
    def test_infeasible_job_rejected_up_front(self):
        topology = ClusterTopology(
            (NodeGroup(name="cpu", cpus=24), NodeGroup(name="gpu", cpus=8, gpus=8))
        )
        simulator = Simulator(num_processors=32, topology=topology)
        with pytest.raises(ValueError):
            simulator.run([_gpu_job(1, procs=16, gpus=1)])  # wider than the gpu group
        with pytest.raises(ValueError):
            simulator.run([_gpu_job(1, procs=4, gpus=16)])  # more gpus than exist

    def test_node_failures_rejected_with_topology(self):
        from repro.faults.plan import NodeFailure

        with pytest.raises(ValueError):
            Simulator(
                num_processors=32,
                topology=ClusterTopology.homogeneous(32),
                node_failures=[NodeFailure(time=10.0, processors=4, repair_duration=5.0)],
            )

    def test_gpu_contention_schedules_to_completion(self):
        topology = ClusterTopology(
            (NodeGroup(name="cpu", cpus=24), NodeGroup(name="gpu", cpus=8, gpus=8))
        )
        jobs = [
            make_job(1, submit_time=0.0, runtime=100.0, processors=20),
            *[_gpu_job(i + 2, procs=4, gpus=4, submit=float(i)) for i in range(4)],
            make_job(6, submit_time=5.0, runtime=50.0, processors=24),
        ]
        for backfill in (EasyBackfill(), ConservativeBackfill()):
            result = Simulator(
                32, backfill=backfill, estimator=UserEstimate(), topology=topology
            ).run(jobs)
            assert len(result.records) == len(jobs)
            # At most two 4-gpu jobs can overlap on the 8-gpu group.
            gpu_spans = sorted(
                (r.start_time, r.end_time)
                for r in result.records
                if r.job.requested_gpus
            )
            times = sorted({s for s, _ in gpu_spans} | {e for _, e in gpu_spans})
            for t in times:
                live = sum(1 for s, e in gpu_spans if s <= t < e)
                assert live <= 2

    def test_hetero_run_publishes_group_free_gauges(self):
        """With metrics collection on, the counter flush also snapshots
        per-group free capacity into ``cluster_group_free{group,resource}``
        gauges; a drained sequence reads fully free again."""
        from repro.obs import (
            disable_metrics,
            enable_metrics,
            get_metrics,
            metrics_enabled,
            parse_prometheus_text,
        )

        topology = ClusterTopology(
            (NodeGroup(name="cpu", cpus=24), NodeGroup(name="gpu", cpus=8, gpus=8))
        )
        jobs = [
            make_job(1, submit_time=0.0, runtime=100.0, processors=8),
            _gpu_job(2, procs=4, gpus=2, submit=1.0),
        ]
        was_enabled = metrics_enabled()
        enable_metrics()
        try:
            Simulator(32, estimator=UserEstimate(), topology=topology).run(jobs)
            samples = parse_prometheus_text(get_metrics().to_prometheus())
        finally:
            if not was_enabled:
                disable_metrics()

        assert samples['cluster_group_free{group="cpu",resource="cpus"}'] == 24
        assert samples['cluster_group_free{group="gpu",resource="cpus"}'] == 8
        assert samples['cluster_group_free{group="gpu",resource="gpus"}'] == 8


# -- scenario registry --------------------------------------------------------


class TestHeteroScenarios:
    def test_suite_resolves(self):
        specs = suite_scenarios("hetero")
        assert [spec.name for spec in specs] == list(HETERO_SUITE)
        assert len(specs) >= 3

    def test_topologies_match_trace_machines(self):
        for name in HETERO_SUITE:
            built = get_scenario(name).build(seed=0, num_jobs=200)
            topology = built.topology
            assert topology is not None
            assert topology.total_cpus == built.trace.num_processors

    def test_group_sum_mismatch_raises(self):
        spec = ClusterSpec(node_groups=(NodeGroupSpec(name="a", cpus=10),))
        with pytest.raises(ValueError):
            spec.topology(64)

    def test_hetero_and_failures_mutually_exclusive(self):
        from repro.scenarios.registry import FailureSpec

        with pytest.raises(ValueError):
            ClusterSpec(
                node_groups=(NodeGroupSpec(name="a", cpus=10),),
                failures=(
                    FailureSpec(at=1.0, processors=2, repair=5.0),
                ),
            )

    def test_describe_includes_node_groups(self):
        description = get_scenario("hetero-gpu-scarcity").describe()
        assert description["allocator"] == "best_fit"
        assert [g["name"] for g in description["node_groups"]] == ["cpu", "gpu"]

    def test_partition_drain_resolves_tagged_window(self):
        built = get_scenario("hetero-partition-drain").build(seed=0, num_jobs=200)
        windows = built.capacity_schedule(10_000.0)
        assert len(windows) == 1
        assert windows[0].group == "p1"

    def test_memory_bound_flips_ranking_vs_baseline(self):
        """The acceptance flip: conservative wins the clean SDSC cell, easy
        wins the memory-bound hetero cell built on the same base trace."""
        from repro.experiments.config import get_scale
        from repro.scenarios.evaluate import (
            evaluate_cell,
            scenario_seed,
            scenario_sequences,
        )

        scale = get_scale("smoke")
        bslds = {}
        for name in ("baseline-sdsc", "hetero-memory-bound"):
            built = get_scenario(name).build(
                seed=scenario_seed(0, name), num_jobs=scale.trace_jobs
            )
            sequences = scenario_sequences(built, scale, 0)
            bslds[name] = {
                policy: evaluate_cell(
                    built, policy, scale, 0, sequences=sequences
                )["average_bounded_slowdown"]
                for policy in ("easy", "conservative")
            }
        assert bslds["baseline-sdsc"]["conservative"] < bslds["baseline-sdsc"]["easy"]
        assert (
            bslds["hetero-memory-bound"]["easy"]
            < bslds["hetero-memory-bound"]["conservative"]
        )


# -- observation features -----------------------------------------------------


class TestMultiResourceObservation:
    def test_default_config_unchanged(self):
        config = ObservationConfig(max_queue_size=8)
        assert config.num_resources == 1
        assert config.job_features == JOB_FEATURES

    def test_extra_resources_extend_job_features(self):
        config = ObservationConfig(max_queue_size=8, num_resources=3)
        assert config.job_features == JOB_FEATURES + 4

    def test_resource_features_reflect_free_fractions(self):
        from repro.core.observation import ObservationBuilder
        from repro.scheduler.events import DecisionPoint

        config = ObservationConfig(max_queue_size=4, num_resources=3)
        machine = _hetero_machine()
        machine.start(_gpu_job(99, procs=4, gpus=4), now=0.0)
        job = _gpu_job(1, procs=2, gpus=2)
        decision = DecisionPoint(
            time=0.0,
            reserved_job=make_job(50, processors=30, runtime=500.0),
            reservation_time=10.0,
            extra_processors=2,
            candidates=[job],
            queue=[job],
            machine=machine,
        )
        slots, rows, slot_jobs = ObservationBuilder(config).build(decision)
        slot = rows[0]
        assert slot_jobs[0] is job
        assert slots == [0] and rows.shape == (1, config.job_features)
        # Memory: the topology has none, so both columns are zero.
        assert slot[JOB_FEATURES] == 0.0
        assert slot[JOB_FEATURES + 1] == 0.0
        # GPUs: 4 of 8 busy -> free fraction 0.5; request 2/8 -> 0.25.
        assert slot[JOB_FEATURES + 2] == pytest.approx(0.5)
        assert slot[JOB_FEATURES + 3] == pytest.approx(0.25)

    def test_num_resources_bounds(self):
        with pytest.raises(ValueError):
            ObservationConfig(max_queue_size=4, num_resources=0)
        with pytest.raises(ValueError):
            ObservationConfig(max_queue_size=4, num_resources=4)


# -- replay wire format -------------------------------------------------------


def test_job_wire_round_trips_resource_fields():
    job = Job(
        job_id=9,
        submit_time=1.0,
        runtime=50.0,
        requested_processors=4,
        requested_time=100.0,
        requested_memory=2048,
        used_memory=1024,
        requested_gpus=2,
        partition=1,
    )
    assert job_from_wire(job_to_wire(job)) == job


def test_job_wire_tolerates_legacy_payloads():
    legacy = {
        "job_id": 1,
        "submit_time": 0.0,
        "runtime": 10.0,
        "requested_processors": 2,
        "requested_time": 20.0,
    }
    job = job_from_wire(legacy)
    assert job.requested_memory == -1
    assert job.used_memory == -1
    assert job.requested_gpus == 0
