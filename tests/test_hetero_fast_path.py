"""Hetero decision points without recomputation: error texts and invalidation rules.

A heterogeneous decision point computes each fact once, at the scope
where it is constant (docs/cluster.md, "What is computed once"): per-job needs
memoised on the machine, one drain-adjusted free map per instant, a reservation
walk that touches eligible groups only.  That no schedule moved is pinned by
the golden decision streams (``tests/golden/``: the four topologies, drains,
stateful estimators).  The tests here pin the exception texts the
recompute-everything code raised and each invalidation rule.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.allocator import BestFitAllocator, FirstFitAllocator
from repro.cluster.machine import DowntimeWindow, Machine
from repro.cluster.resources import (
    _RESOURCE_NAMES,
    ClusterTopology,
    NodeGroup,
    ResourceVector,
)
from repro.prediction.predictors import UserEstimate
from repro.workloads.job import Job

_ALLOCATORS = {"first_fit": FirstFitAllocator, "best_fit": BestFitAllocator}


def _error(call):
    """``(type, message)`` of what ``call`` raises, or ``None``."""
    try:
        call()
    except (ValueError, RuntimeError, KeyError) as error:
        return type(error), str(error)
    return None


def _negative(cpus: int, memory: int, gpus: int):
    """The error for the first negative component, in declaration order."""
    for name, value in zip(_RESOURCE_NAMES, (cpus, memory, gpus)):
        if value < 0:
            return ValueError, f"resource vector {name} must be non-negative, got {value}"
    return None


_components = st.integers(min_value=-3, max_value=5)


@given(_components, _components, _components)
def test_negative_components_raise_the_same_error(cpus, memory, gpus):
    assert _error(lambda: ResourceVector(cpus, memory, gpus)) == _negative(cpus, memory, gpus)
    left = ResourceVector(2, 2, 2)
    right = ResourceVector(abs(cpus), abs(memory), abs(gpus))
    assert _error(lambda: left - right) == _negative(
        2 - abs(cpus), 2 - abs(memory), 2 - abs(gpus)
    )


@pytest.mark.parametrize("policy", sorted(_ALLOCATORS))
def test_allocate_errors_equal_the_parents(policy):
    topology = ClusterTopology(
        (NodeGroup("p0", cpus=4, memory=8, partition=0), NodeGroup("roam", cpus=8, gpus=2))
    )
    allocator = _ALLOCATORS[policy](topology)
    lying = {"p0": ResourceVector(4, 8, 0), "roam": ResourceVector(8, 0, 2)}
    def asked(cpus, memory=0):
        return f"{{'cpus': {cpus}, 'memory': {memory}, 'gpus': 0}}"

    # (request, free map, partition) -> the error it raises, or the group it is granted in.
    script = [
        ((0, 1, None, -1), (ValueError, "cannot allocate a non-positive cpu count: 0")),
        ((9, 0, None, -1), (ValueError, f"request {asked(9)} (partition -1) exceeds every "
                                        "node group's capacity")),
        # Fits "roam" only, pinned to "p0".
        ((5, 0, None, 0), (ValueError, f"request {asked(5)} (partition 0) exceeds every "
                                       "node group's capacity")),
        ((6, 0, None, -1), "roam"),
        ((6, 0, None, -1), (RuntimeError, f"insufficient resources: no eligible group "
                                          f"currently fits {asked(6)}")),
        # The map says yes, the books say no.
        ((6, 0, lying, -1), (RuntimeError, "group 'roam' over-subscribed: free {'cpus': 2, "
                                           f"'memory': 0, 'gpus': 2}}, allocating {asked(6)}")),
        ((3, 8, None, 0), "p0"),
    ]
    for (cpus, memory, free, partition), expected in script:
        request = ResourceVector(cpus, memory, 0)
        if isinstance(expected, str):
            grant = allocator.allocate(request, free, partition)
            assert (grant.group, grant.vector) == (expected, request)
        else:
            assert _error(lambda: allocator.allocate(request, free, partition)) == expected
    assert allocator.free_map() == {"p0": ResourceVector(1, 0, 0), "roam": ResourceVector(2, 0, 2)}


def test_spare_vectors_are_in_declaration_order():
    groups = (NodeGroup("z", cpus=4), NodeGroup("a", cpus=8), NodeGroup("m", cpus=4))
    machine = Machine(16, topology=ClusterTopology(groups))
    machine.start(_job(1, processors=4), 0.0)
    _, _, spares = machine.reservation(_job(2, processors=8), 0.0, UserEstimate())
    assert list(spares) == ["z", "a", "m"]


# -- what invalidates what (docs/cluster.md) --------------------------------------


def _job(job_id, processors=4, gpus=0, partition=-1):
    return Job(
        job_id=job_id, submit_time=0.0, runtime=50.0, requested_processors=processors,
        requested_time=100.0, requested_gpus=gpus, partition=partition,
    )


def _topology():
    return ClusterTopology(
        (NodeGroup(name="cpu", cpus=8), NodeGroup(name="gpu", cpus=8, gpus=4, partition=1))
    )


class TestInvalidation:
    def test_debit_from_outside_the_machine_is_seen(self):
        topology = _topology()
        allocator = FirstFitAllocator(topology)
        machine = Machine(16, topology=topology, allocator=allocator)
        job = _job(1, processors=6)
        assert machine.can_start(job)
        assert machine.placement_group(job) == "cpu"
        assert machine.free_processors == 16
        grant = allocator.allocate(ResourceVector(cpus=5))
        assert machine.placement_group(job) == "gpu"
        assert machine.free_resource_vector() == ResourceVector(cpus=11, gpus=4)
        allocator.allocate(ResourceVector(cpus=4, gpus=4))
        assert not machine.can_start(job)
        assert machine.placement_group(job) is None
        # free_processors reads the scalar pool until a schedule exists.
        machine.add_capacity_window(DowntimeWindow(start=0.0, end=10.0, processors=1, group="cpu"))
        assert machine.free_processors == 2 + 4
        allocator.release(grant)
        assert machine.can_start(job)
        assert machine.free_processors == 7 + 4

    def test_window_added_at_the_current_instant_is_seen_without_a_clock_move(self):
        machine = Machine(16, topology=_topology())
        job = _job(1, processors=6, gpus=1)
        assert machine.can_start(job)
        before = machine.now
        machine.add_capacity_window(DowntimeWindow(start=0.0, end=10.0, processors=4, group="gpu"))
        assert machine.now == before
        assert not machine.can_start(job)
        assert machine.free_processors == 12

    def test_crossing_a_window_boundary_is_seen_without_a_start_or_release(self):
        machine = Machine(
            16,
            topology=_topology(),
            capacity_schedule=[DowntimeWindow(start=5.0, end=9.0, processors=8, group="gpu")],
        )
        job = _job(1, gpus=2)
        assert machine.can_start(job)
        machine.advance_to(5.0)
        assert not machine.can_start(job)
        assert machine.hetero_free_map()["gpu"] == ResourceVector()
        machine.advance_to(9.0)
        assert machine.can_start(job)

    def test_free_map_is_the_callers_own_copy(self):
        machine = Machine(16, topology=_topology())
        edited = machine.hetero_free_map()
        edited["cpu"] = ResourceVector()
        assert machine.hetero_free_map()["cpu"] == ResourceVector(cpus=8)
        assert machine.can_start(_job(1, processors=8))

    @pytest.mark.parametrize("reset", [False, True])
    def test_two_jobs_sharing_an_id_get_their_own_needs(self, reset):
        machine = Machine(16, topology=_topology())
        roaming = _job(7, processors=8)
        pinned = _job(7, processors=2, gpus=2, partition=1)
        request, eligible = machine.job_need(roaming)
        assert request == ResourceVector(cpus=8)
        assert [group.name for group in eligible] == ["cpu", "gpu"]
        if reset:
            machine.reset()
        request, eligible = machine.job_need(pinned)
        assert request == ResourceVector(cpus=2, gpus=2)
        assert [group.name for group in eligible] == ["gpu"]
        assert machine.placement_group(pinned) == "gpu"
        assert machine.placement_group(roaming) == "cpu"

    def test_memo_holds_no_entry_for_a_finished_job(self):
        machine = Machine(16, topology=_topology())
        first, second, waiting = _job(1), _job(2), _job(3, processors=8)
        machine.start(first, 0.0)
        machine.start(second, 0.0)
        assert machine.placement_group(waiting) == "gpu"
        assert set(machine._needs) == {1, 2, 3}
        assert [r.job.job_id for r in machine.release_completed(50.0)] == [1, 2]
        assert set(machine._needs) == {3}
        machine.start(waiting, 50.0)
        machine.release(3)
        assert machine._needs == {}
        machine.can_start(first)
        machine.reset()
        assert machine._needs == {}
