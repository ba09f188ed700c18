"""Allocator-layer invariants: conservation, oversubscription, reduction.

Property tests (hypothesis) for the contracts ``docs/cluster.md`` promises:

* **conservation** -- allocate/release round-trips restore every group's free
  vector exactly (integer arithmetic, no drift);
* **no oversubscription** -- under any feasible request stream, no group's
  live grants ever exceed its capacity in any resource component;
* **homogeneous reduction** -- a one-group cpu-only allocator performs the
  scalar free-count arithmetic bit for bit, op for op.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.allocator import (
    ALLOCATOR_POLICIES,
    BestFitAllocator,
    FirstFitAllocator,
    job_request,
    make_allocator,
)
from repro.cluster.resources import (
    ClusterTopology,
    NodeGroup,
    ResourceVector,
)
from repro.workloads.job import Job

# -- strategies -------------------------------------------------------------


@st.composite
def topologies(draw, max_groups=3):
    """Small random topologies: 1-3 groups, optional memory/gpus."""
    n = draw(st.integers(min_value=1, max_value=max_groups))
    groups = []
    for i in range(n):
        groups.append(
            NodeGroup(
                name=f"g{i}",
                cpus=draw(st.integers(min_value=1, max_value=32)),
                memory=draw(st.sampled_from([0, 256, 1024, 4096])),
                gpus=draw(st.integers(min_value=0, max_value=8)),
            )
        )
    return ClusterTopology(tuple(groups))


@st.composite
def request_streams(draw, topology, max_ops=30):
    """Random op streams; every allocation request fits *some* group's capacity."""
    ops = []
    n = draw(st.integers(min_value=1, max_value=max_ops))
    for _ in range(n):
        if ops and draw(st.booleans()):
            ops.append(("release", draw(st.integers(min_value=0, max_value=len(ops) - 1))))
        else:
            group = draw(st.sampled_from(list(topology.groups)))
            cpus = draw(st.integers(min_value=1, max_value=group.cpus))
            memory = (
                draw(st.integers(min_value=0, max_value=group.memory))
                if group.memory
                else 0
            )
            gpus = (
                draw(st.integers(min_value=0, max_value=group.gpus)) if group.gpus else 0
            )
            ops.append(("allocate", ResourceVector(cpus=cpus, memory=memory, gpus=gpus)))
    return ops


topology_and_stream = topologies().flatmap(
    lambda topo: st.tuples(
        st.just(topo), request_streams(topo), st.sampled_from(ALLOCATOR_POLICIES)
    )
)


def _run_stream(allocator, ops):
    """Apply a request stream, skipping allocations that do not currently fit."""
    live = []
    for op, payload in ops:
        if op == "allocate":
            if allocator.can_allocate(payload):
                live.append(allocator.allocate(payload))
        elif live:
            index = payload % len(live)
            allocator.release(live.pop(index))
    return live


# -- properties -------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(topology_and_stream)
def test_conservation_round_trip(case):
    """Releasing every live grant restores each group's full capacity."""
    topology, ops, policy = case
    allocator = make_allocator(policy, topology)
    live = _run_stream(allocator, ops)
    for allocation in live:
        allocator.release(allocation)
    for group in topology.groups:
        assert allocator.free(group.name) == group.capacity
    assert allocator.total_free == topology.total


@settings(max_examples=120, deadline=None)
@given(topology_and_stream)
def test_no_group_oversubscription(case):
    """At every step, every group's free vector stays within [0, capacity]."""
    topology, ops, policy = case
    allocator = make_allocator(policy, topology)
    live = []
    for op, payload in ops:
        if op == "allocate":
            if allocator.can_allocate(payload):
                live.append(allocator.allocate(payload))
        elif live:
            allocator.release(live.pop(payload % len(live)))
        for group in topology.groups:
            free = allocator.free(group.name)
            assert free.fits_in(group.capacity)
            used = allocator.used(group.name)
            assert used.fits_in(group.capacity)
            assert free + used == group.capacity


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=64)),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from(ALLOCATOR_POLICIES),
)
def test_homogeneous_reduction_matches_resource_pool(total, ops, policy):
    """One cpu-only group == a scalar free count: same outcomes, same free counts."""
    topology = ClusterTopology.homogeneous(total)
    allocator = make_allocator(policy, topology)
    free = total
    vector_live = []
    scalar_live = []
    for is_alloc, value in ops:
        if is_alloc:
            request = ResourceVector(cpus=value)
            fits = 0 < value <= free
            assert allocator.can_allocate(request) == fits
            if fits:
                vector_live.append(allocator.allocate(request))
                scalar_live.append(value)
                free -= value
        elif scalar_live:
            index = value % len(scalar_live)
            allocator.release(vector_live.pop(index))
            free += scalar_live.pop(index)
        assert allocator.total_free.cpus == free
        assert allocator.free("all").cpus == free


# -- deterministic unit tests ------------------------------------------------


def _hetero_topology():
    return ClusterTopology(
        (
            NodeGroup(name="cpu", cpus=96),
            NodeGroup(name="gpu", cpus=32, gpus=32),
        )
    )


def test_first_fit_prefers_declaration_order():
    allocator = FirstFitAllocator(_hetero_topology())
    assert allocator.allocate(ResourceVector(cpus=8)).group == "cpu"
    # A GPU job can only land in the gpu group.
    assert allocator.allocate(ResourceVector(cpus=8, gpus=2)).group == "gpu"


def test_best_fit_picks_smallest_leftover():
    allocator = BestFitAllocator(_hetero_topology())
    # 8 cpus leave 88 free in "cpu" but only 24 in "gpu": best fit packs the
    # small group, preserving the big block for wide jobs.
    assert allocator.allocate(ResourceVector(cpus=8)).group == "gpu"


def test_partition_pins_to_claiming_group():
    topology = ClusterTopology(
        (
            NodeGroup(name="p0", cpus=16, partition=0),
            NodeGroup(name="p1", cpus=8, partition=1),
        )
    )
    allocator = FirstFitAllocator(topology)
    assert [g.name for g in allocator.eligible_groups(ResourceVector(cpus=4), partition=1)] == ["p1"]
    assert allocator.allocate(ResourceVector(cpus=4), partition=1).group == "p1"
    # Unclaimed partitions roam across every group.
    names = [g.name for g in allocator.eligible_groups(ResourceVector(cpus=4), partition=7)]
    assert names == ["p0", "p1"]
    # A request wider than the pinned group is infeasible outright.
    assert not allocator.feasible(ResourceVector(cpus=12), partition=1)
    with pytest.raises(ValueError):
        allocator.allocate(ResourceVector(cpus=12), partition=1)


def test_release_token_discipline():
    allocator = FirstFitAllocator(_hetero_topology())
    allocation = allocator.allocate(ResourceVector(cpus=4))
    allocator.release(allocation)
    with pytest.raises(RuntimeError):
        allocator.release(allocation)


def test_allocate_raises_when_nothing_fits():
    allocator = FirstFitAllocator(_hetero_topology())
    allocator.allocate(ResourceVector(cpus=20, gpus=8))
    with pytest.raises(RuntimeError):
        allocator.allocate(ResourceVector(cpus=20, gpus=30))
    with pytest.raises(ValueError):
        allocator.allocate(ResourceVector(cpus=4, gpus=64))  # exceeds every capacity


def test_job_request_memory_convention():
    base = dict(submit_time=0.0, runtime=10.0, requested_time=20.0)
    job = Job(job_id=1, requested_processors=4, requested_memory=100, used_memory=7, **base)
    assert job_request(job) == ResourceVector(cpus=4, memory=400)
    # Missing requested memory falls back to used memory.
    job = Job(job_id=2, requested_processors=2, requested_memory=-1, used_memory=50, **base)
    assert job_request(job) == ResourceVector(cpus=2, memory=100)
    # Both missing: no memory demand.
    job = Job(job_id=3, requested_processors=2, **base)
    assert job_request(job) == ResourceVector(cpus=2)
    job = Job(job_id=4, requested_processors=2, requested_gpus=3, **base)
    assert job_request(job) == ResourceVector(cpus=2, gpus=3)
