"""The node-group reservation walk against the walk it replaced.

``Machine.reservation`` on a node-group machine walks a maintained release
plan lazily over integer books.  ``_oracle_reservation`` below is the walk it
replaced, kept here as the oracle: it re-sorts every running job per call,
visits every event instant of the merged timeline, and rebuilds the eligible
groups' free vectors at each one.  Under hypothesis the two must return the
same ``(time, extra_processors, spare_vectors)`` on 1-3 node groups with
partitions, memory and GPUs, running sets whose estimated ends coincide or
lie within ``_EPS`` of each other, drains ahead and active, a stateless and a
stateful estimator, and both placement policies -- and the stateful
estimator must be asked in the same order.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocator import ALLOCATOR_POLICIES
from repro.cluster.machine import DowntimeWindow, Machine
from repro.cluster.resources import ClusterTopology, NodeGroup, ResourceVector
from repro.prediction.predictors import NoisyPrediction, UserEstimate
from repro.workloads.job import Job

_EPS = 1e-9


# -- the oracle: the replaced walk, reading the machine from outside ---------------------


def _minimum(left: ResourceVector, right: ResourceVector) -> ResourceVector:
    return ResourceVector(*map(min, left.amounts, right.amounts))


def _clamped_sub(left: ResourceVector, right: ResourceVector) -> ResourceVector:
    return ResourceVector(*(max(a - b, 0) for a, b in zip(left.amounts, right.amounts)))


def _window_drain(machine: Machine, window: DowntimeWindow):
    groups = machine.layout.groups
    group = groups[0] if window.group is None else machine.layout.group(window.group)
    procs = min(window.processors, group.cpus)
    return group.name, ResourceVector(
        cpus=procs,
        memory=group.memory * procs // group.cpus,
        gpus=group.gpus * procs // group.cpus,
    )


def _group_drains(machine: Machine, at: float) -> Dict[str, ResourceVector]:
    drains: Dict[str, ResourceVector] = {}
    for window in machine.capacity_schedule:
        if window.start - _EPS > at:
            break
        if window.active_at(at):
            name, vector = _window_drain(machine, window)
            drains[name] = drains[name] + vector if name in drains else vector
    for name, vector in drains.items():
        drains[name] = _minimum(vector, machine.layout.group(name).capacity)
    return drains


def _oracle_reservation(machine: Machine, job: Job, now: float, estimator):
    request, eligible = machine.job_need(job)
    allocator = machine.allocator
    if not eligible:
        raise RuntimeError("no node group can ever host it")
    releases = sorted(
        (max(record.estimated_end_time(estimator), now), job_id)
        for job_id, record in machine._running.items()
    )
    boundaries = sorted(edge for w in machine.capacity_schedule for edge in (w.start, w.end))
    events = {now}
    events.update(time for time, _ in releases)
    events.update(boundaries[bisect_right(boundaries, now + _EPS):])
    plan = allocator.free_map()
    edges = [boundary - _EPS for boundary in boundaries]
    drains: Optional[Dict[str, ResourceVector]] = None
    edge = 0

    def available(group: NodeGroup) -> ResourceVector:
        vector = _minimum(plan[group.name], group.capacity)
        drained = drains.get(group.name)
        return vector if drained is None else _clamped_sub(vector, drained)

    index = 0
    for event_time in sorted(events):
        while index < len(releases) and releases[index][0] <= event_time + _EPS:
            grant = machine._grants[releases[index][1]][0]
            plan[grant.group] = plan[grant.group] + grant.vector
            index += 1
        if drains is None or (edge < len(edges) and edges[edge] <= event_time):
            drains = _group_drains(machine, event_time)
            edge = bisect_right(edges, event_time, edge)
        target = allocator.place(
            request, {group.name: available(group) for group in eligible}, eligible
        )
        if target is None:
            continue
        spares = {
            group.name: available(group) - request if group.name == target else available(group)
            for group in machine.topology.groups
        }
        return event_time, sum(vector.cpus for vector in spares.values()), spares
    raise RuntimeError("never frees enough in-service capacity in any eligible group")


# -- machines, running sets and asks ---------------------------------------------------------


@st.composite
def _topologies(draw):
    count = draw(st.integers(1, 3))
    groups = []
    for index in range(count):
        groups.append(
            NodeGroup(
                name=f"g{index}",
                cpus=draw(st.sampled_from([4, 8, 12])),
                memory=draw(st.sampled_from([0, 0, 32, 64])),
                gpus=draw(st.sampled_from([0, 0, 2, 4])),
                partition=draw(st.sampled_from([-1, -1, index])),
            )
        )
    return ClusterTopology(tuple(groups))


def _request(draw, topology: ClusterTopology, job_id: int, submit: float, requested: float) -> Job:
    """A job that fits some group of ``topology`` on an empty machine."""
    home = draw(st.sampled_from(topology.groups))
    processors = draw(st.integers(1, home.cpus))
    per_cpu = draw(st.sampled_from([-1, 0, 1, 2, 4])) if home.memory else -1
    if per_cpu * processors > home.memory:
        per_cpu = home.memory // processors
    gpus = draw(st.integers(0, home.gpus)) if home.gpus else 0
    partition = draw(st.sampled_from([-1, home.partition, 7]))
    return Job(
        job_id=job_id, submit_time=submit, runtime=requested, requested_processors=processors,
        requested_time=requested, requested_memory=per_cpu, requested_gpus=gpus,
        partition=partition,
    )


#: Estimated ends come from few starts and few requests, so they coincide;
#: the tiny offsets put some within ``_EPS`` of each other and some just past it.
_STARTS = [0.0, 0.0, 5.0, 10.0, 10.0 + 4e-10]
_REQUESTS = [10.0, 20.0, 20.0, 15.0, 20.0 + 5e-10, 20.0 + 3e-9, 40.0]


@st.composite
def scenarios(draw):
    topology = draw(_topologies())
    policy = draw(st.sampled_from(ALLOCATOR_POLICIES))
    windows: List[DowntimeWindow] = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.sampled_from([0.0, 5.0, 10.0, 12.0, 20.0, 30.0 - 5e-10]))
        group = draw(st.sampled_from(topology.groups))
        windows.append(
            DowntimeWindow(
                start=start, end=start + draw(st.sampled_from([3.0, 10.0, 25.0])),
                processors=draw(st.integers(1, group.cpus)),
                group=group.name if len(topology.groups) > 1 or draw(st.booleans()) else None,
            )
        )
    starts = sorted(draw(st.lists(st.sampled_from(_STARTS), min_size=0, max_size=9)))
    running = [
        (start, _request(draw, topology, job_id, 0.0, draw(st.sampled_from(_REQUESTS))))
        for job_id, start in enumerate(starts, start=1)
    ]
    reserved = [_request(draw, topology, 100 + k, 0.0, 30.0) for k in range(2)]
    now = max(draw(st.sampled_from([0.0, 11.0, 21.0])), starts[-1] if starts else 0.0)
    later = max(draw(st.sampled_from([15.0, 20.0, 20.0 + 2e-10, 31.0])), now)
    pass_estimator = draw(st.booleans())
    return topology, policy, windows, running, reserved, now, later, pass_estimator


def _machine(topology, policy, windows, running, estimator, pass_estimator) -> Machine:
    machine = Machine(topology.total_cpus, capacity_schedule=windows, topology=topology, allocator=policy)
    for start, job in running:
        machine.advance_to(start)
        if machine.can_start(job):
            machine.start(job, start, estimator if pass_estimator else None)
    return machine


def _answer(call):
    try:
        return call()
    except RuntimeError as error:
        return ("raised", type(error))


def _compare(machine: Machine, oracle_machine: Machine, reserved, now, estimator, oracle_estimator):
    for job in reserved:
        mine = _answer(lambda: machine.reservation(job, now, estimator))
        theirs = _answer(lambda: _oracle_reservation(oracle_machine, job, now, oracle_estimator))
        assert mine == theirs
        if not isinstance(mine[0], str):
            assert list(mine[2]) == list(theirs[2])  # declaration order


@settings(max_examples=300, deadline=None)
@given(scenarios(), st.sampled_from(["user", "noisy"]))
def test_the_walk_equals_the_replaced_walk(scenario, estimator_name):
    topology, policy, windows, running, reserved, now, later, pass_estimator = scenario

    def estimator():
        return UserEstimate() if estimator_name == "user" else NoisyPrediction(0.5, seed=3)

    mine_estimator, oracle_estimator = estimator(), estimator()
    machine = _machine(topology, policy, windows, running, mine_estimator, pass_estimator)
    oracle_machine = _machine(topology, policy, windows, running, oracle_estimator, pass_estimator)
    machine.advance_to(now)
    oracle_machine.advance_to(now)
    _compare(machine, oracle_machine, reserved, now, mine_estimator, oracle_estimator)
    # A time other than the clock, then the same machines after some jobs released.
    _compare(machine, oracle_machine, reserved[:1], max(now, 1.0) + 0.5, mine_estimator, oracle_estimator)
    released = [record.job.job_id for record in machine.release_completed(later)]
    assert released == [record.job.job_id for record in oracle_machine.release_completed(later)]
    _compare(machine, oracle_machine, reserved, later, mine_estimator, oracle_estimator)
    if estimator_name == "noisy":
        assert list(mine_estimator._cache.items()) == list(oracle_estimator._cache.items())


def test_the_walks_reach_every_arm():
    """The property above is vacuous unless reservations land on releases that
    share an instant, on window boundaries, and past several releases."""
    topology = ClusterTopology((NodeGroup("cpu", cpus=8), NodeGroup("gpu", cpus=8, gpus=4, partition=1)))
    jobs = [
        Job(job_id=k, submit_time=0.0, runtime=20.0, requested_processors=4, requested_time=20.0)
        for k in (1, 2)
    ] + [Job(job_id=3, submit_time=0.0, runtime=20.0, requested_processors=4, requested_time=20.0 + 5e-10)]
    wide = Job(job_id=9, submit_time=0.0, runtime=5.0, requested_processors=8, requested_time=5.0)
    drain = DowntimeWindow(start=20.0, end=30.0, processors=8, group="gpu")
    for windows, expected in (([], (20.0, 8, {"cpu": (0, 0, 0), "gpu": (8, 0, 4)})),
                              ([drain], (20.0, 0, {"cpu": (0, 0, 0), "gpu": (0, 0, 0)}))):
        machine = Machine(16, capacity_schedule=windows, topology=topology)
        oracle = Machine(16, capacity_schedule=windows, topology=topology)
        for job in jobs:
            machine.start(job, 0.0, UserEstimate())
            oracle.start(job, 0.0)
        got = machine.reservation(wide, 0.0, UserEstimate())
        assert got == _oracle_reservation(oracle, wide, 0.0, UserEstimate())
        assert (got[0], got[1], {name: v.amounts for name, v in got[2].items()}) == expected
