"""Hetero decision-point fast path vs. the parent's recompute-everything code.

PR 15 made a heterogeneous decision point compute each fact once, at the scope
where it is constant (docs/cluster.md, "What is computed once"): per-job needs
memoised on the machine, one drain-adjusted free map per instant, a reservation
walk that touches eligible groups only.  The classes below are the parent
commit's ``Allocator`` / ``Machine`` hetero methods verbatim (``Oracle``
prefixed); no recompute-everything code is left in ``src/``.  Every comparison
is ``==`` on values, key order and exception text: the fast path may not change
one bit of any schedule.  The second half pins each invalidation rule.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, Dict, Mapping, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocator import (
    BestFitAllocator,
    FirstFitAllocator,
    GroupAllocation,
    job_request,
)
from repro.cluster.machine import _EPS, DowntimeWindow, Machine, RunningJob
from repro.cluster.resources import (
    _RESOURCE_NAMES,
    ClusterTopology,
    NodeGroup,
    ResourceVector,
)
from repro.prediction.predictors import NoisyPrediction, UserEstimate
from repro.scheduler.events import DecisionPoint
from repro.workloads.job import Job

# -- the oracle: parent commit, verbatim ---------------------------------------


class _OracleAllocator:
    """The parent's ``Allocator`` queries and ``allocate`` (mixed over the real books)."""

    def eligible_groups(self, request: ResourceVector, partition: int = -1) -> Tuple[NodeGroup, ...]:
        groups = self.topology.groups
        if partition >= 0 and any(g.partition == partition for g in groups):
            groups = tuple(g for g in groups if g.partition == partition)
        return tuple(g for g in groups if request.fits_in(g.capacity))

    def feasible(self, request: ResourceVector, partition: int = -1) -> bool:
        return bool(self.eligible_groups(request, partition))

    def can_allocate(
        self,
        request: ResourceVector,
        free: Mapping[str, ResourceVector] | None = None,
        partition: int = -1,
    ) -> bool:
        if request.is_zero or request.cpus <= 0:
            return False
        return self.select_group(request, free if free is not None else self._free, partition) is not None

    def allocate(
        self,
        request: ResourceVector,
        free: Mapping[str, ResourceVector] | None = None,
        partition: int = -1,
    ) -> GroupAllocation:
        if request.cpus <= 0:
            raise ValueError(f"cannot allocate a non-positive cpu count: {request.cpus}")
        if not self.feasible(request, partition):
            raise ValueError(
                f"request {request.as_dict()} (partition {partition}) exceeds every "
                f"node group's capacity"
            )
        group = self.select_group(request, free if free is not None else self._free, partition)
        if group is None:
            raise RuntimeError(
                f"insufficient resources: no eligible group currently fits {request.as_dict()}"
            )
        if not request.fits_in(self._free[group]):
            raise RuntimeError(
                f"group {group!r} over-subscribed: free {self._free[group].as_dict()}, "
                f"allocating {request.as_dict()}"
            )
        allocation = GroupAllocation(
            allocation_id=next(self._ids), group=group, vector=request
        )
        self._live[allocation.allocation_id] = allocation
        self._free[group] = self._free[group] - request
        return allocation


class OracleFirstFitAllocator(_OracleAllocator, FirstFitAllocator):
    def select_group(
        self,
        request: ResourceVector,
        free: Mapping[str, ResourceVector],
        partition: int = -1,
    ) -> Optional[str]:
        for group in self.eligible_groups(request, partition):
            if request.fits_in(free[group.name]):
                return group.name
        return None


class OracleBestFitAllocator(_OracleAllocator, BestFitAllocator):
    def select_group(
        self,
        request: ResourceVector,
        free: Mapping[str, ResourceVector],
        partition: int = -1,
    ) -> Optional[str]:
        best: Optional[str] = None
        best_leftover = -1
        for group in self.eligible_groups(request, partition):
            available = free[group.name]
            if not request.fits_in(available):
                continue
            leftover = available.cpus - request.cpus
            if best is None or leftover < best_leftover:
                best = group.name
                best_leftover = leftover
        return best


class OracleMachine(Machine):
    """The parent's hetero methods over the (unchanged) scalar bookkeeping."""

    @property
    def free_processors(self) -> int:
        if not self.capacity_schedule:
            return self.pool.free
        if self._allocator is not None:
            return sum(vector.cpus for vector in self.hetero_free_map().values())
        return max(self.pool.free - self.drained_processors(), 0)

    def can_start(self, job: Job) -> bool:
        if self._allocator is not None:
            free = self.hetero_free_map() if self.capacity_schedule else None
            return self._allocator.can_allocate(job_request(job), free=free, partition=job.partition)
        if not self.capacity_schedule:
            return self.pool.can_allocate(job.requested_processors)
        return 0 < job.requested_processors <= self.free_processors

    def _window_group(self, window: DowntimeWindow) -> NodeGroup:
        assert self.topology is not None
        if window.group is None:
            return self.topology.groups[0]
        return self.topology.group(window.group)

    def _window_drain_vector(self, window: DowntimeWindow) -> ResourceVector:
        group = self._window_group(window)
        procs = min(window.processors, group.cpus)
        return ResourceVector(
            cpus=procs,
            memory=group.memory * procs // group.cpus,
            gpus=group.gpus * procs // group.cpus,
        )

    def _group_drains(self, at: float) -> Dict[str, ResourceVector]:
        assert self.topology is not None
        drains: Dict[str, ResourceVector] = {}
        for window in self.capacity_schedule:
            if window.start - _EPS > at:
                break  # schedule is sorted by start; nothing later is active
            if not window.active_at(at):
                continue
            group = self._window_group(window)
            vector = self._window_drain_vector(window)
            drains[group.name] = drains.get(group.name, ResourceVector()) + vector
        for name, vector in drains.items():
            drains[name] = vector.minimum(self.topology.group(name).capacity)
        return drains

    def hetero_free_map(self, time: float | None = None) -> Dict[str, ResourceVector]:
        if self._allocator is None:
            raise RuntimeError("hetero_free_map requires a heterogeneous machine")
        free = self._allocator.free_map()
        if not self.capacity_schedule:
            return free
        at = self._last_accounting_time if time is None else time
        for name, drained in self._group_drains(at).items():
            free[name] = free[name].clamped_sub(drained)
        return free

    def hetero_capacity_drains(self, now: float):
        if self.topology is None:
            raise RuntimeError("hetero_capacity_drains requires a heterogeneous machine")
        return [
            (
                max(window.start, now),
                window.end,
                self._window_group(window).name,
                self._window_drain_vector(window),
            )
            for window in self.capacity_schedule
            if window.end > now + _EPS
        ]

    def placement_group(self, job: Job) -> Optional[str]:
        if self._allocator is None:
            return None
        free = self.hetero_free_map() if self.capacity_schedule else self._allocator.free_map()
        return self._allocator.select_group(job_request(job), free, job.partition)

    def free_resource_vector(self) -> ResourceVector:
        if self._allocator is None:
            return ResourceVector(cpus=self.free_processors)
        total = ResourceVector()
        for vector in (
            self.hetero_free_map() if self.capacity_schedule else self._allocator.free_map()
        ).values():
            total = total + vector
        return total

    def start(
        self,
        job: Job,
        now: float,
        estimator: Callable[[Job], float] | None = None,
        runtime: float | None = None,
    ) -> RunningJob:
        if job.job_id in self._running:
            raise RuntimeError(f"job {job.job_id} is already running")
        self._account(now)
        if self._allocator is not None:
            free = self.hetero_free_map() if self.capacity_schedule else None
            self._group_allocs[job.job_id] = self._allocator.allocate(
                job_request(job), free=free, partition=job.partition
            )
        elif self.capacity_schedule and job.requested_processors > self.free_processors:
            raise RuntimeError(
                f"job {job.job_id} requests {job.requested_processors} processors but only "
                f"{self.free_processors} are in service at t={now} "
                f"({self.drained_processors()} drained by the capacity schedule)"
            )
        allocation = self.pool.allocate(job.requested_processors)
        record = RunningJob(
            job=job, start_time=now, allocation=allocation, runtime_override=runtime
        )
        self._running[job.job_id] = record
        heapq.heappush(self._completion_heap, (record.end_time, job.job_id))
        self._version += 1
        if self._sorted_plan is not None:
            if estimator is self._sorted_plan_estimator:
                entry = (record.estimated_end_time(estimator), allocation.processors)
                insort(self._sorted_plan, entry)
                self._sorted_plan_entries[job.job_id] = entry
            else:
                self._drop_sorted_plan()
        return record

    def hetero_reservation(
        self, job: Job, now: float, estimator: Callable[[Job], float]
    ) -> tuple[float, int, Dict[str, ResourceVector]]:
        if self._allocator is None:
            raise RuntimeError("hetero_reservation requires a heterogeneous machine")
        request = job_request(job)
        allocator = self._allocator
        if not allocator.feasible(request, job.partition):
            raise RuntimeError(
                f"job {job.job_id} requests {request.as_dict()} (partition "
                f"{job.partition}) but no node group can ever host it"
            )
        releases = sorted(
            (max(record.estimated_end_time(estimator), now), job_id)
            for job_id, record in self._running.items()
        )
        events = {now}
        events.update(time for time, _ in releases)
        for window in self.capacity_schedule:
            for boundary in (window.start, window.end):
                if boundary > now + _EPS:
                    events.add(boundary)
        base_free = allocator.free_map()
        freed: Dict[str, ResourceVector] = {}
        index = 0
        for event_time in sorted(events):
            while index < len(releases) and releases[index][0] <= event_time + _EPS:
                grant = self._group_allocs[releases[index][1]]
                freed[grant.group] = freed.get(grant.group, ResourceVector()) + grant.vector
                index += 1
            available: Dict[str, ResourceVector] = {}
            drains = self._group_drains(event_time) if self.capacity_schedule else {}
            for group in self.topology.groups:
                vector = base_free[group.name] + freed.get(group.name, ResourceVector())
                vector = vector.minimum(group.capacity)
                drained = drains.get(group.name)
                if drained is not None:
                    vector = vector.clamped_sub(drained)
                available[group.name] = vector
            target = allocator.select_group(request, available, job.partition)
            if target is None:
                continue
            spares = {
                name: vector - request if name == target else vector
                for name, vector in available.items()
            }
            extra = sum(vector.cpus for vector in spares.values())
            return event_time, extra, spares
        raise RuntimeError(
            f"job {job.job_id} requests {request.as_dict()} but the machine never "
            f"frees enough in-service capacity in any eligible group"
        )


def oracle_fits_beside(decision: DecisionPoint, job: Job) -> bool:
    """The parent's ``DecisionPoint._fits_beside_hetero``."""
    allocator = decision.machine.allocator
    request = job_request(job)
    free_now = decision.machine.hetero_free_map()
    for group in allocator.eligible_groups(request, job.partition):
        spare = decision.spare_vectors.get(group.name)
        if spare is None:
            continue
        if request.fits_in(spare) and request.fits_in(free_now[group.name]):
            return True
    return False


def oracle_vector_check(cpus: int, memory: int, gpus: int) -> None:
    """The parent's ``ResourceVector.__post_init__``."""
    values = {"cpus": cpus, "memory": memory, "gpus": gpus}
    for name in _RESOURCE_NAMES:
        value = values[name]
        if value < 0:
            raise ValueError(f"resource vector {name} must be non-negative, got {value}")


# -- differential driver --------------------------------------------------------

_ALLOCATORS = {
    "first_fit": (FirstFitAllocator, OracleFirstFitAllocator),
    "best_fit": (BestFitAllocator, OracleBestFitAllocator),
}


def _outcome(call):
    """``("ok", value)`` or ``("raised", type, message)`` -- compared with ``==``."""
    try:
        return ("ok", call())
    except (ValueError, RuntimeError, KeyError) as error:
        return ("raised", type(error), str(error))


def _error(call):
    """``(type, message)`` of what ``call`` raises, or ``None``."""
    outcome = _outcome(call)
    return outcome[1:] if outcome[0] == "raised" else None


def _reservation(machine: Machine, job: Job, at: float, estimator):
    time, extra, spares = machine.hetero_reservation(job, at, estimator)
    return time, extra, list(spares.items())  # a list: key order is part of the contract


@st.composite
def topologies(draw):
    """1-4 groups, with and without partition bindings, zero-memory / zero-gpu groups."""
    groups = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        groups.append(
            NodeGroup(
                name=f"g{index}",
                cpus=draw(st.integers(min_value=1, max_value=12)),
                memory=draw(st.sampled_from([0, 0, 48, 256])),
                gpus=draw(st.sampled_from([0, 0, 2, 4])),
                partition=draw(st.sampled_from([-1, -1, 0, 1])),
            )
        )
    return ClusterTopology(tuple(groups))


@st.composite
def job_lists(draw, topology: ClusterTopology):
    """Jobs that mostly fit some group; ids may repeat and a few fit no group at all."""
    widest = max(group.cpus for group in topology.groups)
    jobs = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        runtime = draw(st.integers(min_value=1, max_value=60))
        jobs.append(
            Job(
                job_id=draw(st.integers(min_value=0, max_value=11)),
                submit_time=0.0,
                runtime=float(runtime),
                requested_processors=draw(st.integers(min_value=1, max_value=widest + 1)),
                requested_time=float(runtime + draw(st.integers(min_value=0, max_value=40))),
                partition=draw(st.sampled_from([-1, -1, 0, 1, 2])),
                used_memory=draw(st.sampled_from([-1, 0, 3])),
                requested_memory=draw(st.sampled_from([-1, -1, 0, 4, 30])),
                requested_gpus=draw(st.sampled_from([0, 0, 0, 1, 3])),
            )
        )
    return jobs


_OPS = st.one_of(
    st.tuples(st.just("start"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("release_completed"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("release"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("advance_to"), st.integers(min_value=0, max_value=25)),
    st.tuples(
        st.just("add_capacity_window"),
        st.integers(min_value=0, max_value=63),  # group
        st.integers(min_value=-10, max_value=30),  # start, relative to the clock
        st.integers(min_value=1, max_value=40),  # length
        st.integers(min_value=1, max_value=14),  # processors
    ),
)

cases = topologies().flatmap(
    lambda topology: st.tuples(
        st.just(topology),
        job_lists(topology),
        st.sampled_from(sorted(_ALLOCATORS)),
        st.lists(_OPS, min_size=1, max_size=14),
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),  # NoisyPrediction seed
        st.sampled_from([0.0, 0.5, 7.0]),  # how far past the clock reservations are asked for
    )
)


def _check_same_answers(fast, oracle, jobs, now, ahead, fast_estimator, oracle_estimator):
    assert fast.free_processors == oracle.free_processors
    assert fast.free_fraction == oracle.free_fraction
    assert fast.free_resource_vector() == oracle.free_resource_vector()
    assert list(fast.hetero_free_map().items()) == list(oracle.hetero_free_map().items())
    assert fast.hetero_capacity_drains(now) == oracle.hetero_capacity_drains(now)
    waiting = [job for job in jobs if not fast.is_running(job.job_id)]
    for job in waiting:
        assert _outcome(lambda: fast.can_start(job)) == _outcome(lambda: oracle.can_start(job))
        assert _outcome(lambda: fast.placement_group(job)) == _outcome(
            lambda: oracle.placement_group(job)
        )
        for at in {now, now + ahead}:
            got = _outcome(lambda: _reservation(fast, job, at, fast_estimator))
            want = _outcome(lambda: _reservation(oracle, job, at, oracle_estimator))
            assert got == want
            if got[0] == "raised" or at != now:
                continue
            time, extra, spares = got[1]
            fast_decision, oracle_decision = (
                DecisionPoint(
                    time=now, reserved_job=job, reservation_time=time, extra_processors=extra,
                    candidates=[], machine=machine, spare_vectors=dict(spares),
                )
                for machine in (fast, oracle)
            )
            for other in waiting:
                assert fast_decision.would_delay(other, 1e9) == (
                    not oracle_fits_beside(oracle_decision, other)
                )
    if isinstance(fast_estimator, NoisyPrediction):
        # Same draws, in the same job order.
        assert list(fast_estimator._cache.items()) == list(oracle_estimator._cache.items())


@settings(max_examples=150, deadline=None)
@given(cases)
def test_every_answer_equals_the_parents(case):
    topology, jobs, policy, ops, noise_seed, ahead = case
    fast_allocator, oracle_allocator = _ALLOCATORS[policy]
    size = topology.total_cpus
    fast = Machine(size, topology=topology, allocator=fast_allocator(topology))
    oracle = OracleMachine(size, topology=topology, allocator=oracle_allocator(topology))
    if noise_seed is None:
        fast_estimator = oracle_estimator = UserEstimate()
    else:
        fast_estimator = NoisyPrediction(0.5, seed=noise_seed)
        oracle_estimator = NoisyPrediction(0.5, seed=noise_seed)
    now = 0.0
    _check_same_answers(fast, oracle, jobs, now, ahead, fast_estimator, oracle_estimator)
    for op, *args in ops:
        if op == "start":
            job = jobs[args[0] % len(jobs)]
            got = _outcome(lambda: fast.start(job, now, fast_estimator).end_time)
            want = _outcome(lambda: oracle.start(job, now, oracle_estimator).end_time)
        elif op == "release_completed":
            now += args[0]
            got = _outcome(lambda: [r.job.job_id for r in fast.release_completed(now)])
            want = _outcome(lambda: [r.job.job_id for r in oracle.release_completed(now)])
        elif op == "release":
            job_id = jobs[args[0] % len(jobs)].job_id
            got = _outcome(lambda: fast.release(job_id).job)
            want = _outcome(lambda: oracle.release(job_id).job)
        elif op == "advance_to":
            now += args[0]
            got = _outcome(lambda: fast.advance_to(now))
            want = _outcome(lambda: oracle.advance_to(now))
        else:
            group, start, length, processors = args
            start = max(now + start, 0.0)
            window = DowntimeWindow(
                start=start,
                end=start + length,
                processors=processors,
                # One-group topologies accept untagged windows: draw both forms.
                group=None
                if len(topology.groups) == 1 and group % 2
                else topology.groups[group % len(topology.groups)].name,
            )
            got = _outcome(lambda: fast.add_capacity_window(window))
            want = _outcome(lambda: oracle.add_capacity_window(window))
        assert got == want
        assert fast.now == oracle.now
        _check_same_answers(fast, oracle, jobs, now, ahead, fast_estimator, oracle_estimator)


_components = st.integers(min_value=-3, max_value=5)


@given(_components, _components, _components)
def test_negative_components_raise_the_same_error(cpus, memory, gpus):
    assert _error(lambda: ResourceVector(cpus, memory, gpus)) == _error(
        lambda: oracle_vector_check(cpus, memory, gpus)
    )
    left = ResourceVector(2, 2, 2)
    right = ResourceVector(abs(cpus), abs(memory), abs(gpus))
    assert _error(lambda: left - right) == _error(
        lambda: oracle_vector_check(2 - abs(cpus), 2 - abs(memory), 2 - abs(gpus))
    )


@pytest.mark.parametrize("policy", sorted(_ALLOCATORS))
def test_allocate_errors_equal_the_parents(policy):
    topology = ClusterTopology(
        (NodeGroup("p0", cpus=4, memory=8, partition=0), NodeGroup("roam", cpus=8, gpus=2))
    )
    fast, oracle = (cls(topology) for cls in _ALLOCATORS[policy])
    lying = {"p0": ResourceVector(4, 8, 0), "roam": ResourceVector(8, 0, 2)}
    requests = [
        (ResourceVector(0, 1, 0), None, -1),  # non-positive cpu count
        (ResourceVector(9, 0, 0), None, -1),  # exceeds every group
        (ResourceVector(5, 0, 0), None, 0),  # fits "roam" only, pinned to "p0"
        (ResourceVector(6, 0, 0), None, -1),  # granted
        (ResourceVector(6, 0, 0), None, -1),  # insufficient now
        (ResourceVector(6, 0, 0), lying, -1),  # the map says yes, the books say no
        (ResourceVector(3, 8, 0), None, 0),  # granted in the pinned group
    ]
    outcomes = []
    for request, free, partition in requests:
        outcomes.append(_outcome(lambda: fast.allocate(request, free, partition)))
        assert outcomes[-1] == _outcome(lambda: oracle.allocate(request, free, partition))
        assert fast.free_map() == oracle.free_map()
    assert [outcome[0] for outcome in outcomes] == ["raised"] * 3 + ["ok"] + ["raised"] * 2 + ["ok"]
    assert "over-subscribed" in outcomes[5][2]


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
