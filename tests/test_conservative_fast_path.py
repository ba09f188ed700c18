"""Conservative fast path vs. the parent's quadratic code, kept here as the oracle.

PR 14 made three exact changes (one-sweep ``earliest_start``, one base profile
per decision cloned for every trial, trial replans that stop at the first
delayed job).  The classes below are the parent commit's ``profile.py`` and
``conservative.py`` verbatim (``Oracle`` prefixed, build counter dropped); no
quadratic code is left in ``src/``.  Every comparison is ``==`` on floats and
jobs: the fast path may not change one bit of any schedule.

Since ISSUE 23 the strategy also answers from the baseline plan where the plan
decides (rules (A), (R), (C) of ``conservative.py``).  The oracle knows none of
that, so the same paired runs check it; ``_Instrumented`` below counts which rule
answered and, in its checking mode, also runs every trial a rule skipped and
plans from scratch beside every plan taken over.
"""

from __future__ import annotations

import collections
import copy
import math
import pickle
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.allocator import job_request
from repro.cluster.machine import DowntimeWindow, Machine
from repro.cluster.resources import ClusterTopology, NodeGroup, ResourceVector, _RESOURCE_NAMES
from repro.prediction.predictors import NoisyPrediction, RuntimeEstimator, UserEstimate
from repro.scheduler.backfill import (
    ConservativeBackfill,
    NoFeasibleStart,
    ResourceProfile,
)
from repro.scheduler.backfill.base import BackfillStrategy
from repro.scheduler.backfill.profile import GroupReservationProfile, VectorProfile, clear_of
from repro.scheduler.events import DecisionPoint
from repro.scheduler.simulator import run_schedule
from repro.workloads.job import Job

_EPS = 1e-9


# -- the oracle: parent commit, verbatim ---------------------------------------


class OracleResourceProfile:
    """Piecewise-constant free-processor profile on ``[origin, +inf)``."""

    def __init__(self, total_processors: int, origin: float = 0.0, initial_free: int | None = None):
        if total_processors <= 0:
            raise ValueError("total_processors must be positive")
        free0 = total_processors if initial_free is None else initial_free
        if not 0 <= free0 <= total_processors:
            raise ValueError(
                f"initial_free={free0} outside [0, {total_processors}]"
            )
        self.total = total_processors
        self.origin = float(origin)
        # Parallel arrays: breakpoint times and the free count from that time on.
        self._times: List[float] = [float(origin)]
        self._free: List[int] = [int(free0)]

    # -- queries -----------------------------------------------------------
    def free_at(self, time: float) -> int:
        """Free processors at ``time`` (clamped to the profile origin)."""
        if time < self.origin:
            time = self.origin
        idx = bisect_right(self._times, time + _EPS) - 1
        return self._free[max(idx, 0)]

    def steps(self) -> List[Tuple[float, int]]:
        """Return the (time, free) breakpoints (mainly for tests/plots)."""
        return list(zip(self._times, self._free))

    def min_free_between(self, start: float, end: float) -> int:
        """Minimum free processors over the half-open interval ``[start, end)``."""
        if end <= start:
            return self.free_at(start)
        lo = max(start, self.origin)
        idx = max(bisect_right(self._times, lo + _EPS) - 1, 0)
        minimum = self._free[idx]
        idx += 1
        while idx < len(self._times) and self._times[idx] < end - _EPS:
            minimum = min(minimum, self._free[idx])
            idx += 1
        return minimum

    # -- mutation ----------------------------------------------------------
    def _ensure_breakpoint(self, time: float) -> int:
        """Insert a breakpoint at ``time`` (if absent) and return its index."""
        time = max(time, self.origin)
        idx = bisect_right(self._times, time + _EPS) - 1
        if abs(self._times[idx] - time) <= _EPS:
            return idx
        self._times.insert(idx + 1, time)
        self._free.insert(idx + 1, self._free[idx])
        return idx + 1

    def reserve(self, start: float, duration: float, processors: int) -> None:
        """Subtract ``processors`` from the profile over ``[start, start+duration)``."""
        if processors <= 0:
            raise ValueError("processors must be positive")
        if duration <= 0:
            return
        if math.isinf(duration):
            end = math.inf
        else:
            end = start + duration
        start_idx = self._ensure_breakpoint(start)
        if math.isinf(end):
            end_idx = len(self._times)
        else:
            end_idx = self._ensure_breakpoint(end)
        for i in range(start_idx, end_idx):
            new_free = self._free[i] - processors
            if new_free < -_EPS:
                raise RuntimeError(
                    f"profile over-subscribed at t={self._times[i]}: "
                    f"free={self._free[i]}, reserving {processors}"
                )
            self._free[i] = new_free

    def drain(self, start: float, duration: float, processors: int) -> None:
        """Subtract ``processors`` over ``[start, start+duration)``, clipping at zero.

        Used for scheduled capacity drains (node downtime windows): a drain
        claims idle processors first, and where the profile is already busier
        than the remaining capacity -- jobs running on nodes that are being
        drained gracefully -- the free count bottoms out at zero instead of
        over-subscribing.  Regular job reservations must keep using
        :meth:`reserve`, which treats over-subscription as the bug it is.
        """
        if processors <= 0:
            raise ValueError("processors must be positive")
        if duration <= 0:
            return
        end = math.inf if math.isinf(duration) else start + duration
        start_idx = self._ensure_breakpoint(start)
        end_idx = len(self._times) if math.isinf(end) else self._ensure_breakpoint(end)
        for i in range(start_idx, end_idx):
            self._free[i] = max(self._free[i] - processors, 0)

    def earliest_start(self, processors: int, duration: float, earliest: float | None = None) -> float:
        """Earliest time >= ``earliest`` at which ``processors`` stay free for ``duration``."""
        if processors > self.total:
            raise ValueError(
                f"request for {processors} processors exceeds the machine size {self.total}"
            )
        candidate_times = [max(earliest if earliest is not None else self.origin, self.origin)]
        candidate_times.extend(t for t in self._times if t > candidate_times[0] + _EPS)
        for start in candidate_times:
            if math.isinf(duration):
                # Must stay free forever from `start` on.
                idx = max(bisect_right(self._times, start + _EPS) - 1, 0)
                if all(f >= processors for f in self._free[idx:]):
                    return start
                continue
            if self.min_free_between(start, start + duration) >= processors:
                return start
        raise RuntimeError(
            f"no feasible start found for {processors} processors x {duration}s "
            "(profile never frees enough capacity)"
        )

    @classmethod
    def from_running_jobs(
        cls,
        total_processors: int,
        now: float,
        running: Iterable[Tuple[float, int]],
    ) -> "OracleResourceProfile":
        """Build a profile from ``(estimated_end_time, processors)`` pairs of running jobs."""
        profile = cls(total_processors, origin=now)
        for end_time, processors in running:
            # A job whose estimate already elapsed still holds its processors;
            # the scheduler has no better information than "it will finish
            # very soon", so keep the processors held for at least one second
            # rather than pretending they are already free.
            end = max(end_time, now + 1.0)
            profile.reserve(now, end - now, processors)
        return profile

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OracleResourceProfile(total={self.total}, steps={len(self._times)})"


class OracleVectorProfile:
    """Per-resource availability profile over one node group.

    Composes one :class:`OracleResourceProfile` per resource the group actually has
    (zero-capacity resources are skipped, so a cpu-only group pays exactly the
    scalar profile's cost).  Reservations and drains apply each component to
    its resource's profile; feasibility questions require *every* component to
    fit simultaneously.
    """

    def __init__(self, capacity: ResourceVector, origin: float = 0.0):
        if capacity.cpus <= 0:
            raise ValueError("vector profile needs positive cpu capacity")
        self.capacity = capacity
        self.origin = float(origin)
        self._profiles: Dict[str, OracleResourceProfile] = {
            name: OracleResourceProfile(capacity.component(name), origin=origin)
            for name in _RESOURCE_NAMES
            if capacity.component(name) > 0
        }

    def reserve(self, start: float, duration: float, vector: ResourceVector) -> None:
        """Subtract ``vector`` over ``[start, start+duration)``; raises on over-subscription."""
        if not vector.fits_in(self.capacity):
            raise ValueError(
                f"reservation {vector.as_dict()} exceeds group capacity {self.capacity.as_dict()}"
            )
        for name, profile in self._profiles.items():
            amount = vector.component(name)
            if amount > 0:
                profile.reserve(start, duration, amount)

    def drain(self, start: float, duration: float, vector: ResourceVector) -> None:
        """Subtract ``vector`` over the window, clipping each component at zero."""
        for name, profile in self._profiles.items():
            amount = vector.component(name)
            if amount > 0:
                profile.drain(start, duration, amount)

    def fits_between(self, start: float, end: float, vector: ResourceVector) -> bool:
        """Whether ``vector`` stays free over the half-open ``[start, end)``."""
        if not vector.fits_in(self.capacity):
            return False
        return all(
            profile.min_free_between(start, end) >= vector.component(name)
            for name, profile in self._profiles.items()
        )

    def earliest_start(
        self, vector: ResourceVector, duration: float, earliest: float | None = None
    ) -> float:
        """Earliest time >= ``earliest`` at which the whole vector stays free for ``duration``."""
        if not vector.fits_in(self.capacity):
            raise ValueError(
                f"request {vector.as_dict()} exceeds group capacity {self.capacity.as_dict()}"
            )
        first = max(earliest if earliest is not None else self.origin, self.origin)
        candidates = {first}
        for profile in self._profiles.values():
            candidates.update(t for t in profile._times if t > first + _EPS)
        for start in sorted(candidates):
            if math.isinf(duration):
                if all(
                    all(f >= vector.component(name) for _, f in profile.steps()[
                        max(bisect_right(profile._times, start + _EPS) - 1, 0):
                    ])
                    for name, profile in self._profiles.items()
                ):
                    return start
                continue
            if self.fits_between(start, start + duration, vector):
                return start
        raise RuntimeError(
            f"no feasible start found for {vector.as_dict()} x {duration}s "
            "(group never frees enough capacity)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OracleVectorProfile(capacity={self.capacity.as_dict()})"


class OracleGroupReservationProfile:
    """Availability profiles for every node group of a heterogeneous machine.

    The conservative discipline's planning surface: one :class:`OracleVectorProfile`
    per group, plus the cross-group placement question "where does this job's
    reservation land earliest?".  Start-time ties break in the *caller's*
    group order (the allocator's eligibility order), which keeps planning
    deterministic and consistent with live placement.
    """

    def __init__(self, topology: ClusterTopology, origin: float = 0.0):
        self.topology = topology
        self.origin = float(origin)
        self._groups: Dict[str, OracleVectorProfile] = {
            group.name: OracleVectorProfile(group.capacity, origin=origin)
            for group in topology.groups
        }

    def group(self, name: str) -> OracleVectorProfile:
        return self._groups[name]

    def reserve(self, group: str, start: float, duration: float, vector: ResourceVector) -> None:
        self._groups[group].reserve(start, duration, vector)

    def drain(self, group: str, start: float, duration: float, vector: ResourceVector) -> None:
        self._groups[group].drain(start, duration, vector)

    def earliest_start(
        self,
        vector: ResourceVector,
        duration: float,
        groups: Sequence[str],
        earliest: float | None = None,
    ) -> Tuple[float, str]:
        """Earliest ``(start, group)`` among ``groups`` hosting the vector for ``duration``."""
        best: Optional[Tuple[float, str]] = None
        for name in groups:
            try:
                start = self._groups[name].earliest_start(vector, duration, earliest)
            except RuntimeError:
                continue
            if best is None or start < best[0] - _EPS:
                best = (start, name)
        if best is None:
            raise RuntimeError(
                f"no feasible start found for {vector.as_dict()} x {duration}s "
                f"in groups {tuple(groups)}"
            )
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OracleGroupReservationProfile(groups={self.topology.names})"


class OracleConservativeBackfill(BackfillStrategy):
    """Backfill only jobs that delay no reservation of any waiting job."""

    name = "conservative"

    def __init__(
        self,
        order: str = "fcfs",
        reservation_depth: int | None = None,
        max_candidates: int | None = None,
    ):
        if order not in ("fcfs", "sjf"):
            raise ValueError(f"unsupported candidate order {order!r}")
        if reservation_depth is not None and reservation_depth <= 0:
            raise ValueError("reservation_depth must be positive when given")
        if max_candidates is not None and max_candidates <= 0:
            raise ValueError("max_candidates must be positive when given")
        self.order = order
        self.reservation_depth = reservation_depth
        self.max_candidates = max_candidates

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _base_profile(decision: DecisionPoint, estimator: RuntimeEstimator) -> OracleResourceProfile:
        machine = decision.machine
        if machine is None:
            raise ValueError("conservative backfilling requires machine state on the decision point")
        running = [
            (r.estimated_end_time(estimator), r.allocation.processors)
            for r in machine.running_jobs
        ]
        profile = OracleResourceProfile.from_running_jobs(machine.num_processors, decision.time, running)
        # Scheduled capacity drains shape availability exactly like running
        # jobs do, except they may overlap processors already committed to
        # running jobs (graceful drain), hence the clipped subtraction.
        for start, end, processors in machine.capacity_drains(decision.time):
            profile.drain(start, end - start, processors)
        return profile

    @staticmethod
    def _hetero_base_profile(
        decision: DecisionPoint, estimator: RuntimeEstimator
    ) -> OracleGroupReservationProfile:
        """Per-group vector profiles: running grants reserved where they live."""
        machine = decision.machine
        now = decision.time
        profile = OracleGroupReservationProfile(machine.topology, origin=now)
        for record in machine.running_jobs:
            grant = machine.group_allocation(record.job.job_id)
            end = max(record.estimated_end_time(estimator), now + 1.0)
            profile.reserve(grant.group, now, end - now, grant.vector)
        for start, end, group, vector in machine.hetero_capacity_drains(now):
            profile.drain(group, start, end - start, vector)
        return profile

    @staticmethod
    def _hetero_plan(
        profile: OracleGroupReservationProfile,
        queue: List[Job],
        estimator: RuntimeEstimator,
        machine,
    ) -> Dict[int, float]:
        """Greedy vector reservations over eligible groups; job_id -> start time."""
        allocator = machine.allocator
        plan: Dict[int, float] = {}
        for job in queue:
            request = job_request(job)
            duration = max(float(estimator(job)), 1.0)
            groups = [g.name for g in allocator.eligible_groups(request, job.partition)]
            start, group = profile.earliest_start(request, duration, groups)
            profile.reserve(group, start, duration, request)
            plan[job.job_id] = start
        return plan

    @staticmethod
    def _plan(
        profile: OracleResourceProfile,
        queue: List[Job],
        estimator: RuntimeEstimator,
    ) -> Dict[int, float]:
        """Greedily reserve every queued job in order; return job_id -> start time."""
        plan: Dict[int, float] = {}
        for job in queue:
            duration = max(float(estimator(job)), 1.0)
            start = profile.earliest_start(job.requested_processors, duration)
            profile.reserve(start, duration, job.requested_processors)
            plan[job.job_id] = start
        return plan

    def _queue_in_order(self, decision: DecisionPoint) -> List[Job]:
        # The reserved job is planned first (it is the base policy's pick);
        # the remaining queue keeps submission order, which is the ordering
        # conservative backfilling traditionally promises not to delay.
        rest = [j for j in decision.queue if j.job_id != decision.reserved_job.job_id]
        rest.sort(key=lambda j: (j.submit_time, j.job_id))
        return [decision.reserved_job] + rest

    # -- strategy ----------------------------------------------------------
    def select_backfill(
        self, decision: DecisionPoint, estimator: RuntimeEstimator
    ) -> Optional[Job]:
        queue = self._queue_in_order(decision)
        if self.reservation_depth is not None:
            # Reservations (and thus the no-delay guarantee) cover only the
            # first N waiting jobs, like Slurm's bf_max_job_test.
            queue = queue[: self.reservation_depth]
        machine = decision.machine
        hetero = machine is not None and getattr(machine, "topology", None) is not None
        if hetero:
            baseline_plan = self._hetero_plan(
                self._hetero_base_profile(decision, estimator), queue, estimator, machine
            )
        else:
            baseline_plan = self._plan(self._base_profile(decision, estimator), queue, estimator)

        candidates = list(decision.candidates)
        if self.order == "sjf":
            candidates.sort(key=lambda j: (estimator(j), j.submit_time, j.job_id))
        else:
            candidates.sort(key=lambda j: (j.submit_time, j.job_id))
        if self.max_candidates is not None:
            candidates = candidates[: self.max_candidates]

        graceful = machine is not None and bool(getattr(machine, "capacity_schedule", ()))
        for candidate in candidates:
            # Pretend the candidate starts right now.  Under a capacity
            # schedule the candidate may gracefully straddle a drain window it
            # starts before (the drain never preempts), so its reservation
            # uses the clipped drain-subtraction; the planner's own
            # reservations still go through the raising ``reserve``.
            remaining = [j for j in queue if j.job_id != candidate.job_id]
            if hetero:
                # The trial debits the group the allocator would actually pick
                # right now, keeping the what-if consistent with placement.
                group = machine.placement_group(candidate)
                if group is None:
                    continue
                hetero_profile = self._hetero_base_profile(decision, estimator)
                duration = max(float(estimator(candidate)), 1.0)
                request = job_request(candidate)
                if graceful:
                    hetero_profile.drain(group, decision.time, duration, request)
                else:
                    hetero_profile.reserve(group, decision.time, duration, request)
                new_plan = self._hetero_plan(hetero_profile, remaining, estimator, machine)
            else:
                profile = self._base_profile(decision, estimator)
                duration = max(float(estimator(candidate)), 1.0)
                if graceful:
                    profile.drain(decision.time, duration, candidate.requested_processors)
                else:
                    profile.reserve(decision.time, duration, candidate.requested_processors)
                new_plan = self._plan(profile, remaining, estimator)
            delayed = any(
                new_plan[j.job_id] > baseline_plan[j.job_id] + 1e-6 for j in remaining
            )
            if not delayed:
                return candidate
        return None


# -- (i) earliest_start: one sweep == a scan per breakpoint ---------------------

#: Gaps between breakpoints: below, at and above ``eps``, and ordinary ones.
_GAPS = st.sampled_from([3e-10, 8e-10, 1.2e-9, 2.5e-9, 0.5, 1.0, 7.25, 60.0, 1000.0])
#: Origins whose ulp is far below, near and above ``eps``.
_ORIGINS = st.sampled_from([0.0, 1000.0, 1.7e6, 6.0e7])
_DURATIONS = st.one_of(
    st.sampled_from([0.0, 4e-10, 1.0, math.inf]),
    st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
)


@st.composite
def _step_lists(draw, total):
    """``(times, free)`` set directly, so breakpoints may sit closer than ``eps``."""
    origin = draw(_ORIGINS)
    gaps = draw(st.lists(_GAPS, min_size=0, max_size=12))
    times = [origin]
    for gap in gaps:
        if times[-1] + gap > times[-1]:
            times.append(times[-1] + gap)
    # 0 is a fully drained step; ``total`` a free one.
    free = draw(st.lists(st.integers(0, total), min_size=len(times), max_size=len(times)))
    return times, free


def _pair_from_steps(total, times, free):
    fast, oracle = ResourceProfile(total, origin=times[0]), OracleResourceProfile(total, origin=times[0])
    for profile in (fast, oracle):
        profile._times, profile._free = list(times), list(free)
    return fast, oracle


def _same_outcome(fast_call, oracle_call):
    """Same float, or both infeasible (typed on the fast side)."""
    try:
        expected = oracle_call()
    except RuntimeError:
        with pytest.raises(NoFeasibleStart):
            fast_call()
        return
    assert fast_call() == expected


@st.composite
def _earliest(draw, times):
    if draw(st.booleans()):
        return None
    anchor = draw(st.sampled_from(times))
    return anchor + draw(st.sampled_from([-5.0, -8e-10, 0.0, 4e-10, 1.1e-9, 0.3, 12.0]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_scalar_earliest_start_matches_oracle_on_raw_steps(data):
    total = 16
    times, free = data.draw(_step_lists(total))
    fast, oracle = _pair_from_steps(total, times, free)
    processors = data.draw(st.integers(1, total))
    duration = data.draw(_DURATIONS)
    earliest = data.draw(_earliest(times))
    _same_outcome(
        lambda: fast.earliest_start(processors, duration, earliest),
        lambda: oracle.earliest_start(processors, duration, earliest),
    )


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["reserve", "drain"]),
        st.floats(min_value=-5.0, max_value=400.0, allow_nan=False),
        st.one_of(st.sampled_from([4e-10, 1.0, math.inf]), st.floats(min_value=0.0, max_value=300.0)),
        st.integers(1, 6),
    ),
    max_size=14,
)


def _apply(profile, ops, origin, amount=lambda n: n):
    """Apply the ops a profile accepts; returns the outcome of each (ok / error type)."""
    outcomes = []
    for kind, offset, duration, n in ops:
        try:
            getattr(profile, kind)(origin + offset, duration, amount(n))
            outcomes.append("ok")
        except (RuntimeError, ValueError) as error:
            outcomes.append(type(error).__name__)
    return outcomes


@settings(max_examples=300, deadline=None)
@given(origin=_ORIGINS, ops=_OPS, data=st.data())
def test_scalar_profile_built_through_the_api_matches_oracle(origin, ops, data):
    """reserve/drain leave the same steps as the parent's, then earliest_start agrees."""
    fast, oracle = ResourceProfile(16, origin=origin), OracleResourceProfile(16, origin=origin)
    for op in ops:
        outcome = _apply(fast, [op], origin)
        assert outcome == _apply(oracle, [op], origin)
        # An over-subscribed reserve leaves the oracle half-applied (the
        # atomicity tests below); every other op leaves the same breakpoints.
        assume(outcome != ["RuntimeError"])
        assert fast.steps() == oracle.steps()
    probes = [t for t, _ in fast.steps()]
    processors = data.draw(st.integers(1, 16))
    duration = data.draw(_DURATIONS)
    earliest = data.draw(_earliest(probes))
    _same_outcome(
        lambda: fast.earliest_start(processors, duration, earliest),
        lambda: oracle.earliest_start(processors, duration, earliest),
    )


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_reserve_earliest_is_earliest_start_then_reserve(data):
    """The fused step leaves the floats and steps of the two calls it replaces, and
    reserves nothing when the start it found is past ``latest``."""
    total = 16
    times, free = data.draw(_step_lists(total))
    fused, _ = _pair_from_steps(total, times, free)
    apart, _ = _pair_from_steps(total, times, free)
    for _ in range(data.draw(st.integers(1, 4))):
        processors = data.draw(st.integers(1, total))
        duration = data.draw(_DURATIONS)
        try:
            start = apart.earliest_start(processors, duration)
        except NoFeasibleStart:
            with pytest.raises(NoFeasibleStart):
                fused.reserve_earliest(processors, duration)
            continue
        latest = data.draw(st.sampled_from([math.inf, start, start - 1.0]))
        before = apart.steps()
        try:
            if start <= latest:
                apart.reserve(start, duration, processors)
        except RuntimeError:  # breakpoints within eps of the end: both must refuse, untouched
            with pytest.raises(RuntimeError, match="over-subscribed"):
                fused.reserve_earliest(processors, duration, latest)
            assert fused.steps() == before
            continue
        assert fused.reserve_earliest(processors, duration, latest) == start
        assert fused.steps() == apart.steps()


_CAPACITY = ResourceVector(cpus=16, memory=64, gpus=4)
_VECTORS = st.builds(
    ResourceVector, cpus=st.integers(1, 16), memory=st.integers(0, 64), gpus=st.integers(0, 4)
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_vector_earliest_start_matches_oracle_on_raw_steps(data):
    """Components with their own breakpoints, some within ``eps`` of each other."""
    origin = data.draw(_ORIGINS)
    fast, oracle = VectorProfile(_CAPACITY, origin=origin), OracleVectorProfile(_CAPACITY, origin=origin)
    every_time = [origin]
    for name in _RESOURCE_NAMES:
        gaps = data.draw(st.lists(_GAPS, max_size=8))
        times = [origin]
        for gap in gaps:
            if times[-1] + gap > times[-1]:
                times.append(times[-1] + gap)
        free = data.draw(
            st.lists(
                st.integers(0, _CAPACITY.component(name)), min_size=len(times), max_size=len(times)
            )
        )
        for profile in (fast, oracle):
            profile._profiles[name]._times = list(times)
            profile._profiles[name]._free = list(free)
        every_time.extend(times)
    vector = data.draw(_VECTORS)
    duration = data.draw(_DURATIONS)
    earliest = data.draw(_earliest(every_time))
    _same_outcome(
        lambda: fast.earliest_start(vector, duration, earliest),
        lambda: oracle.earliest_start(vector, duration, earliest),
    )


def test_earliest_start_infeasible_is_typed_and_only_that_is_skipped():
    profile = ResourceProfile(8)
    profile.drain(0.0, math.inf, 6)
    with pytest.raises(NoFeasibleStart):
        profile.earliest_start(4, 10.0)
    topology = ClusterTopology((NodeGroup("a", cpus=8), NodeGroup("b", cpus=8)))
    groups = GroupReservationProfile(topology)
    groups.drain("a", 0.0, math.inf, ResourceVector(cpus=6))
    # Group "a" never frees 4 cpus: skipped, "b" answers.
    assert groups.earliest_start(ResourceVector(cpus=4), 10.0, ["a", "b"]) == (0.0, "b")
    with pytest.raises(NoFeasibleStart):
        groups.earliest_start(ResourceVector(cpus=4), 10.0, ["a"])

    class Broken(VectorProfile):
        def earliest_start(self, vector, duration, earliest=None):
            raise RuntimeError("not an infeasibility")

    groups._groups["a"] = Broken(ResourceVector(cpus=8))
    with pytest.raises(RuntimeError, match="not an infeasibility"):
        groups.earliest_start(ResourceVector(cpus=4), 10.0, ["a", "b"])


# -- atomic reserve, independent clones ----------------------------------------


@settings(max_examples=200, deadline=None)
@given(origin=_ORIGINS, ops=_OPS, start=st.floats(0.0, 400.0), duration=st.floats(0.5, 300.0))
def test_raised_scalar_reserve_leaves_steps_untouched(origin, ops, start, duration):
    profile = ResourceProfile(16, origin=origin)
    _apply(profile, ops, origin)
    before = profile.steps()
    floor = profile.min_free_between(origin + start, origin + start + duration)
    with pytest.raises(RuntimeError, match="over-subscribed"):
        profile.reserve(origin + start, duration, floor + 1)
    assert profile.steps() == before


def test_raised_reserve_is_not_half_applied():
    """The parent decremented the steps before the offending one and kept both breakpoints."""
    profile = ResourceProfile(10)
    profile.reserve(50.0, 10.0, 8)
    before = profile.steps()
    with pytest.raises(RuntimeError, match="over-subscribed"):
        profile.reserve(20.0, 60.0, 5)
    assert profile.steps() == before
    oracle = OracleResourceProfile(10)
    oracle.reserve(50.0, 10.0, 8)
    with pytest.raises(RuntimeError):
        oracle.reserve(20.0, 60.0, 5)
    assert oracle.steps() != before  # the bug this PR fixes


def test_raised_vector_reserve_debits_no_component():
    profile = VectorProfile(ResourceVector(cpus=8, memory=32))
    profile.reserve(0.0, 100.0, ResourceVector(cpus=2, memory=30))
    before = {name: p.steps() for name, p in profile._profiles.items()}
    with pytest.raises(RuntimeError, match="over-subscribed"):  # cpus fit, memory does not
        profile.reserve(10.0, 50.0, ResourceVector(cpus=4, memory=8))
    assert {name: p.steps() for name, p in profile._profiles.items()} == before


@settings(max_examples=100, deadline=None)
@given(origin=_ORIGINS, ops=_OPS, more=_OPS)
def test_copies_are_independent_of_their_source(origin, ops, more):
    base = ResourceProfile(16, origin=origin)
    _apply(base, ops, origin)
    before = base.steps()
    clone = base.copy()
    assert clone.steps() == before and (clone.total, clone.origin) == (base.total, base.origin)
    _apply(clone, more + [("drain", 0.0, 50.0, 3)], origin)
    assert base.steps() == before

    topology = ClusterTopology((NodeGroup("a", cpus=16, memory=64), NodeGroup("b", cpus=8)))
    groups = GroupReservationProfile(topology, origin=origin)
    groups.reserve("a", origin + 5.0, 20.0, ResourceVector(cpus=4, memory=16))
    snapshot = {
        (g, name): p.steps() for g in "ab" for name, p in groups.group(g)._profiles.items()
    }
    twin = groups.copy()
    twin.reserve("a", origin, 100.0, ResourceVector(cpus=8, memory=8))
    twin.drain("b", origin, math.inf, ResourceVector(cpus=8))
    assert snapshot == {
        (g, name): p.steps() for g in "ab" for name, p in groups.group(g)._profiles.items()
    }
    assert twin.group("a")._profiles["memory"].free_at(origin + 6.0) == 64 - 16 - 8


def test_copy_is_not_counted_as_a_build():
    from repro.obs import get_metrics

    registry = get_metrics()
    counter = registry.counter("backfill_profile_builds_total")
    was_enabled = registry.enabled
    registry.enable()
    try:
        base = ResourceProfile(8)
        built = counter.value
        base.copy()
        VectorProfile(ResourceVector(cpus=8)).copy()
        assert counter.value == built + 1  # the VectorProfile's one component
    finally:
        if not was_enabled:
            registry.disable()


# -- the base profile written down directly == one reserve per running job -----

#: Estimated ends around ``now``: long past, within the one-second floor, ordinary,
#: and pairs 3e-10 / 8e-10 / 2.5e-9 / 1e-7 apart (within, at and beyond ``eps``).
_ENDS = st.one_of(
    st.sampled_from([-50.0, 0.0, 0.5, 1.0, 1.0 + 3e-10, 7.25, 7.25 + 8e-10, 60.0, 60.0 + 2.5e-9,
                     300.0, 300.0 + 1e-7, math.inf]),
    st.floats(min_value=-10.0, max_value=500.0, allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(now=_ORIGINS, running=st.lists(st.tuples(_ENDS, st.integers(1, 6)), max_size=10))
def test_from_releases_is_from_running_jobs_or_stands_back(now, running):
    running = [(now + offset, processors) for offset, processors in running]
    try:
        expected = ResourceProfile.from_running_jobs(32, now, running)
    except RuntimeError:  # over-subscribed: the direct form leaves the raising to ``reserve``
        assert ResourceProfile.from_releases(32, now, running) is None
        return
    direct = ResourceProfile.from_releases(32, now, running)
    ends = sorted({now + (max(end, now + 1.0) - now) for end, _ in running})
    close = any(later - sooner <= 4e-9 for sooner, later in zip(ends, ends[1:]))
    # ``None`` only where two distinct ends could merge, and always in every order otherwise.
    assert (direct is None) <= close
    if direct is not None:
        assert direct.steps() == expected.steps()
        assert ResourceProfile.from_releases(32, now, running[::-1]).steps() == expected.steps()
        assert (direct.total, direct.origin) == (expected.total, expected.origin)


@settings(max_examples=200, deadline=None)
@given(
    now=_ORIGINS,
    grants=st.lists(st.tuples(st.sampled_from(["cpu", "gpu"]), _ENDS, _VECTORS), max_size=8),
)
def test_group_from_releases_is_one_reserve_per_grant_or_stands_back(now, grants):
    topology = _TOPOLOGIES["resources"]
    grants = [
        (group, now + offset, vector)
        for group, offset, vector in grants
        if vector.fits_in(topology.group(group).capacity)
    ]
    expected = GroupReservationProfile(topology, origin=now)
    try:
        for group, end, vector in grants:
            expected.reserve(group, now, max(end, now + 1.0) - now, vector)
    except RuntimeError:
        assert GroupReservationProfile.from_releases(topology, now, grants) is None
        return
    direct = GroupReservationProfile.from_releases(topology, now, grants)
    if direct is not None:
        assert _steps(direct) == _steps(expected) and direct.origin == expected.origin
        assert direct.group("gpu").capacity == expected.group("gpu").capacity


# -- (ii) select_backfill: same job at every decision of a simulation ----------


def _steps(profile) -> object:
    """Every breakpoint of a scalar or a node-group profile."""
    if isinstance(profile, ResourceProfile):
        return profile.steps()
    return {
        (group, name): component.steps()
        for group, vector in profile._groups.items()
        for name, component in vector._profiles.items()
    }


class _Instrumented(ConservativeBackfill):
    """Counts which rule answered; with ``check`` every skipped step is also run.

    Counting changes nothing.  Checking runs the trial behind every verdict
    read off the plan and plans from scratch beside every plan taken over,
    asserting equality -- the cross-check of ISSUE 23, a test-only mode.
    """

    def __init__(self, check: bool = False, **kwargs):
        super().__init__(**kwargs)
        self.check = check
        self.tally: collections.Counter = collections.Counter()
        self.plans: collections.Counter = collections.Counter()  # (machine, instant) -> plans
        self.trials: list = []  # (candidate is planned, its claim clips, the plan is spaced)

    def select_backfill(self, decision, estimator):
        self._point = (decision, estimator)
        return super().select_backfill(decision, estimator)

    def _from_scratch(self, decision, estimator, queue, hetero):
        self.plans[id(decision.machine), decision.time] += 1
        return super()._from_scratch(decision, estimator, queue, hetero)

    def _untried(self, plan, now, need, placed, group, graceful):
        self._verdict = verdict = super()._untried(plan, now, need, placed, group, graceful)
        if verdict is not None:
            self.tally["A" if verdict else "R"] += 1
        return None if self.check else verdict

    def _trial(self, plan, now, candidate, need, group, graceful):
        tried = super()._trial(plan, now, candidate, need, group, graceful)
        if self._verdict is None:
            self.tally["trial"] += 1
            end = now + need.duration
            clips = graceful and (
                group is not None or plan.base.min_free_between(now, end) < need.amount
            )
            spaced = plan.instants is not None and clear_of(plan.instants, end, 2e-6)
            self.trials.append((candidate.job_id in plan.placed, clips, spaced))
        else:
            assert tried == self._verdict, (now, candidate.job_id, self._verdict, tried)
            if tried:
                self._kept = self._keep(plan, *self._point, candidate, group)
        return tried

    def _carried(self, kept, decision, estimator, queue):
        plan = super()._carried(kept, decision, estimator, queue)
        self.tally["C" if plan is not None else "dropped"] += 1
        if plan is not None and self.check:
            hetero = getattr(decision.machine, "topology", None) is not None
            fresh = super()._from_scratch(decision, estimator, queue, hetero)
            assert _steps(plan.base) == _steps(fresh.base)
            assert _steps(plan.planned) == _steps(fresh.planned)
            assert (plan.queue, plan.placed) == (fresh.queue, fresh.placed)
            assert all(plan.needs[job.job_id] == fresh.needs[job.job_id] for job in queue)
            assert (plan.instants is None) == (fresh.instants is None)
        return plan


class _Paired(BackfillStrategy):
    """Asks the fast strategy and the oracle at every decision point."""

    name = "paired"

    def __init__(self, check: bool = False, **kwargs):
        self.fast = _Instrumented(check=check, **kwargs)
        self.oracle = OracleConservativeBackfill(**kwargs)
        self.decisions = 0
        self.accepted = 0

    def on_sequence_start(self):
        self.fast.on_sequence_start()

    def select_backfill(self, decision, estimator):
        expected = self.oracle.select_backfill(decision, estimator)
        # A hand-built decision point (no sortedness promise) must still be sorted.
        shuffled = DecisionPoint(
            time=decision.time,
            reserved_job=decision.reserved_job,
            reservation_time=decision.reservation_time,
            extra_processors=decision.extra_processors,
            candidates=decision.candidates[::-1],
            queue=decision.queue[::-1],
            machine=decision.machine,
            spare_vectors=decision.spare_vectors,
        )
        # The first answer may leave a plan behind; the second call comes on a
        # machine that has not moved, must not take it over, and leaves its own,
        # which the next decision at this instant may.
        assert self.fast.select_backfill(shuffled, estimator) is expected
        before = self.fast.tally["C"]
        chosen = self.fast.select_backfill(decision, estimator)
        assert chosen is expected and self.fast.tally["C"] == before
        self.decisions += 1
        self.accepted += chosen is not None
        return chosen


_TOPOLOGIES = {
    "scalar": None,
    "one-group": ClusterTopology((NodeGroup("all", cpus=32),)),
    "partitions": ClusterTopology(
        (NodeGroup("p0", cpus=20, partition=0), NodeGroup("p1", cpus=12, partition=1))
    ),
    "resources": ClusterTopology(
        (NodeGroup("cpu", cpus=20, memory=80), NodeGroup("gpu", cpus=12, memory=96, gpus=4))
    ),
}


@st.composite
def _workloads(draw, topology_name):
    """A contended job sequence for the 32-cpu machine of ``topology_name``."""
    topology = _TOPOLOGIES[topology_name]
    count = draw(st.integers(8, 28))
    # Whole seconds, or fractions with instants 1e-7 and 1e-9 apart: the second kind
    # leaves unspaced profiles, where the rules must stand back for the trial.
    fractional = draw(st.booleans())
    gaps = [0.0, 0.0, 1.0, 5.0, 40.0] + [0.25, 1e-7, 1e-9, 2.5 + 1e-7] * fractional
    runtimes = [1.0, 7.0, 30.0, 90.0, 400.0] + [7.0 + 1e-7, 30.0 + 1e-9, 12.625, 0.4] * fractional
    jobs, clock = [], 0.0
    for job_id in range(1, count + 1):
        clock += draw(st.sampled_from(gaps))
        runtime = draw(st.sampled_from(runtimes))
        extra = {}
        widest = 32
        if topology_name == "partitions":
            extra["partition"] = draw(st.integers(0, 1))
            widest = (20, 12)[extra["partition"]]
        elif topology_name == "resources":
            gpus = draw(st.sampled_from([0, 0, 0, 1, 2]))
            extra["requested_gpus"] = gpus
            widest = 12 if gpus else 20
        processors = draw(st.integers(1, widest))
        if topology_name == "resources":
            extra["requested_memory"] = draw(st.sampled_from([-1, 1, 4])) if processors <= 20 else 1
            if extra["requested_memory"] * processors > (96 if extra["requested_gpus"] else 80):
                extra["requested_memory"] = 1
        jobs.append(
            Job(
                job_id=job_id,
                submit_time=clock,
                runtime=runtime,
                requested_processors=processors,
                requested_time=runtime * draw(st.sampled_from([1.0, 1.5, 4.0])),
                **extra,
            )
        )
    windows = None
    if draw(st.booleans()):
        group = {"scalar": None, "one-group": None, "partitions": "p1", "resources": "cpu"}[
            topology_name
        ]
        start = draw(st.sampled_from([0.0, 10.0, 60.0]))
        windows = [
            DowntimeWindow(
                start=start,
                end=start + draw(st.sampled_from([30.0, 200.0, 5000.0])),
                # Up to 8 leaves room beside the running jobs; more clips a candidate's claim.
                processors=draw(st.sampled_from([1, 3, 8, 14, 24])),
                group=group,
            )
        ]
    return jobs, topology, windows


_KNOBS = st.fixed_dictionaries(
    {
        "order": st.sampled_from(["fcfs", "sjf"]),
        "reservation_depth": st.sampled_from([None, 1, 3, 6]),
        "max_candidates": st.sampled_from([None, 1, 2]),
    }
)


@pytest.mark.parametrize("topology_name", sorted(_TOPOLOGIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), knobs=_KNOBS, check=st.booleans())
def test_select_backfill_matches_full_replan_oracle(topology_name, data, knobs, check):
    jobs, topology, windows = data.draw(_workloads(topology_name))
    paired = _Paired(check=check, **knobs)
    result = run_schedule(
        jobs,
        32,
        backfill=paired,
        estimator=UserEstimate(),
        capacity_schedule=windows,
        topology=topology,
    )
    assert len(result.records) == len(jobs)
    if topology is not None:
        assert paired.fast.tally["R"] == 0  # a displaced job may land in another group


def _contended_jobs() -> List[Job]:
    return [
        Job(job_id=i, submit_time=float(i // 3), runtime=(20.0, 150.0, 7.0)[i % 3],
            requested_processors=(6, 20, 3, 12)[i % 4], requested_time=(40.0, 150.0, 30.0)[i % 3])
        for i in range(1, 41)
    ]


def _paired_contended_run(check: bool) -> _Paired:
    paired = _Paired(check=check)
    run_schedule(
        _contended_jobs(), 32, backfill=paired, estimator=UserEstimate(),
        capacity_schedule=[DowntimeWindow(start=30.0, end=400.0, processors=8)],
    )
    assert paired.accepted > 0 and paired.decisions > paired.accepted
    tally = paired.fast.tally
    assert all(tally[rule] > 0 for rule in ("A", "R", "C", "trial", "dropped")), tally
    return paired


def test_paired_run_exercises_accepts_rejects_and_graceful_drains():
    """The property above is not vacuous: a fixed contended run backfills and refuses,
    and every way of answering -- (A), (R), (C) and the trial -- answers some decision."""
    paired = _paired_contended_run(check=False)
    # Whole seconds, the whole queue planned: a trial is run only for a claim that clips.
    assert all(planned and clips and spaced for planned, clips, spaced in paired.fast.trials)


def test_paired_run_cross_checked():
    """The same run with every skipped trial run and every plan taken over re-planned."""
    _paired_contended_run(check=True)


def test_one_baseline_plan_per_instant():
    """Alone (no second call per decision), a spaced scalar run plans once per instant."""
    fast = _Instrumented()
    result = run_schedule(
        _contended_jobs(), 32, backfill=fast, estimator=UserEstimate(),
        capacity_schedule=[DowntimeWindow(start=30.0, end=400.0, processors=8)],
    )
    assert fast.tally["C"] > 0 and set(fast.plans.values()) == {1}
    assert sum(fast.plans.values()) + fast.tally["C"] == result.decision_count
    assert all(planned and clips for planned, clips, _ in fast.trials)


@pytest.mark.parametrize("case", ["planned-instants", "candidate-end"])
def test_instants_closer_than_the_delay_tolerance_are_left_to_the_trial(case):
    """The candidate's baseline start is later than now, yet its trial moves the reserved
    job by 1e-7 only, which the 1e-6 tolerance forgives: (R) must not answer here."""
    machine = Machine(16)

    def job(job_id, width, length):
        return Job(job_id=job_id, submit_time=0.0, runtime=length, requested_processors=width,
                   requested_time=length)

    if case == "planned-instants":
        # Two running jobs end 1e-7 apart; the candidate's own end is far from both.
        machine.start(job(8, 4, 100.0), now=0.0)
        machine.start(job(9, 4, 100.0 + 1e-7), now=0.0)
        queue = [job(1, 12, 50.0), job(2, 4, 200.0)]
    else:
        # The profile is spaced; the candidate ends 1e-7 after the reserved job's start.
        machine.start(job(9, 8, 100.0), now=0.0)
        queue = [job(1, 16, 50.0), job(2, 8, 100.0 + 1e-7)]
    decision = DecisionPoint(
        time=0.0, reserved_job=queue[0], reservation_time=100.0, extra_processors=0,
        queue=queue, machine=machine, queue_sorted=True,
    )
    fast = _Instrumented()
    assert OracleConservativeBackfill().select_backfill(decision, UserEstimate()) is queue[1]
    assert fast.select_backfill(decision, UserEstimate()) is queue[1]
    assert fast.tally["trial"] == 1 and fast.tally["R"] == 0
    assert fast._kept is None  # accepted by its trial: nothing to take over


# -- what is kept between calls, and everything that drops it -------------------


def _same_instant_points():
    """Two decision points of one instant: job 2 is accepted by (A), then job 3."""
    machine = Machine(16)
    machine.start(Job(job_id=9, submit_time=0.0, runtime=90.0, requested_processors=8,
                      requested_time=100.0), now=0.0)
    queue = [
        Job(job_id=i, submit_time=0.0, runtime=runtime, requested_processors=width,
            requested_time=runtime)
        for i, (width, runtime) in enumerate([(12, 50.0), (4, 20.0), (4, 30.0), (2, 500.0)], start=1)
    ]

    def point(jobs):
        return DecisionPoint(
            time=0.0, reserved_job=queue[0], reservation_time=100.0, extra_processors=4,
            queue=jobs, machine=machine, queue_sorted=True,
        )

    return machine, queue, point


def test_an_accepted_plan_is_taken_over_by_the_next_call_at_the_instant():
    machine, queue, point = _same_instant_points()
    estimator = UserEstimate()
    fast = _Instrumented(check=True)
    assert fast.select_backfill(point(queue), estimator) is queue[1]
    machine.start(queue[1], now=0.0)
    rest = [queue[0], *queue[2:]]
    assert fast.select_backfill(point(rest), estimator) is queue[2]
    assert fast.tally["C"] == 1 and sum(fast.plans.values()) == 1


@pytest.mark.parametrize(
    "disturb",
    [
        lambda fast, machine: fast.on_sequence_start(),
        lambda fast, machine: machine.release(9),  # the version moved twice
        lambda fast, machine: machine.add_capacity_window(DowntimeWindow(40.0, 80.0, 2)),
    ],
    ids=["sequence-start", "second-version-move", "new-window"],
)
def test_a_kept_plan_is_dropped(disturb):
    machine, queue, point = _same_instant_points()
    estimator = UserEstimate()
    fast = _Instrumented()
    assert fast.select_backfill(point(queue), estimator) is queue[1]
    machine.start(queue[1], now=0.0)
    disturb(fast, machine)
    rest = [queue[0], *queue[2:]]
    expected = OracleConservativeBackfill().select_backfill(point(rest), estimator)
    assert fast.select_backfill(point(rest), estimator) is expected
    assert fast.tally["C"] == 0 and sum(fast.plans.values()) == 2
    if machine.num_running == 1:  # job 9 gone: the reserved job fits now and job 3 would delay it
        assert expected is None


def test_a_kept_plan_is_dropped_by_anything_but_the_next_call_it_was_kept_for():
    machine, queue, point = _same_instant_points()
    estimator = UserEstimate()
    rest = [queue[0], *queue[2:]]
    # The same decision point again: the machine has not moved.
    fast = _Instrumented()
    assert fast.select_backfill(point(queue), estimator) is queue[1]
    assert fast.select_backfill(point(queue), estimator) is queue[1]
    assert fast.tally["C"] == 0
    # Another estimator, another queue, another instant, a candidate that did not start.
    for change in ("estimator", "queue", "instant", "not started"):
        machine, queue, point = _same_instant_points()
        rest = [queue[0], *queue[2:]]
        fast = _Instrumented()
        assert fast.select_backfill(point(queue), estimator) is queue[1]
        if change == "not started":
            machine.start(queue[3], now=0.0)
            rest = queue[:3]
        else:
            machine.start(queue[1], now=0.0)
        following = point(rest[:-1] if change == "queue" else rest)
        if change == "instant":
            following.time = 1.0
            machine.advance_to(1.0)
        asked = UserEstimate() if change == "estimator" else estimator
        expected = OracleConservativeBackfill().select_backfill(following, asked)
        assert fast.select_backfill(following, asked) is expected
        assert fast.tally["C"] == 0, change


def test_a_kept_plan_needs_its_candidate_running():
    """One version move, the same queue -- but another job was started, not the candidate."""
    machine = Machine(16)
    machine.start(Job(job_id=9, submit_time=0.0, runtime=90.0, requested_processors=8,
                      requested_time=100.0), now=0.0)
    queue = [
        Job(job_id=i, submit_time=0.0, runtime=length, requested_processors=width,
            requested_time=length)
        for i, (width, length) in enumerate([(14, 50.0), (4, 20.0), (4, 450.0)], start=1)
    ]

    def point(jobs):
        return DecisionPoint(
            time=0.0, reserved_job=queue[0], reservation_time=100.0, extra_processors=2,
            queue=jobs, machine=machine, queue_sorted=True,
        )

    estimator = UserEstimate()
    fast = _Instrumented()
    assert fast.select_backfill(point(queue), estimator) is queue[1]
    # Job 2 is withdrawn; a stranger takes its processors for much longer.
    machine.start(Job(job_id=7, submit_time=0.0, runtime=500.0, requested_processors=4,
                      requested_time=500.0), now=0.0)
    following = point([queue[0], queue[2]])
    expected = OracleConservativeBackfill().select_backfill(following, estimator)
    assert expected is queue[2]  # the reserved job now waits for the stranger: job 3 delays nobody
    assert fast.select_backfill(following, estimator) is expected and fast.tally["C"] == 0


def test_copies_and_pickles_of_a_strategy_keep_its_options_only():
    machine, queue, point = _same_instant_points()
    fast = ConservativeBackfill(order="sjf", reservation_depth=8, max_candidates=4)
    assert fast.select_backfill(point(queue), UserEstimate()) is queue[1]
    assert fast._kept is not None and fast._needs_memo
    for twin in (copy.deepcopy(fast), copy.copy(fast), pickle.loads(pickle.dumps(fast))):
        assert (twin.order, twin.reservation_depth, twin.max_candidates) == ("sjf", 8, 4)
        assert twin._kept is None and not twin._needs_memo and twin._needs_of is None
    assert fast._kept is not None  # the original is untouched
    assert len(pickle.dumps(fast)) < 250  # no machine, profile or job in the bytes


def test_a_plan_taken_over_on_fractional_times_is_the_fresh_plan():
    """(C) reserves the started candidate with ``from_running_jobs``' arithmetic,
    ``max(t + est, t + 1) - t``, which on fractions is not always the planned duration."""
    estimator = UserEstimate()
    carried = 0
    for now, runtime in [(0.1, 0.7), (0.3, 7.7), (1e-3, 12.625), (7.1, 0.4), (123.456, 30.0 + 1e-9)]:
        machine = Machine(16)
        machine.advance_to(now)
        machine.start(Job(job_id=9, submit_time=0.0, runtime=90.0, requested_processors=8,
                          requested_time=100.0), now=now)
        queue = [
            Job(job_id=i, submit_time=0.0, runtime=length, requested_processors=width,
                requested_time=length)
            for i, (width, length) in enumerate([(12, 50.0), (4, runtime), (4, 30.25)], start=1)
        ]

        def point(jobs):
            return DecisionPoint(
                time=now, reserved_job=queue[0], reservation_time=100.0, extra_processors=4,
                queue=jobs, machine=machine, queue_sorted=True,
            )

        fast = _Instrumented(check=True)  # compares what is taken over with a fresh plan
        assert fast.select_backfill(point(queue), estimator) is queue[1]
        machine.start(queue[1], now=now)
        assert fast.select_backfill(point([queue[0], queue[2]]), estimator) is queue[2]
        carried += fast.tally["C"]
    assert carried > 0


# -- (iii) a lazy noisy estimator is asked about jobs in the same order --------


@pytest.mark.parametrize("topology_name", ["scalar", "partitions"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), knobs=_KNOBS, seed=st.integers(0, 5))
def test_noisy_estimator_cache_fills_in_the_same_order(topology_name, data, knobs, seed):
    jobs, topology, windows = data.draw(_workloads(topology_name))
    orders, schedules = [], []
    for strategy in (ConservativeBackfill(**knobs), OracleConservativeBackfill(**knobs)):
        estimator = NoisyPrediction(0.4, seed=seed)
        result = run_schedule(
            jobs, 32, backfill=strategy, estimator=estimator,
            capacity_schedule=windows, topology=topology,
        )
        orders.append(list(estimator._cache.items()))
        schedules.append([(r.job.job_id, r.start_time, r.backfilled) for r in result.records])
        if isinstance(strategy, ConservativeBackfill):  # nothing of a stateful estimator is kept
            assert strategy._kept is None and not strategy._needs_memo
    assert orders[0] == orders[1]
    assert schedules[0] == schedules[1]


class _FirstAsks(RuntimeEstimator):
    """Records the order in which jobs are *first* asked about."""

    def __init__(self):
        self.order: List[int] = []

    def estimate(self, job: Job) -> float:
        if job.job_id not in self.order:
            self.order.append(job.job_id)
        return job.requested_time


@pytest.mark.parametrize("order", ["fcfs", "sjf"])
def test_first_ask_order_on_a_fresh_estimator(order):
    """Running jobs, the queue in plan order, the candidate sort, then each tried candidate."""
    from repro.cluster.machine import Machine

    def decision_point():
        machine = Machine(16)
        machine.start(Job(job_id=9, submit_time=0.0, runtime=50.0, requested_processors=6,
                          requested_time=60.0), now=0.0)
        machine.start(Job(job_id=8, submit_time=0.0, runtime=20.0, requested_processors=6,
                          requested_time=90.0), now=0.0)
        queue = [
            Job(job_id=i, submit_time=float(i), runtime=10.0 * i, requested_processors=width,
                requested_time=(45.0, 80.0, 30.0, 25.0, 70.0)[i - 1])
            for i, width in enumerate((12, 3, 4, 2, 1), start=1)
        ]
        return DecisionPoint(
            time=5.0, reserved_job=queue[0], reservation_time=60.0, extra_processors=4,
            candidates=queue[1:], queue=queue, machine=machine, queue_sorted=True,
        )

    asked = []
    for strategy in (ConservativeBackfill, OracleConservativeBackfill):
        estimator = _FirstAsks()
        backfill = strategy(order=order, reservation_depth=2)
        chosen = backfill.select_backfill(decision_point(), estimator)
        asked.append((estimator.order, chosen.job_id if chosen else None))
        assert not getattr(backfill, "_needs_memo", None) and getattr(backfill, "_kept", None) is None
    assert asked[0] == asked[1]
    assert asked[0][0][:4] == [8, 9, 1, 2]  # running by true end time, then the planned queue
