"""Free-processor availability profile.

A step function over time recording how many processors are free, given the
currently running jobs (under a runtime estimator) and any reservations that
have been placed.  This is the standard data structure behind conservative
backfilling: every waiting job gets a reservation carved out of the profile,
and a candidate may only start now if doing so leaves every reservation
intact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from operator import attrgetter, itemgetter, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.resources import ClusterTopology, ResourceVector, _RESOURCE_NAMES
from repro.obs import get_metrics

__all__ = [
    "NoFeasibleStart",
    "ResourceProfile",
    "VectorProfile",
    "GroupReservationProfile",
    "spaced",
    "clear_of",
]

_EPS = 1e-9
#: Two distinct ends closer than this may be merged by ``reserve`` (it merges within
#: ``eps``; the rest is room for the rounding of its comparisons).
_MERGE_BAND = 4 * _EPS

# Counts profiles built from machine state (one per component per decision
# under conservative backfilling); a ``copy()`` for a trial is not a build.
_PROFILE_BUILDS = get_metrics().counter("backfill_profile_builds_total")


class NoFeasibleStart(RuntimeError):
    """The profile never frees enough capacity for the request."""


def _earliest_fit(parts: Sequence[Tuple[List[float], List[int], int]], start: float, duration: float) -> float:
    """Earliest of ``start`` and the later breakpoints at which every ``(times, free,
    amount)`` step function keeps ``amount`` free for ``duration``; ``inf`` if none.

    One forward sweep.  A start's window is the step holding it (looked up at
    ``start + eps``) and every later step beginning before ``start + duration -
    eps``.  A run of steps short of ``amount`` is in the window of every start
    before its end, so the sweep resumes at the first breakpoint whose lookup
    reaches that end instead of scanning from each breakpoint in between.
    """
    floor = start + _EPS
    while not math.isinf(start):
        horizon, bound = start + duration - _EPS, None
        for times, free, amount in parts:
            idx, size = bisect_right(times, start + _EPS) - 1, len(times)
            while free[idx] >= amount:
                idx += 1
                if idx == size or times[idx] >= horizon:
                    break
            else:
                while idx < size and free[idx] < amount:
                    idx += 1
                if idx == size:
                    return math.inf
                if bound is None or times[idx] > bound:
                    bound = times[idx]
        if bound is None:
            return start
        start = math.inf
        for times, _, _ in parts:
            k = bisect_left(times, bound)
            while times[k - 1] > floor and bound <= times[k - 1] + _EPS:
                k -= 1
            if k < len(times) and times[k] < start:
                start = times[k]
    return start


def spaced(instants: Sequence[float], gap: float) -> bool:
    """Whether every two consecutive ``instants`` (ascending) lie more than ``gap`` apart."""
    return min(map(sub, islice(instants, 1, None), instants), default=math.inf) > gap


def clear_of(instants: Sequence[float], instant: float, gap: float) -> bool:
    """Whether ``instant`` is one of the ascending ``instants`` or more than ``gap`` from each."""
    k = bisect_left(instants, instant)
    if k < len(instants) and instants[k] == instant:
        return True
    return (k == 0 or instant - instants[k - 1] > gap) and (
        k == len(instants) or instants[k] - instant > gap
    )


class ResourceProfile:
    """Piecewise-constant free-processor profile on ``[origin, +inf)``."""

    def __init__(self, total_processors: int, origin: float = 0.0, initial_free: int | None = None):
        if total_processors <= 0:
            raise ValueError("total_processors must be positive")
        free0 = total_processors if initial_free is None else initial_free
        if not 0 <= free0 <= total_processors:
            raise ValueError(
                f"initial_free={free0} outside [0, {total_processors}]"
            )
        _PROFILE_BUILDS.inc()
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

    def instants(self) -> Sequence[float]:
        """The breakpoint times, ascending (the profile's own list: read only)."""
        return self._times

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
    def _window(self, start: float, duration: float, needed: int = 0) -> Tuple:
        """Locate ``[start, start+duration)`` and check it, modifying nothing.

        Returns the steps ``[first, stop)`` it covers and the two times at which
        a breakpoint is still missing (``None`` where one exists within ``eps``),
        ready for :meth:`_cut`; raises if a step has fewer than ``needed`` free.
        """
        times = self._times
        lo, end = max(start, self.origin), max(start + duration, self.origin)
        first = bisect_right(times, lo + _EPS) - 1
        last = bisect_right(times, end + _EPS) - 1
        return self._span(first, last, lo, end, needed)

    def _span(self, first: int, last: int, lo: float, end: float, needed: int) -> Tuple:
        """:meth:`_window` once the steps holding ``lo`` and ``end`` are known."""
        times, free = self._times, self._free
        cut_lo = abs(times[first] - lo) > _EPS
        # ``end`` snaps to the last breakpoint before it, the one cut at ``lo`` included,
        # unless that lies more than eps before it -- the float test the sweep of
        # ``earliest_start`` ends its windows with, so the start it finds fits here.
        cut_end = (lo if cut_lo and last == first else times[last]) < end - _EPS
        stop = last + cut_end
        if first < stop and min(free[first:stop]) - needed < -_EPS:
            worst = next(i for i in range(first, stop) if free[i] - needed < -_EPS)
            raise RuntimeError(
                f"profile over-subscribed at t={times[worst]}: "
                f"free={free[worst]}, reserving {needed}"
            )
        return first, stop, lo if cut_lo else None, end if cut_end and end < math.inf else None

    def _cut(self, first: int, stop: int, lo: Optional[float], end: Optional[float]) -> slice:
        """Insert the breakpoints :meth:`_window` found missing; return the window's steps."""
        times, free = self._times, self._free
        if end is not None:
            times.insert(stop, end)
            free.insert(stop, free[stop - 1])
        if lo is not None:
            first, stop = first + 1, stop + 1
            times.insert(first, lo)
            free.insert(first, free[first - 1])
        return slice(first, stop)

    def reserve(self, start: float, duration: float, processors: int) -> None:
        """Subtract ``processors`` over ``[start, start+duration)``; all or nothing."""
        if processors <= 0:
            raise ValueError("processors must be positive")
        if duration <= 0:
            return
        self._debit(self._window(start, duration, processors), processors)

    def _debit(self, window: Tuple, processors: int) -> None:
        """Subtract ``processors`` over a window :meth:`_window` has checked."""
        span = self._cut(*window)
        self._free[span] = [free - processors for free in self._free[span]]

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
        span = self._cut(*self._window(start, duration))
        self._free[span] = [max(free - processors, 0) for free in self._free[span]]

    def copy(self) -> "ResourceProfile":
        """An independent clone (two list copies; not counted as a build)."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._times, clone._free = self._times[:], self._free[:]
        return clone

    def _sweep(self, processors: int, start: float, duration: float) -> Tuple[float, int, int]:
        """:func:`_earliest_fit` over this one step function, keeping what it found.

        Returns ``(start, first, stop)``: the step holding the start and the
        first step at or past ``start + duration - eps`` (every step between has
        ``processors`` free); ``start`` is ``inf`` when nothing ever fits.
        """
        times, free = self._times, self._free
        size, floor = len(times), start + _EPS
        first = bisect_right(times, floor) - 1
        while True:
            horizon, idx = start + duration - _EPS, first
            while free[idx] >= processors:
                idx += 1
                if idx == size or times[idx] >= horizon:
                    return start, first, idx
            while free[idx] < processors:
                idx += 1
                if idx == size:
                    return math.inf, first, idx
            bound = times[idx]
            while times[idx - 1] > floor and bound <= times[idx - 1] + _EPS:
                idx -= 1
            start = times[idx]
            first = bisect_right(times, start + _EPS) - 1

    def _earliest(self, processors: int, duration: float, first: float) -> Tuple[float, int, int]:
        """:meth:`_sweep` from ``first`` for a request the machine can hold; raises if none fits."""
        if processors > self.total:
            raise ValueError(
                f"request for {processors} processors exceeds the machine size {self.total}"
            )
        found = self._sweep(processors, first, duration)
        if math.isinf(found[0]):
            raise NoFeasibleStart(
                f"no feasible start found for {processors} processors x {duration}s "
                "(profile never frees enough capacity)"
            )
        return found

    def earliest_start(self, processors: int, duration: float, earliest: float | None = None) -> float:
        """Earliest time >= ``earliest`` at which ``processors`` stay free for ``duration``."""
        first = max(earliest if earliest is not None else self.origin, self.origin)
        return self._earliest(processors, duration, first)[0]

    def reserve_earliest(self, processors: int, duration: float, latest: float = math.inf) -> float:
        """:meth:`earliest_start` from the origin, reserved there unless it is past ``latest``.

        The same floats and the same steps as ``reserve(earliest_start(...), ...)``;
        the reservation starts from the steps the sweep stopped at instead of
        looking them up again.
        """
        start, first, stop = self._earliest(processors, duration, self.origin)
        if start > latest:
            return start
        if processors <= 0:
            raise ValueError("processors must be positive")
        if duration > 0:
            times, end = self._times, start + duration
            last, size = stop - 1, len(times)
            while last + 1 < size and times[last + 1] <= end + _EPS:
                last += 1
            self._debit(self._span(first, last, start, end, processors), processors)
        return start

    @classmethod
    def from_running_jobs(
        cls,
        total_processors: int,
        now: float,
        running: Iterable[Tuple[float, int]],
    ) -> "ResourceProfile":
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

    @classmethod
    def from_releases(
        cls, total_processors: int, now: float, releases: Iterable[Tuple[float, int]]
    ) -> Optional["ResourceProfile"]:
        """:meth:`from_running_jobs` written down directly, when the order cannot matter.

        Sorts the clamped ends and releases cumulatively -- one pass instead of
        one ``reserve`` per job.  ``reserve`` merges an end into a breakpoint
        within ``eps`` of it, so where two *distinct* ends lie that close the
        one reserved first is the float that stays: the answer is then
        ``None`` and the caller reserves one by one in the order it means.
        """
        floor = now + 1.0
        # ``reserve`` places an end at ``start + duration``: the same arithmetic here.
        pairs = sorted(
            [(now + (max(end_time, floor) - now), processors) for end_time, processors in releases]
        )
        held = sum(map(itemgetter(1), pairs))
        if held > total_processors:
            return None  # over-subscribed: the reserve that finds it raises
        times: List[float] = []
        gains: List[int] = []
        for end, processors in pairs:
            if times and end - times[-1] <= _MERGE_BAND:
                if end != times[-1]:
                    return None
                gains[-1] += processors
            elif end < math.inf:  # held forever: never released, so no step
                times.append(end)
                gains.append(processors)
        profile = cls(total_processors, origin=now)
        profile._times += times
        profile._free = list(accumulate(gains, initial=total_processors - held))
        return profile

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResourceProfile(total={self.total}, steps={len(self._times)})"


class VectorProfile:
    """Per-resource availability profile over one node group.

    Composes one :class:`ResourceProfile` per resource the group actually has
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
        self._profiles: Dict[str, ResourceProfile] = {
            name: ResourceProfile(capacity.component(name), origin=origin)
            for name in _RESOURCE_NAMES
            if capacity.component(name) > 0
        }

    @classmethod
    def from_releases(
        cls, capacity: ResourceVector, now: float, releases: Sequence[Tuple[float, ResourceVector]]
    ) -> Optional["VectorProfile"]:
        """A profile with each ``(estimated_end, vector)`` reserved from ``now`` until its
        end, a component at a time through :meth:`ResourceProfile.from_releases`;
        ``None`` where a component's is."""
        profile = cls.__new__(cls)
        profile.capacity, profile.origin, profile._profiles = capacity, float(now), {}
        for name in _RESOURCE_NAMES:
            total, amount = capacity.component(name), attrgetter(name)
            if total > 0:
                component = ResourceProfile.from_releases(
                    total, now, [(end, share) for end, v in releases if (share := amount(v)) > 0]
                )
                if component is None:
                    return None
                profile._profiles[name] = component
        return profile

    def reserve(self, start: float, duration: float, vector: ResourceVector) -> None:
        """Subtract ``vector`` over ``[start, start+duration)``; all or nothing."""
        if not vector.fits_in(self.capacity):
            raise ValueError(
                f"reservation {vector.as_dict()} exceeds group capacity {self.capacity.as_dict()}"
            )
        if duration <= 0:
            return
        parts = [(p, vector.component(name)) for name, p in self._profiles.items()]
        # Every component is located and checked before any is debited.
        checked = [(p, p._window(start, duration, amount), amount) for p, amount in parts if amount > 0]
        for profile, window, amount in checked:
            profile._debit(window, amount)

    def drain(self, start: float, duration: float, vector: ResourceVector) -> None:
        """Subtract ``vector`` over the window, clipping each component at zero."""
        for name, profile in self._profiles.items():
            amount = vector.component(name)
            if amount > 0:
                profile.drain(start, duration, amount)

    def copy(self) -> "VectorProfile":
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._profiles = {name: p.copy() for name, p in self._profiles.items()}
        return clone

    def earliest_start(
        self, vector: ResourceVector, duration: float, earliest: float | None = None
    ) -> float:
        """Earliest time >= ``earliest`` at which the whole vector stays free for ``duration``."""
        if not vector.fits_in(self.capacity):
            raise ValueError(
                f"request {vector.as_dict()} exceeds group capacity {self.capacity.as_dict()}"
            )
        first = max(earliest if earliest is not None else self.origin, self.origin)
        parts = [(p._times, p._free, vector.component(name)) for name, p in self._profiles.items()]
        start = _earliest_fit(parts, first, duration)
        if not math.isinf(start):
            return start
        raise NoFeasibleStart(
            f"no feasible start found for {vector.as_dict()} x {duration}s "
            "(group never frees enough capacity)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorProfile(capacity={self.capacity.as_dict()})"


class GroupReservationProfile:
    """Availability profiles for every node group of a heterogeneous machine.

    The conservative discipline's planning surface: one :class:`VectorProfile`
    per group, plus the cross-group placement question "where does this job's
    reservation land earliest?".  Start-time ties break in the *caller's*
    group order (the allocator's eligibility order), which keeps planning
    deterministic and consistent with live placement.
    """

    def __init__(self, topology: ClusterTopology, origin: float = 0.0):
        self.topology = topology
        self.origin = float(origin)
        self._groups: Dict[str, VectorProfile] = {
            group.name: VectorProfile(group.capacity, origin=origin)
            for group in topology.groups
        }

    @classmethod
    def from_releases(
        cls,
        topology: ClusterTopology,
        now: float,
        releases: Iterable[Tuple[str, float, ResourceVector]],
    ) -> Optional["GroupReservationProfile"]:
        """A profile with each ``(group, estimated_end, vector)`` grant reserved from
        ``now`` until ``max(end, now + 1)``, written down directly; ``None`` where
        the order of the reservations decides a float (see
        :meth:`ResourceProfile.from_releases`) or a group is over-subscribed."""
        held: Dict[str, list] = {group.name: [] for group in topology.groups}
        for name, end, vector in releases:
            held[name].append((end, vector))
        profile = cls.__new__(cls)
        profile.topology, profile.origin, profile._groups = topology, float(now), {}
        for group in topology.groups:
            built = VectorProfile.from_releases(group.capacity, now, held[group.name])
            if built is None:
                return None
            profile._groups[group.name] = built
        return profile

    def group(self, name: str) -> VectorProfile:
        return self._groups[name]

    def reserve(self, group: str, start: float, duration: float, vector: ResourceVector) -> None:
        self._groups[group].reserve(start, duration, vector)

    def drain(self, group: str, start: float, duration: float, vector: ResourceVector) -> None:
        self._groups[group].drain(start, duration, vector)

    def instants(self) -> Sequence[float]:
        """Every group's breakpoint times, ascending and distinct."""
        return sorted(
            set().union(*(p._times for g in self._groups.values() for p in g._profiles.values()))
        )

    def copy(self) -> "GroupReservationProfile":
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._groups = {name: g.copy() for name, g in self._groups.items()}
        return clone

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
            except NoFeasibleStart:
                continue
            if best is None or start < best[0] - _EPS:
                best = (start, name)
        if best is None:
            raise NoFeasibleStart(
                f"no feasible start found for {vector.as_dict()} x {duration}s "
                f"in groups {tuple(groups)}"
            )
        return best

    def reserve_earliest(
        self,
        vector: ResourceVector,
        duration: float,
        groups: Sequence[str],
        latest: float = math.inf,
    ) -> Tuple[float, str]:
        """:meth:`earliest_start`, reserved there unless the start is past ``latest``."""
        start, group = self.earliest_start(vector, duration, groups)
        if start <= latest:
            self._groups[group].reserve(start, duration, vector)
        return start, group

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupReservationProfile(groups={self.topology.names})"
