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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.resources import ClusterTopology, ResourceVector, _RESOURCE_NAMES
from repro.obs import get_metrics

__all__ = ["NoFeasibleStart", "ResourceProfile", "VectorProfile", "GroupReservationProfile"]

_EPS = 1e-9

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
        times, free = self._times, self._free
        lo, end = max(start, self.origin), max(start + duration, self.origin)
        first = bisect_right(times, lo + _EPS) - 1
        last = bisect_right(times, end + _EPS) - 1
        cut_lo = abs(times[first] - lo) > _EPS
        # ``end`` snaps to the last breakpoint before it, the one cut at ``lo`` included.
        cut_end = abs((lo if cut_lo and last == first else times[last]) - end) > _EPS
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

    def earliest_start(self, processors: int, duration: float, earliest: float | None = None) -> float:
        """Earliest time >= ``earliest`` at which ``processors`` stay free for ``duration``."""
        if processors > self.total:
            raise ValueError(
                f"request for {processors} processors exceeds the machine size {self.total}"
            )
        first = max(earliest if earliest is not None else self.origin, self.origin)
        start = _earliest_fit([(self._times, self._free, processors)], first, duration)
        if not math.isinf(start):
            return start
        raise NoFeasibleStart(
            f"no feasible start found for {processors} processors x {duration}s "
            "(profile never frees enough capacity)"
        )

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

    def group(self, name: str) -> VectorProfile:
        return self._groups[name]

    def reserve(self, group: str, start: float, duration: float, vector: ResourceVector) -> None:
        self._groups[group].reserve(start, duration, vector)

    def drain(self, group: str, start: float, duration: float, vector: ResourceVector) -> None:
        self._groups[group].drain(start, duration, vector)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupReservationProfile(groups={self.topology.names})"
