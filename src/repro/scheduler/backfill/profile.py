"""Reservation profiles: free capacity over time, per node group and resource.

A :class:`ResourceProfile` is a step function over time recording how much of
one resource is free, given the currently running jobs (under a runtime
estimator), scheduled drains and the reservations placed so far; a
:class:`ReservationProfile` holds one for every resource of every node group,
and the scalar machine is its one-group, cpu-only case.  This is the data
structure behind conservative backfilling: every waiting job gets a
reservation carved out of the profile, and a candidate may only start now if
doing so leaves every reservation intact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice, repeat
from operator import itemgetter, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.resources import ClusterTopology
from repro.obs import get_metrics

__all__ = [
    "NoFeasibleStart",
    "ResourceProfile",
    "ReservationProfile",
    "spaced",
    "clear_of",
]

_EPS = 1e-9
#: Two distinct ends closer than this may be merged by ``reserve`` (it merges within
#: ``eps``; the rest is room for the rounding of its comparisons).
_MERGE_BAND = 4 * _EPS

# Counts step functions built from machine state (one per component per
# decision under conservative backfilling); a ``copy()`` for a trial is not a build.
_PROFILE_BUILDS = get_metrics().counter("backfill_profile_builds_total")


class NoFeasibleStart(RuntimeError):
    """The profile never frees enough capacity for the request."""


def _fit(parts: Sequence[Tuple[List[float], List[int], int]], start: float, duration: float) -> tuple:
    """Earliest of ``start`` and the later breakpoints at which every ``(times, free,
    amount)`` step function keeps ``amount`` free for ``duration``; ``inf`` if none.

    One forward sweep.  A start's window is the step holding it (looked up at
    ``start + eps``) and every later step beginning before ``start + duration -
    eps``.  A run of steps short of ``amount`` is in the window of every start
    before its end, so the sweep resumes at the first breakpoint whose lookup
    reaches that end instead of scanning from each breakpoint in between.
    Also returns, per part, the step holding the start it found, so a
    reservation there needs no second lookup.
    """
    floor = start + _EPS
    while True:
        horizon, bound, firsts = start + duration - _EPS, None, []
        for times, free, amount in parts:
            first = idx = bisect_right(times, start + _EPS) - 1
            size = len(times)
            while free[idx] >= amount:
                idx += 1
                if idx == size or times[idx] >= horizon:
                    break
            else:
                while idx < size and free[idx] < amount:
                    idx += 1
                if idx == size:
                    return math.inf, None
                if bound is None or times[idx] > bound:
                    bound = times[idx]
            firsts.append(first)
        if bound is None:
            return start, firsts
        start = math.inf
        for times, _, _ in parts:
            k = bisect_left(times, bound)
            while times[k - 1] > floor and bound <= times[k - 1] + _EPS:
                k -= 1
            if k < len(times) and times[k] < start:
                start = times[k]


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
    """Piecewise-constant free count of one resource on ``[origin, +inf)``."""

    def __init__(self, total_processors: int, origin: float = 0.0):
        if total_processors <= 0:
            raise ValueError("total_processors must be positive")
        _PROFILE_BUILDS.inc()
        self.total = total_processors
        self.origin = float(origin)
        # Parallel arrays: breakpoint times and the free count from that time on.
        self._times: List[float] = [float(origin)]
        self._free: List[int] = [total_processors]

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

    def earliest_start(self, processors: int, duration: float, earliest: float | None = None) -> float:
        """Earliest time >= ``earliest`` at which ``processors`` stay free for ``duration``."""
        if processors > self.total:
            raise ValueError(
                f"request for {processors} processors exceeds the machine size {self.total}"
            )
        first = max(earliest if earliest is not None else self.origin, self.origin)
        start = self._sweep(processors, first, duration)[0]
        if math.isinf(start):
            raise NoFeasibleStart(
                f"no feasible start found for {processors} processors x {duration}s "
                "(profile never frees enough capacity)"
            )
        return start

    def _sweep(self, processors: int, start: float, duration: float) -> Tuple[float, int]:
        """:func:`_fit` over this one step function alone, in the loop it reduces to:
        ``(start, the step holding it)``, ``start`` being ``inf`` when nothing ever fits."""
        times, free = self._times, self._free
        size, floor = len(times), start + _EPS
        first = bisect_right(times, floor) - 1
        while True:
            horizon, idx = start + duration - _EPS, first
            while free[idx] >= processors:
                idx += 1
                if idx == size or times[idx] >= horizon:
                    return start, first
            while free[idx] < processors:
                idx += 1
                if idx == size:
                    return math.inf, first
            bound = times[idx]
            while times[idx - 1] > floor and bound <= times[idx - 1] + _EPS:
                idx -= 1
            start = times[idx]
            first = bisect_right(times, start + _EPS) - 1

    # -- mutation ----------------------------------------------------------
    def _window(self, start: float, duration: float, needed: int = 0, first: int | None = None) -> Tuple:
        """Locate ``[start, start+duration)`` and check it, modifying nothing.

        Returns the steps ``[first, stop)`` it covers and the two times at which
        a breakpoint is still missing (``None`` where one exists within ``eps``),
        ready for :meth:`_debit`; raises if a step has fewer than ``needed`` free.
        ``first`` is given for a start the sweep found (at or after the origin):
        the step holding it, which is then not looked up again.
        """
        times, free = self._times, self._free
        lo, end = start, start + duration
        if first is None:
            lo, end = max(lo, self.origin), max(end, self.origin)
            first = bisect_right(times, lo + _EPS) - 1
        last = bisect_right(times, end + _EPS, first) - 1
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

    def _debit(self, window: Tuple, processors: int, clip: bool = False) -> None:
        """Insert the breakpoints :meth:`_window` found missing, then subtract
        ``processors`` over the window's steps (``clip``: at most down to zero)."""
        first, stop, lo, end = window
        times, free = self._times, self._free
        if end is not None:
            times.insert(stop, end)
            free.insert(stop, free[stop - 1])
        if lo is not None:
            first, stop = first + 1, stop + 1
            times.insert(first, lo)
            free.insert(first, free[first - 1])
        debited = [f - processors for f in free[first:stop]]
        free[first:stop] = [max(f, 0) for f in debited] if clip else debited

    def reserve(self, start: float, duration: float, processors: int) -> None:
        """Subtract ``processors`` over ``[start, start+duration)``; all or nothing."""
        if processors <= 0:
            raise ValueError("processors must be positive")
        if duration > 0:
            self._debit(self._window(start, duration, processors), processors)

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
        if duration > 0:
            self._debit(self._window(start, duration), processors, clip=True)

    def copy(self) -> "ResourceProfile":
        """An independent clone (two list copies; not counted as a build)."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._times, clone._free = self._times[:], self._free[:]
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResourceProfile(total={self.total}, steps={len(self._times)})"


class ReservationProfile:
    """For every node group, a :class:`ResourceProfile` per resource it has (a cpu-only
    group pays one step function's cost); amounts are ``(cpus, memory, gpus)``.

    A start fits a group where every requested resource stays free for the
    whole duration.  Start-time ties between groups break in the *caller's*
    group order (the allocator's eligibility order), which keeps planning
    deterministic and consistent with live placement.
    """

    def __init__(self, topology: ClusterTopology, origin: float = 0.0):
        self.origin = float(origin)
        # group -> (capacity amounts, [(resource index, step function)]).
        self._groups: Dict[str, Tuple[Tuple[int, ...], List[Tuple[int, ResourceProfile]]]] = {}
        for group in topology.groups:
            capacity = group.capacity.amounts
            parts = [(i, ResourceProfile(total, origin)) for i, total in enumerate(capacity) if total > 0]
            self._groups[group.name] = (capacity, parts)

    @classmethod
    def from_releases(
        cls, topology: ClusterTopology, now: float, grants: Iterable[tuple]
    ) -> Optional["ReservationProfile"]:
        """Each ``(group, estimated_end, amounts)`` grant reserved from ``now`` until
        ``max(end, now + 1)``, written down directly when the order cannot matter.

        Sorts the clamped ends and releases cumulatively -- one pass per step
        function instead of one ``reserve`` per grant.  ``reserve`` merges an end
        into a breakpoint within ``eps`` of it, so where two *distinct* ends lie
        that close the one reserved first is the float that stays: the answer is
        then ``None`` and the caller reserves one by one in the order it means
        (:meth:`from_running_jobs`).
        """
        floor = now + 1.0
        # ``reserve`` places an end at ``start + duration``: the same arithmetic here.
        ends = sorted([(now + (max(end, floor) - now), group, amounts) for group, end, amounts in grants])
        profile = cls.__new__(cls)
        profile.origin, profile._groups = float(now), {}
        for group in topology.groups:
            capacity, parts = group.capacity.amounts, []
            for i, total in enumerate(capacity):
                if total <= 0:
                    continue
                pairs = [
                    (end, amounts[i]) for end, name, amounts in ends if name == group.name and amounts[i] > 0
                ]
                held = sum(map(itemgetter(1), pairs))
                if held > total:
                    return None  # over-subscribed: the reserve that finds it raises
                times: List[float] = []
                gains: List[int] = []
                for end, share in pairs:
                    if times and end - times[-1] <= _MERGE_BAND:
                        if end != times[-1]:
                            return None
                        gains[-1] += share
                    elif end < math.inf:  # held forever: never released, so no step
                        times.append(end)
                        gains.append(share)
                part = ResourceProfile(total, origin=now)
                part._times += times
                part._free = list(accumulate(gains, initial=total - held))
                parts.append((i, part))
            profile._groups[group.name] = (capacity, parts)
        return profile

    @classmethod
    def from_running_jobs(
        cls, topology: ClusterTopology, now: float, grants: Iterable[tuple]
    ) -> "ReservationProfile":
        """:meth:`from_releases` one ``reserve`` per grant, in the order given: where two
        ends lie within eps of each other, the one reserved first is the float that stays."""
        profile = cls(topology, origin=now)
        for group, end, amounts in grants:
            # A job whose estimate already elapsed still holds its processors;
            # the scheduler has no better information than "it will finish
            # very soon", so keep the processors held for at least one second
            # rather than pretending they are already free.
            profile.reserve(group, now, max(end, now + 1.0) - now, amounts)
        return profile

    def step_function(self) -> Optional[ResourceProfile]:
        """The one step function (one group's cpus) this profile is, or ``None``."""
        (_, parts), *others = self._groups.values()
        return parts[0][1] if not others and len(parts) == 1 else None

    def instants(self) -> Sequence[float]:
        """Every breakpoint time, ascending and distinct (read only)."""
        steps = [part._times for _, parts in self._groups.values() for _, part in parts]
        return steps[0] if len(steps) == 1 else sorted(set().union(*steps))

    def _parts(self, group: str, amounts: Sequence[int]) -> List[Tuple[int, ResourceProfile]]:
        """``group``'s step functions, once ``amounts`` is known to fit its capacity."""
        capacity, parts = self._groups[group]
        if amounts[0] > capacity[0] or amounts[1] > capacity[1] or amounts[2] > capacity[2]:
            raise ValueError(f"request {tuple(amounts)} exceeds group {group!r} capacity {capacity}")
        return parts

    @staticmethod
    def _claim(
        parts: list, firsts: Iterable, start: float, duration: float, amounts: Sequence[int], clip=False
    ) -> None:
        """Debit each step function its amount over the window: all or nothing, or ``clip``
        each at zero (a drain)."""
        if duration > 0:
            # Every step function is located and checked before any is debited.
            windows = [
                (part, part._window(start, duration, 0 if clip else amounts[i], first), amounts[i])
                for (i, part), first in zip(parts, firsts)
                if amounts[i] > 0
            ]
            for part, window, amount in windows:
                part._debit(window, amount, clip)

    def reserve(self, group: str, start: float, duration: float, amounts: Sequence[int]) -> None:
        """Subtract ``amounts`` from ``group`` over ``[start, start+duration)``; all or nothing."""
        self._claim(self._parts(group, amounts), repeat(None), start, duration, amounts)

    def drain(self, group: str, start: float, duration: float, amounts: Sequence[int]) -> None:
        """Subtract ``amounts`` from ``group`` over the window, clipping each at zero."""
        self._claim(self._groups[group][1], repeat(None), start, duration, amounts, clip=True)

    def copy(self) -> "ReservationProfile":
        """An independent clone (not counted as a build)."""
        clone = object.__new__(type(self))
        clone.origin = self.origin
        clone._groups = {
            name: (capacity, [(i, part.copy()) for i, part in parts])
            for name, (capacity, parts) in self._groups.items()
        }
        return clone

    def _earliest(
        self, amounts: Sequence[int], duration: float, groups: Sequence[str], first: float
    ) -> tuple:
        """The earliest ``(start, group)`` at or after ``first``, with the group's step
        functions and the step of each that holds the start."""
        best: Optional[tuple] = None
        for name in groups:
            capacity, parts = self._groups[name]  # ``_parts``, inline: this is the planning loop
            if amounts[0] > capacity[0] or amounts[1] > capacity[1] or amounts[2] > capacity[2]:
                self._parts(name, amounts)  # raises
            if len(parts) == 1:  # one step function, the group's cpus: the loop the sweep reduces to
                start, step = parts[0][1]._sweep(amounts[0], first, duration)
                firsts: Sequence[int] = (step,)
            else:
                start, firsts = _fit([(p._times, p._free, amounts[i]) for i, p in parts], first, duration)
            if best is None or start < best[0] - _EPS:
                best = (start, name, parts, firsts)
        if best is None or math.isinf(best[0]):
            raise NoFeasibleStart(
                f"no feasible start found for {tuple(amounts)} x {duration}s in groups {tuple(groups)}"
            )
        return best

    def reserve_earliest(
        self, amounts: Sequence[int], duration: float, groups: Sequence[str], latest: float = math.inf
    ) -> Tuple[float, str]:
        """The earliest ``(start, group)`` among ``groups`` holding ``amounts`` free for
        ``duration``, reserved there unless the start is past ``latest``; raises
        :class:`NoFeasibleStart` where none ever does.

        Each step function's reservation starts from the step the sweep found
        the start in instead of looking it up again.
        """
        start, name, parts, firsts = self._earliest(amounts, duration, groups, self.origin)
        if start > latest or duration <= 0:
            return start, name
        if len(parts) == 1:  # one step function, the group's cpus: nothing else to check first
            cpus = parts[0][1]
            cpus._debit(cpus._window(start, duration, amounts[0], firsts[0]), amounts[0])
        else:
            self._claim(parts, firsts, start, duration, amounts)
        return start, name

