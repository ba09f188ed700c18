"""Conservative fast path: one-sweep profiles, one base plan per instant, kept plans.

The strategy plans with a one-sweep ``earliest_start``, one base profile per
decision cloned for every trial and trial replans that stop at the first
delayed job, and it answers from the baseline plan where the plan decides
(rules (A), (R), (C) of ``conservative.py``).  That none of it moves a
schedule is pinned by the golden decision streams (``tests/golden/``); the
tests here pin the profile properties, the rules and what a kept plan
survives.  ``_Instrumented`` below counts which rule
answered and, in its checking mode, also runs every trial a rule skipped and
plans from scratch beside every plan taken over.
"""

from __future__ import annotations

import collections
import copy
import math
import pickle
from functools import partial
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import DowntimeWindow, Machine
from repro.cluster.resources import ClusterTopology, NodeGroup, ResourceVector
from repro.prediction.predictors import NoisyPrediction, UserEstimate
from repro.scheduler.backfill import (
    ConservativeBackfill,
    NoFeasibleStart,
    ResourceProfile,
)
from repro.scheduler.backfill.base import BackfillStrategy
from repro.scheduler.backfill.profile import ReservationProfile, clear_of
from repro.scheduler.events import DecisionPoint
from repro.scheduler.simulator import Simulator
from repro.workloads.job import Job
from tests.golden.corpus import DRAINED_GROUP, FirstAsks, trace
from tests.golden.corpus import TOPOLOGIES as _TOPOLOGIES

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
def _step_lists(draw, total, origins=_ORIGINS):
    """``(times, free)`` set directly, so breakpoints may sit closer than ``eps``."""
    origin = draw(origins)
    gaps = draw(st.lists(_GAPS, min_size=0, max_size=12))
    times = [origin]
    for gap in gaps:
        if times[-1] + gap > times[-1]:
            times.append(times[-1] + gap)
    # 0 is a fully drained step; ``total`` a free one.
    free = draw(st.lists(st.integers(0, total), min_size=len(times), max_size=len(times)))
    return times, free


def _from_steps(total, times, free):
    profile = ResourceProfile(total, origin=times[0])
    profile._times, profile._free = list(times), list(free)
    return profile


def _scalar_layout(total, times, free):
    """The scalar machine's profile -- one group, its cpus -- on ``(times, free)``."""
    profile = ReservationProfile(ClusterTopology.homogeneous(total), origin=times[0])
    cpus = profile.step_function()
    cpus._times, cpus._free = list(times), list(free)
    return profile


@st.composite
def _earliest(draw, times):
    if draw(st.booleans()):
        return None
    anchor = draw(st.sampled_from(times))
    return anchor + draw(st.sampled_from([-5.0, -8e-10, 0.0, 4e-10, 1.1e-9, 0.3, 12.0]))


def _check_earliest_start(data, origin, earliest_start, times, frees):
    """``earliest_start(duration, earliest)`` is the definition: the first of
    ``earliest`` and the later breakpoints (more than eps after it) whose window
    ``frees(start, end)`` says keeps the request free; infeasible where none does."""
    duration = data.draw(_DURATIONS)
    earliest = data.draw(_earliest(times))
    first = origin if earliest is None else max(earliest, origin)
    for start in [first, *sorted({t for t in times if t > first + 1e-9})]:
        if frees(start, start + duration):
            assert earliest_start(duration, earliest) == start
            return
    with pytest.raises(NoFeasibleStart):
        earliest_start(duration, earliest)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_scalar_earliest_start_matches_oracle_on_raw_steps(data):
    """The oracle is the definition, a scan of every breakpoint; breakpoints may
    sit closer than eps, where the sweep walks back to the first of them."""
    times, free = data.draw(_step_lists(16))
    profile = _from_steps(16, times, free)
    processors = data.draw(st.integers(1, 16))
    _check_earliest_start(
        data, profile.origin, partial(profile.earliest_start, processors), times,
        lambda t, end: profile.min_free_between(t, end) >= processors,
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
    """Breakpoints placed (and merged within eps) by reserve/drain, then the same
    definition of the earliest start."""
    profile = ResourceProfile(16, origin=origin)
    _apply(profile, ops, origin)
    processors = data.draw(st.integers(1, 16))
    _check_earliest_start(
        data, profile.origin, partial(profile.earliest_start, processors),
        [t for t, _ in profile.steps()],
        lambda t, end: profile.min_free_between(t, end) >= processors,
    )


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_reserve_earliest_is_earliest_start_then_reserve(data):
    """On the scalar machine's layout the fused step leaves the floats and steps of
    the two calls it replaces, and reserves nothing when the start it found is past
    ``latest``."""
    total = 16
    times, free = data.draw(_step_lists(total))
    fused = _scalar_layout(total, times, free)
    apart = _from_steps(total, times, free)
    for _ in range(data.draw(st.integers(1, 4))):
        processors = data.draw(st.integers(1, total))
        duration = data.draw(_DURATIONS)
        ask = partial(fused.reserve_earliest, (processors, 0, 0), duration, ["all"])
        try:
            start = apart.earliest_start(processors, duration)
        except NoFeasibleStart:
            with pytest.raises(NoFeasibleStart):
                ask()
            continue
        latest = data.draw(st.sampled_from([math.inf, start, start - 1.0]))
        before = apart.steps()
        try:
            if start <= latest:
                apart.reserve(start, duration, processors)
        except RuntimeError:  # breakpoints within eps of the end: both must refuse, untouched
            with pytest.raises(RuntimeError, match="over-subscribed"):
                ask(latest)
            assert fused.step_function().steps() == before
            continue
        assert ask(latest) == (start, "all")
        assert fused.step_function().steps() == apart.steps()


def test_a_start_the_sweep_finds_is_reservable_at_the_eps_boundary():
    """The job ends a float hair over eps after a breakpoint the sweep ends its
    window at (a whole conservative run raised ``over-subscribed`` here)."""
    profile = _scalar_layout(32, [5533.625000001, 5563.625000001, 5963.625000001], [15, 2, 32])
    assert profile.reserve_earliest((13, 0, 0), 30.000000001, ["all"]) == (5533.625000001, "all")
    assert [free for _, free in profile.step_function().steps()] == [2, 2, 32]


#: One group with every resource: a step function each.
_GROUP = ClusterTopology((NodeGroup("g", cpus=16, memory=64, gpus=4),))
_VECTORS = st.builds(
    ResourceVector, cpus=st.integers(1, 16), memory=st.integers(0, 64), gpus=st.integers(0, 4)
)


def _parts(profile, group="g"):
    """``group``'s step functions by resource index."""
    return dict(profile._groups[group][1])


def _earliest_in(profile, amounts, duration, groups, earliest=None):
    """The earliest ``(start, group)`` at or after ``earliest``: the sweep
    ``reserve_earliest`` reserves at, without reserving."""
    first = profile.origin if earliest is None else max(earliest, profile.origin)
    return profile._earliest(amounts, duration, groups, first)[:2]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_vector_earliest_start_matches_oracle_on_raw_steps(data):
    """The same definition on a group's step functions with their own breakpoints,
    some within eps of each other."""
    origin = data.draw(_ORIGINS)
    profile = ReservationProfile(_GROUP, origin=origin)
    every_time = [origin]
    for i, part in _parts(profile).items():
        times, free = data.draw(_step_lists(part.total, st.just(origin)))
        part._times, part._free = times, free
        every_time.extend(times)
    amounts = data.draw(_VECTORS).amounts
    _check_earliest_start(
        data, origin, lambda d, e: _earliest_in(profile, amounts, d, ["g"], e)[0], every_time,
        lambda t, end: all(
            part.min_free_between(t, end) >= amounts[i] for i, part in _parts(profile).items()
        ),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_group_reserve_earliest_is_earliest_start_then_reserve(data):
    """The steps the sweep stopped at reserve every step function of the group it
    chose, as a second lookup would: the same floats and steps, or the same refusal."""
    topology = ClusterTopology((*_GROUP.groups, NodeGroup("h", cpus=16)))
    origin = data.draw(_ORIGINS)
    fused, apart = ReservationProfile(topology, origin), ReservationProfile(topology, origin)
    for group in ("g", "h"):
        for i, part in _parts(fused, group).items():
            times, free = data.draw(_step_lists(part.total, st.just(origin)))
            part._times, part._free = times, free
            _parts(apart, group)[i]._times, _parts(apart, group)[i]._free = times[:], free[:]
    for _ in range(data.draw(st.integers(1, 3))):
        amounts, duration = data.draw(_VECTORS).amounts, data.draw(_DURATIONS)
        groups = data.draw(st.sampled_from([["g"], ["h", "g"], ["g", "h"]]))
        if amounts[1] or amounts[2]:
            groups = ["g"]
        try:
            start, group = _earliest_in(apart, amounts, duration, groups)
        except NoFeasibleStart:
            with pytest.raises(NoFeasibleStart):
                fused.reserve_earliest(amounts, duration, groups)
            continue
        before = _steps(apart)
        try:
            apart.reserve(group, start, duration, amounts)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="over-subscribed"):
                fused.reserve_earliest(amounts, duration, groups)
            assert _steps(fused) == before
            continue
        assert fused.reserve_earliest(amounts, duration, groups) == (start, group)
        assert _steps(fused) == _steps(apart)


def test_a_breakpoint_within_eps_before_a_shortage_ends_is_the_earliest_start():
    """Looked up at ``t + eps`` the window from ``t`` already sees the freed step:
    the sweeps walk back to ``t`` instead of starting where the shortage ends."""
    t = 10.0 - 5e-10
    assert _from_steps(16, [0.0, t, 10.0], [4, 4, 16]).earliest_start(8, 5.0) == t
    vector = ReservationProfile(_GROUP)
    cpus, memory, _ = _parts(vector).values()
    cpus._times, cpus._free = [0.0, 10.0], [4, 16]
    memory._times, memory._free = [0.0, t], [64, 64]
    assert _earliest_in(vector, (8, 0, 0), 5.0, ["g"]) == (t, "g")


def test_earliest_start_infeasible_is_typed_and_only_that_is_skipped():
    profile = ResourceProfile(8)
    profile.drain(0.0, math.inf, 6)
    with pytest.raises(NoFeasibleStart):
        profile.earliest_start(4, 10.0)
    topology = ClusterTopology((NodeGroup("a", cpus=8), NodeGroup("b", cpus=8, memory=8)))
    groups = ReservationProfile(topology)
    groups.drain("a", 0.0, math.inf, (6, 0, 0))
    # Group "a" never frees 4 cpus: skipped, "b" answers.
    assert _earliest_in(groups, (4, 0, 0), 10.0, ["a", "b"]) == (0.0, "b")
    with pytest.raises(NoFeasibleStart):
        groups.reserve_earliest((4, 0, 0), 10.0, ["a"])
    # Group "a" has no memory at all: that is a wrong request, not an infeasibility.
    with pytest.raises(ValueError, match="exceeds group 'a'"):
        groups.reserve_earliest((4, 1, 0), 10.0, ["a", "b"])


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
    """A half-applied reserve would have decremented the steps before the offending one."""
    profile = ResourceProfile(10)
    profile.reserve(50.0, 10.0, 8)
    before = profile.steps()
    with pytest.raises(RuntimeError, match="over-subscribed"):
        profile.reserve(20.0, 60.0, 5)
    assert profile.steps() == before


def test_raised_vector_reserve_debits_no_component():
    profile = ReservationProfile(ClusterTopology((NodeGroup("g", cpus=8, memory=32),)))
    profile.reserve("g", 0.0, 100.0, (2, 30, 0))
    before = _steps(profile)
    with pytest.raises(RuntimeError, match="over-subscribed"):  # cpus fit, memory does not
        profile.reserve("g", 10.0, 50.0, (4, 8, 0))
    assert _steps(profile) == before


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
    groups = ReservationProfile(topology, origin=origin)
    groups.reserve("a", origin + 5.0, 20.0, (4, 16, 0))
    snapshot = _steps(groups)
    twin = groups.copy()
    twin.reserve("a", origin, 100.0, (8, 8, 0))
    twin.drain("b", origin, math.inf, (8, 0, 0))
    assert _steps(groups) == snapshot
    assert _parts(twin, "a")[1].free_at(origin + 6.0) == 64 - 16 - 8


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
        ReservationProfile(ClusterTopology.homogeneous(8)).copy()
        assert counter.value == built + 1  # the one step function of the one group
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
    """On the scalar machine's layout: one group, its cpus."""
    machine = ClusterTopology.homogeneous(32)
    running = [("all", now + offset, (processors, 0, 0)) for offset, processors in running]
    try:
        expected = ReservationProfile.from_running_jobs(machine, now, running)
    except RuntimeError:  # over-subscribed: the direct form leaves the raising to ``reserve``
        assert ReservationProfile.from_releases(machine, now, running) is None
        return
    direct = ReservationProfile.from_releases(machine, now, running)
    ends = sorted({now + (max(end, now + 1.0) - now) for _, end, _ in running})
    close = any(later - sooner <= 4e-9 for sooner, later in zip(ends, ends[1:]))
    # ``None`` only where two distinct ends could merge, and always in every order otherwise.
    assert (direct is None) <= close
    if direct is not None:
        assert _steps(direct) == _steps(expected)
        assert _steps(ReservationProfile.from_releases(machine, now, running[::-1])) == _steps(expected)
        assert direct.origin == expected.origin and direct.step_function().total == 32


@settings(max_examples=200, deadline=None)
@given(
    now=_ORIGINS,
    grants=st.lists(st.tuples(st.sampled_from(["cpu", "gpu"]), _ENDS, _VECTORS), max_size=8),
)
def test_group_from_releases_is_one_reserve_per_grant_or_stands_back(now, grants):
    topology = _TOPOLOGIES["resources"]
    grants = [
        (group, now + offset, vector.amounts)
        for group, offset, vector in grants
        if vector.fits_in(topology.group(group).capacity)
    ]
    try:
        expected = ReservationProfile.from_running_jobs(topology, now, grants)
    except RuntimeError:
        assert ReservationProfile.from_releases(topology, now, grants) is None
        return
    direct = ReservationProfile.from_releases(topology, now, grants)
    if direct is not None:
        assert _steps(direct) == _steps(expected) and direct.origin == expected.origin
        assert direct._groups["gpu"][0] == expected._groups["gpu"][0] == (12, 96, 4)


def test_the_scalar_machine_answers_as_its_one_group_layout():
    """What conservative plans from -- held grants, drains ahead, a job's need and
    eligible groups, where a job would be placed now, where a running job is --
    is the same on the scalar machine and on the one-group cpu-only topology."""
    estimator = FirstAsks()
    jobs = [Job(job_id=i, submit_time=0.0, runtime=10.0 * i, requested_processors=3 * i,
                requested_time=12.0 * i) for i in range(1, 6)]
    answers = []
    for topology in (None, ClusterTopology.homogeneous(32)):
        machine = Machine(32, capacity_schedule=[DowntimeWindow(5.0, 50.0, 40)], topology=topology)
        for job in jobs[:3]:
            machine.start(job, now=0.0)
        machine.advance_to(2.0)
        needs = [machine.job_need(job) for job in jobs]
        answers.append((
            [(group.name, group.capacity) for group in machine.layout.groups],
            machine.held_grants(estimator), machine.held_grants(estimator, by_end=True),
            machine.capacity_drains(2.0),
            [(request.amounts, [group.name for group in eligible]) for request, eligible in needs],
            [machine.placement_group(job) for job in jobs],
            [machine.running_group(job.job_id) for job in jobs],
        ))
    assert answers[0] == answers[1]
    assert answers[0][5] == ["all", "all", "all", "all", None]  # 14 of 32 cpus free: 15 do not fit
    assert answers[0][3] == [(5.0, 50.0, "all", (32, 0, 0))]  # an oversized drain takes the group


# -- (ii) select_backfill: same job at every decision of a simulation ----------


def _steps(profile) -> object:
    """Every breakpoint of every group's step functions."""
    return {
        (group, i): part.steps()
        for group, (_, parts) in profile._groups.items()
        for i, part in parts
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

    def _from_scratch(self, decision, estimator, queue):
        self.plans[id(decision.machine), decision.time] += 1
        return super()._from_scratch(decision, estimator, queue)

    def _untried(self, plan, now, need, placed, group, graceful):
        self._verdict = verdict = super()._untried(plan, now, need, placed, group, graceful)
        if verdict is not None:
            self.tally["A" if verdict else "R"] += 1
        return None if self.check else verdict

    def _trial(self, plan, now, candidate, need, group, graceful):
        tried = super()._trial(plan, now, candidate, need, group, graceful)
        if self._verdict is None:
            self.tally["trial"] += 1
            end, cpus = now + need.duration, plan.base.step_function()
            clips = graceful and (
                cpus is None or cpus.min_free_between(now, end) < need.amounts[0]
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
            fresh = super()._from_scratch(decision, estimator, queue)
            assert _steps(plan.base) == _steps(fresh.base)
            assert _steps(plan.planned) == _steps(fresh.planned)
            assert (plan.queue, plan.placed) == (fresh.queue, fresh.placed)
            assert all(plan.needs[job.job_id] == fresh.needs[job.job_id] for job in queue)
            assert (plan.instants is None) == (fresh.instants is None)
        return plan


class _Paired(BackfillStrategy):
    """Asks the strategy twice at every decision point: reversed lists, then as given."""

    name = "paired"

    def __init__(self, check: bool = False, **kwargs):
        self.fast = _Instrumented(check=check, **kwargs)
        self.decisions = 0
        self.accepted = 0

    def on_sequence_start(self):
        self.fast.on_sequence_start()

    def select_backfill(self, decision, estimator):
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
        expected = self.fast.select_backfill(shuffled, estimator)
        before = self.fast.tally["C"]
        chosen = self.fast.select_backfill(decision, estimator)
        assert chosen is expected and self.fast.tally["C"] == before
        self.decisions += 1
        self.accepted += chosen is not None
        return chosen


@st.composite
def _workloads(draw, topology_name):
    """A contended job sequence for the 32-cpu machine of ``topology_name`` (the
    golden corpus's generator at a drawn seed: whole or fractional times), and
    maybe a drain."""
    fractional, seed = draw(st.booleans()), draw(st.integers(0, 2**32 - 1))
    jobs = trace(topology_name, fractional, seed, count=draw(st.integers(8, 28)))
    windows = None
    if draw(st.booleans()):
        start = draw(st.sampled_from([0.0, 10.0, 60.0]))
        windows = [
            DowntimeWindow(
                start=start,
                end=start + draw(st.sampled_from([30.0, 200.0, 5000.0])),
                # Up to 8 leaves room beside the running jobs; more clips a candidate's claim.
                processors=draw(st.sampled_from([1, 3, 8, 14, 24])),
                group=DRAINED_GROUP[topology_name],
            )
        ]
    return jobs, _TOPOLOGIES[topology_name], windows


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
    """In checking mode every skipped trial is run and every plan taken over is
    compared with a plan from scratch; either way, reversed lists answer alike."""
    jobs, topology, windows = data.draw(_workloads(topology_name))
    paired = _Paired(check=check, **knobs)
    result = Simulator(
        32,
        backfill=paired,
        estimator=UserEstimate(),
        capacity_schedule=windows,
        topology=topology,
    ).run(jobs)
    assert len(result.records) == len(jobs)
    if topology is not None and len(topology.groups) > 1:
        assert paired.fast.tally["R"] == 0  # a displaced job may land in another group


def _contended_jobs() -> List[Job]:
    return [
        Job(job_id=i, submit_time=float(i // 3), runtime=(20.0, 150.0, 7.0)[i % 3],
            requested_processors=(6, 20, 3, 12)[i % 4], requested_time=(40.0, 150.0, 30.0)[i % 3])
        for i in range(1, 41)
    ]


def _paired_contended_run(check: bool, topology: ClusterTopology | None = None) -> _Paired:
    paired = _Paired(check=check)
    Simulator(
        32, backfill=paired, estimator=UserEstimate(),
        capacity_schedule=[DowntimeWindow(start=30.0, end=400.0, processors=8)],
        topology=topology,
    ).run(_contended_jobs())
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


def test_paired_run_cross_checked_on_one_group():
    """The one-group cpu-only topology plans on the same one step function as the
    scalar machine, so (R) answers there too -- and agrees with every trial it skips."""
    _paired_contended_run(check=True, topology=ClusterTopology.homogeneous(32))


def test_one_baseline_plan_per_instant():
    """Alone (no second call per decision), a spaced scalar run plans once per instant."""
    fast = _Instrumented()
    result = Simulator(
        32, backfill=fast, estimator=UserEstimate(),
        capacity_schedule=[DowntimeWindow(start=30.0, end=400.0, processors=8)],
    ).run(_contended_jobs())
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
    expected = ConservativeBackfill().select_backfill(point(rest), estimator)
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
        expected = ConservativeBackfill().select_backfill(following, asked)
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
    expected = ConservativeBackfill().select_backfill(following, estimator)
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


# -- (iii) a stateful estimator is asked in the textbook order (golden: whole runs)


class _Fresh(ConservativeBackfill):
    """Starts afresh at every decision point: nothing is carried between calls."""

    def select_backfill(self, decision, estimator):
        self.on_sequence_start()
        return super().select_backfill(decision, estimator)


@pytest.mark.parametrize("topology_name", ["scalar", "partitions"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), knobs=_KNOBS, seed=st.integers(0, 5))
def test_noisy_estimator_cache_fills_in_the_same_order(topology_name, data, knobs, seed):
    """Nothing of a stateful estimator is kept: one strategy for the whole run draws
    and schedules as a new strategy per decision does."""
    jobs, topology, windows = data.draw(_workloads(topology_name))
    runs = []
    for strategy in (ConservativeBackfill(**knobs), _Fresh(**knobs)):
        estimator = NoisyPrediction(0.4, seed=seed)
        result = Simulator(
            32, backfill=strategy, estimator=estimator,
            capacity_schedule=windows, topology=topology,
        ).run(jobs)
        runs.append((list(estimator._cache.items()), result.records))
        assert strategy._kept is None and not strategy._needs_memo
    assert runs[0] == runs[1]


@pytest.mark.parametrize("order", ["fcfs", "sjf"])
def test_first_ask_order_on_a_fresh_estimator(order):
    """Running jobs by true end time, the queue in plan order, then the candidate sort
    (the order the textbook replan asks in)."""

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

    asks, chosen = {"fcfs": ([8, 9, 1, 2], 2), "sjf": ([8, 9, 1, 2, 3, 4, 5], 5)}[order]
    estimator = FirstAsks()
    backfill = ConservativeBackfill(order=order, reservation_depth=2)
    assert backfill.select_backfill(decision_point(), estimator).job_id == chosen
    assert estimator.order == asks
    assert not backfill._needs_memo and backfill._kept is None
