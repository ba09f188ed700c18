"""Machine model: the busy-processor count plus the set of currently running jobs.

The scheduler simulator interacts with the cluster exclusively through this
class: start a job, ask which running job finishes next, release completed
jobs, and query availability.  Completion always uses the job's *actual*
runtime; runtime estimates only influence reservations and backfilling
decisions, never the physics of the simulated machine.

**Capacity schedule.**  A machine can carry a schedule of
:class:`DowntimeWindow` entries -- maintenance drains during which some
processors are out of service.  Drains are *graceful*: jobs already running
keep their processors until they finish, but no new job may start if doing so
would push the busy count above the effective capacity
``total - drained(now)``.  Every availability query (``free_processors``,
``free_fraction``, :meth:`can_start`, :meth:`reservation`) is
evaluated against the effective capacity at the machine's current simulated
time, so schedulers -- and the RL observation encoder, which reads
``free_fraction`` and the reservation features off the machine -- see the
capacity loss the moment a window opens.  Utilization accounting integrates
*busy* processors only, so a drained machine correctly reports reduced
utilization against its full nameplate capacity.

Starting and releasing a job moves one int, the busy count, on every layout
(a node-group machine's allocator books the placement beside it, as int
triples), and a running job is one slotted :class:`RunningJob` whose end time
is worked out once.  Internal caches keep the hot simulator loop cheap without
changing any observable behaviour (the heterogeneous ones -- per-job needs,
the drain-adjusted free snapshot -- are specified in docs/cluster.md):

* completion queries go through a lazily-invalidated min-heap of
  ``(end_time, job_id)`` entries instead of scanning every running job,
* for a stateless estimator, the ``(estimated_end, processors, job_id)``
  release plan :meth:`Machine.reservation` walks is kept sorted by
  :meth:`Machine.start` and the releases, on both layouts; a stateful one's is
  memoized per (estimator, running-set version), so repeated backfilling
  decisions at one instant do not re-query the runtime estimator, and
* the drained count is worked out once per (instant, schedule tuple), and the
  window boundaries are sorted once per schedule tuple, so availability and
  next-event queries do not walk the capacity schedule.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.cluster.allocator import (
    Allocator,
    Amounts,
    GroupAllocation,
    job_request,
    make_allocator,
)
from repro.cluster.resources import ClusterTopology, NodeGroup, ResourceVector
from repro.workloads.job import Job

__all__ = ["RunningJob", "Machine", "DowntimeWindow", "SpareVectors"]

_EPS = 1e-9

#: The scalar machine's one group, as the census counts it (``eligible_positions``).
_ONE_GROUP = (0,)


def _clip(amounts: Amounts, drained: Optional[Amounts]) -> Amounts:
    """``amounts`` less ``drained``, each component clipped at zero (drain semantics)."""
    if drained is None:
        return amounts
    return (
        max(amounts[0] - drained[0], 0),
        max(amounts[1] - drained[1], 0),
        max(amounts[2] - drained[2], 0),
    )


@dataclass(frozen=True, slots=True)
class DowntimeWindow:
    """``processors`` processors are out of service over ``[start, end)``.

    Windows may overlap (their drained counts add up, clipped to the machine
    size) and are interpreted in simulation time -- the same clock job submit
    times use.  A window never preempts running jobs; it only caps how many
    processors new starts may occupy while it is active.

    ``group`` targets the drain at one node group of a heterogeneous machine
    (see docs/cluster.md).  Multi-group topologies require every window to be
    group-tagged; a one-group topology accepts untagged windows (they drain
    the only group there is), and scalar machines reject tags outright.
    """

    start: float
    end: float
    processors: int
    group: Optional[str] = None

    def __post_init__(self) -> None:
        if self.processors <= 0:
            raise ValueError(f"downtime window must drain a positive processor count, got {self.processors}")
        if not self.end > self.start:
            raise ValueError(f"downtime window must have end > start, got [{self.start}, {self.end})")
        if self.start < 0:
            raise ValueError(f"downtime window cannot start before t=0, got {self.start}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def active_at(self, time: float) -> bool:
        """Whether the window is draining processors at ``time`` (half-open)."""
        return self.start - _EPS <= time < self.end - _EPS


class RunningJob:
    """A job currently executing on the machine.

    ``processors`` is the width the job holds.  ``runtime_override`` replaces
    the job's actual runtime for this run -- the checkpoint-credit restart
    policy uses it to run only the *remaining* runtime after a preemption (see
    :mod:`repro.faults`).  ``None`` (the default, and the only value a first
    start ever uses) means the job runs its full actual runtime.
    ``end_time``, the true completion time, is worked out once at start:
    ``start_time`` plus the run's runtime.
    """

    __slots__ = ("job", "start_time", "processors", "runtime_override", "end_time")

    def __init__(
        self, job: Job, start_time: float, processors: int, runtime_override: Optional[float] = None
    ):
        self.job = job
        self.start_time = start_time
        self.processors = processors
        self.runtime_override = runtime_override
        self.end_time = start_time + (job.runtime if runtime_override is None else runtime_override)

    def estimated_end_time(self, estimator: Callable[[Job], float]) -> float:
        """Completion time as believed by the scheduler under ``estimator``:
        the start time plus the estimate, never taken below zero.  Callers
        clamp it to their ``now``, so a job that has overrun its estimate is
        planned to release at ``now`` at the earliest, never in the past."""
        return self.start_time + max(float(estimator(self.job)), 0.0)


class SpareVectors(Mapping):
    """A node-group reservation's ``spare_vectors``: what each group has left
    beside the reserved job, in declaration order.

    Kept as ``(cpus, memory, gpus)`` rows (``rows``, read only) and read as a
    :class:`ResourceVector` per group, built on the first read of that group:
    most readers (:meth:`Machine.fits_beside`) compare the rows and never ask.
    """

    __slots__ = ("rows", "_vectors")

    def __init__(self, rows: Dict[str, Amounts]):
        self.rows = rows
        self._vectors: Dict[str, ResourceVector] = {}

    def __getitem__(self, name: str) -> ResourceVector:
        vector = self._vectors.get(name)
        if vector is None:
            vector = self._vectors[name] = ResourceVector(*self.rows[name])
        return vector

    def __iter__(self) -> Iterator[str]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"SpareVectors({dict(self.items())!r})"


class _ScheduleFacts(NamedTuple):
    """What one ``capacity_schedule`` tuple implies, derived once per tuple
    (it is replaced, never edited)."""

    schedule: Tuple[DowntimeWindow, ...]
    #: ``(window, group name, drained (cpus, memory, gpus))`` per window, in schedule order.
    drains: List[Tuple[DowntimeWindow, str, Amounts]]
    #: The instants at which the active set changes (boundaries less ``_EPS``), sorted.
    edges: List[float]
    #: Every window boundary (start and end), sorted.
    boundaries: List[float]


class Machine:
    """Cluster with running-job bookkeeping and utilization accounting."""

    def __init__(
        self,
        num_processors: int,
        capacity_schedule: Sequence[DowntimeWindow] | None = None,
        topology: ClusterTopology | None = None,
        allocator: str | Allocator = "first_fit",
    ):
        if num_processors <= 0:
            raise ValueError(f"cluster must have a positive number of processors, got {num_processors}")
        self.num_processors = num_processors
        #: Processors held by running jobs: the one count every start and
        #: release moves, on both layouts.
        self._used = 0
        #: Heterogeneous topology, or ``None`` for the scalar machine.  Every
        #: hetero branch below is guarded on this so the scalar path performs
        #: exactly the pre-topology arithmetic.
        self.topology = topology
        #: The placement policy, or ``None`` on a scalar machine (read only).
        self.allocator: Optional[Allocator] = None
        #: Per running job: its allocator token and the ``(cpus, memory, gpus)`` it holds.
        self._grants: Dict[int, Tuple[GroupAllocation, Amounts]] = {}
        if topology is not None:
            if topology.total_cpus != num_processors:
                raise ValueError(
                    f"topology supplies {topology.total_cpus} cpus but the machine "
                    f"was sized at {num_processors}"
                )
            self.allocator = (
                allocator if isinstance(allocator, Allocator) else make_allocator(allocator, topology)
            )
        #: The node groups reservations are planned on: the scalar machine is one
        #: cpu-only group.
        self.layout = topology if topology is not None else ClusterTopology.homogeneous(num_processors)
        # Per group of ``layout``: whether it holds cpus only, so that a job's
        # width alone decides whether it fits there (``census_fits``).
        self._cpu_only: Tuple[bool, ...] = tuple(
            not group.memory and not group.gpus for group in self.layout.groups
        )
        self._capacity: Dict[str, Amounts] = {
            group.name: group.capacity.amounts for group in self.layout.groups
        }
        self._positions: Dict[str, int] = {
            group.name: position for position, group in enumerate(self.layout.groups)
        }
        #: Scheduled drains, sorted by start time; empty tuple = always full
        #: capacity (the default, and the zero-overhead fast path everywhere).
        self.capacity_schedule: Tuple[DowntimeWindow, ...] = tuple(
            sorted(capacity_schedule or (), key=lambda w: (w.start, w.end))
        )
        for window in self.capacity_schedule:
            self._validate_window(window)
        self._running: dict[int, RunningJob] = {}
        # Utilization accounting: integral of busy processors over time.
        self._busy_area = 0.0
        self._last_accounting_time = 0.0
        # Min-heap of (end_time, job_id); entries go stale on forced release
        # and are discarded lazily when they surface.
        self._completion_heap: List[Tuple[float, int]] = []
        # Version counter for the running set, bumped on every start/release;
        # keys the estimated-release-plan cache below.
        self._version = 0
        self._release_plan: Optional[Tuple[int, object, List[Tuple[float, int, int]]]] = None
        self._held_grants: Optional[Tuple[int, object, List[Tuple[str, float, tuple]]]] = None
        # The release plan, (estimated_end, processors, job_id) kept *sorted*,
        # valid only for a stateless estimator (one whose estimate is a pure
        # function of the job): entries are inserted at job start and removed
        # at release, so reservation queries skip the per-decision sort.  Both
        # walks read it: the scalar one the widths, the group one the grants.
        self._sorted_plan: Optional[List[Tuple[float, int, int]]] = None
        self._sorted_plan_estimator: Optional[object] = None
        self._sorted_plan_entries: Dict[int, Tuple[float, int, int]] = {}
        # Facts computed once at the scope where they are constant
        # (docs/cluster.md): per job, per instant, per schedule tuple.
        self._needs: Dict[int, tuple] = {}
        self._drained: Optional[Tuple[float, Tuple[DowntimeWindow, ...], int]] = None
        self._schedule_facts: Optional[_ScheduleFacts] = None
        # The drain-adjusted free (cpus, memory, gpus) per group of a
        # node-group machine, moved by the machine's own grants and releases
        # and rebuilt when its key goes stale: the allocator's books version
        # (a debit from outside), the schedule tuple, or the clock leaving the
        # span of edge instants over which ``_drain`` (the active drains per
        # group) holds.  Each update replaces the dict, never edits it.
        self._avail: Dict[str, Amounts] = {}
        self._avail_version: Optional[int] = None
        self._avail_schedule: Optional[Tuple[DowntimeWindow, ...]] = None
        self._span: Tuple[float, float] = (math.inf, -math.inf)
        self._drain: Dict[str, Amounts] = {}

    # -- properties -------------------------------------------------------
    @property
    def free_processors(self) -> int:
        """Processors a new job could occupy right now.

        With a capacity schedule this is the *effective* free count: idle
        processors minus those drained by the windows active at the machine's
        current simulated time (never negative -- a graceful drain that finds
        the machine busier than the remaining capacity simply blocks new
        starts until jobs finish).  On heterogeneous machines the clamp is
        per group: a deeply-drained group cannot borrow headroom from an
        undrained one.
        """
        if not self.capacity_schedule:
            return self.num_processors - self._used
        if self.allocator is not None:
            return sum(row[0] for row in self._free_rows().values())
        return max(self.num_processors - self._used - self.drained_processors(), 0)

    @property
    def free_fraction(self) -> float:
        """Fraction of the machine a new job could occupy (the observation
        feature in §3.2)."""
        return self.free_processors / self.num_processors

    @property
    def num_running(self) -> int:
        return len(self._running)

    @property
    def version(self) -> int:
        """Running-set version: moves by one at every start, every release (one
        for a whole :meth:`release_completed` batch) and every :meth:`reset`."""
        return self._version

    def can_start(self, job: Job) -> bool:
        if self.allocator is not None:
            entry = self._needs.get(job.job_id)  # ``_need``'s memo, read inline
            if entry is None or entry[0] is not job:
                entry = self._need(job)
            amounts = entry[2]
            return amounts[0] > 0 and (
                self.allocator.pick(amounts, self._free_rows(), entry[1][1]) is not None
            )
        return 0 < job.requested_processors <= self.free_processors

    # -- capacity schedule --------------------------------------------------
    @property
    def now(self) -> float:
        """The machine's current simulated time (last accounting instant)."""
        return self._last_accounting_time

    def advance_to(self, now: float) -> None:
        """Move the machine's clock forward to ``now`` without other effects.

        The simulator calls this once at sequence start so availability
        queries made before the first job starts already see the capacity
        windows active at the first submission instant.
        """
        if now > self._last_accounting_time:
            self._account(now)

    def drained_processors(self, time: float | None = None) -> int:
        """Processors out of service at ``time`` (default: the current clock).

        Worked out once per (instant, schedule tuple): every availability
        query at one instant reads the same count.
        """
        schedule = self.capacity_schedule
        if not schedule:
            return 0
        at = self._last_accounting_time if time is None else time
        memo = self._drained
        if memo is not None and memo[0] == at and memo[1] is schedule:
            return memo[2]
        drained = 0
        for window in schedule:
            if window.start - _EPS > at:
                break  # schedule is sorted by start; nothing later is active
            if window.active_at(at):
                drained += window.processors
        drained = min(drained, self.num_processors)
        self._drained = (at, schedule, drained)
        return drained

    def effective_capacity(self, time: float | None = None) -> int:
        """Processors in service at ``time``: ``total - drained``."""
        return self.num_processors - self.drained_processors(time)

    def next_capacity_event(self, now: float) -> Optional[float]:
        """Earliest window boundary (start or end) strictly after ``now``."""
        boundaries = self._window_facts().boundaries
        index = bisect_right(boundaries, now + _EPS)
        return boundaries[index] if index < len(boundaries) else None

    def _boundaries_after(self, now: float) -> List[float]:
        """Every window boundary strictly after ``now``, sorted."""
        boundaries = self._window_facts().boundaries
        return boundaries[bisect_right(boundaries, now + _EPS):]

    # -- heterogeneous topology ---------------------------------------------
    def _validate_window(self, window: DowntimeWindow) -> None:
        if self.topology is None:
            if window.group is not None:
                raise ValueError(
                    f"downtime window targets group {window.group!r} but the machine "
                    f"is homogeneous (no topology)"
                )
            return
        if window.group is None:
            if len(self.topology.groups) > 1:
                raise ValueError(
                    "downtime windows on a multi-group topology must name a group; "
                    f"have groups {self.topology.names}"
                )
            return
        self.topology.group(window.group)  # raises KeyError on unknown names

    def _window_drain(self, window: DowntimeWindow) -> Tuple[str, Amounts]:
        """The group a window drains and the ``(cpus, memory, gpus)`` it takes out of it.

        Nodes leave with their proportional share of the group's memory and
        GPUs (floor division -- draining half a group's cpus drains at most
        half its memory), clipped so an oversized window never exceeds the
        group.
        """
        layout = self.layout
        group = layout.groups[0] if window.group is None else layout.group(window.group)
        procs = min(window.processors, group.cpus)
        return group.name, (procs, group.memory * procs // group.cpus, group.gpus * procs // group.cpus)

    def _window_facts(self) -> _ScheduleFacts:
        """The current ``capacity_schedule`` tuple's facts, derived on first use."""
        facts = self._schedule_facts
        schedule = self.capacity_schedule
        if facts is None or facts.schedule is not schedule:
            boundaries = sorted(edge for window in schedule for edge in (window.start, window.end))
            facts = self._schedule_facts = _ScheduleFacts(
                schedule,
                [(window, *self._window_drain(window)) for window in schedule],
                [edge - _EPS for edge in boundaries],
                boundaries,
            )
        return facts

    def _drains_at(self, at: float) -> Dict[str, Amounts]:
        """Drained ``(cpus, memory, gpus)`` per group at instant ``at`` (capped
        at group capacity; groups with no active window are absent)."""
        drains: Dict[str, Amounts] = {}
        for window, name, amounts in self._window_facts().drains:
            if window.start - _EPS > at:
                break  # schedule is sorted by start; nothing later is active
            if window.active_at(at):
                held = drains.get(name)
                drains[name] = amounts if held is None else tuple(map(sum, zip(held, amounts)))
        for name, amounts in drains.items():
            drains[name] = tuple(map(min, amounts, self._capacity[name]))
        return drains

    def hetero_free_map(self, time: float | None = None) -> Dict[str, ResourceVector]:
        """Drain-adjusted free vector per group (hetero machines only).

        Each group's free vector is clipped independently: subtract the
        group's active drains from its free resources, never going negative.
        The result is the caller's own dict; an explicit ``time`` is always
        computed afresh, the current instant is read off the snapshot.
        """
        if self.allocator is None:
            raise RuntimeError("hetero_free_map requires a heterogeneous machine")
        if time is None:
            rows = self._free_rows()
        else:
            drains = self._drains_at(time)
            rows = {
                name: _clip(amounts, drains.get(name))
                for name, amounts in self.allocator.books().items()
            }
        return {name: ResourceVector(*row) for name, row in rows.items()}

    def _free_rows(self) -> Mapping[str, Amounts]:
        """The drain-adjusted free ``(cpus, memory, gpus)`` per group at the
        current instant, declaration order, read only.

        Moved by the machine's own grants and releases (:meth:`_rebook`) and
        rebuilt only when its key goes stale: the books' version (a debit
        made from outside the machine), the schedule tuple, or the clock
        crossing an edge instant of the schedule.
        """
        clock, (low, high) = self._last_accounting_time, self._span
        if (
            self._avail_version != self.allocator.version
            or not low <= clock < high
            or self._avail_schedule is not self.capacity_schedule
        ):
            edges = self._window_facts().edges
            crossed = bisect_right(edges, clock)
            self._span = (
                edges[crossed - 1] if crossed else -math.inf,
                edges[crossed] if crossed < len(edges) else math.inf,
            )
            self._avail_schedule = self.capacity_schedule
            drains = self._drain = self._drains_at(clock)
            self._avail = {
                name: _clip(amounts, drains.get(name))
                for name, amounts in self.allocator.books().items()
            }
            self._avail_version = self.allocator.version
        return self._avail

    def _rebook(self, group: str, version: int) -> None:
        """The machine moved ``group``'s books from ``version``: move the snapshot's
        row with them, if the snapshot was of that version (else it is stale anyway)."""
        if self._avail_version == version:
            avail = dict(self._avail)
            avail[group] = _clip(self.allocator.books()[group], self._drain.get(group))
            self._avail = avail
            self._avail_version = self.allocator.version

    def _need(self, job: Job) -> tuple:
        """``(job, (request vector, eligible groups), request amounts, eligible
        positions)`` on a node-group machine; see :meth:`job_need`."""
        entry = self._needs.get(job.job_id)
        if entry is None or entry[0] is not job:
            request = job_request(job)
            eligible = self.allocator.eligible_groups(request, job.partition)
            entry = self._needs[job.job_id] = (
                job,
                (request, eligible),
                request.amounts,
                tuple(self._positions[group.name] for group in eligible),
            )
        return entry

    def job_need(self, job: Job) -> Tuple[ResourceVector, Tuple[NodeGroup, ...]]:
        """``job``'s request vector and the groups that could ever host it.

        Worked out once per job (memoised by id, verified by identity) and
        dropped when the job's run is released.  The scalar machine answers
        afresh: its processors, and its one group where they fit.
        """
        if self.allocator is None:
            request = ResourceVector(cpus=job.requested_processors)
            return request, self.layout.groups if request.cpus <= self.num_processors else ()
        return self._need(job)[1]

    def eligible_positions(self, job: Job) -> Tuple[int, ...]:
        """Positions in ``layout.groups`` of the groups that could ever host
        ``job`` (the scalar machine: its one group, for any job it accepts)."""
        return _ONE_GROUP if self.allocator is None else self._need(job)[3]

    def census_fits(self, census: Sequence[Mapping[int, int]]) -> Optional[bool]:
        """Whether a job counted in ``census`` -- queued jobs per width, per
        group of ``layout``, over the jobs eligible there -- could start now.

        ``True`` where one is no wider than a cpu-only group's free cpus (the
        width decides), ``None`` where only groups with memory or GPUs have
        room for one (placement decides), ``False`` where no group has.
        """
        if self.allocator is None:
            widths = census[0]
            return bool(widths) and min(widths) <= self.free_processors
        maybe = False
        for widths, row, cpu_only in zip(census, self._free_rows().values(), self._cpu_only):
            if widths and min(widths) <= row[0]:
                if cpu_only:
                    return True
                maybe = None
        return maybe

    def fit_rule(self) -> Callable[[Job], bool]:
        """:meth:`can_start` as of this instant, kept (node-group machines only):
        the predicate places on the current free snapshot, which is replaced,
        never edited, so it gives the same answers after the machine has moved on."""
        free, pick, needs, need = self._free_rows(), self.allocator.pick, self._needs, self._need

        def fits(job: Job) -> bool:
            entry = needs.get(job.job_id)  # ``_need``'s memo, read inline: one call per job
            if entry is None or entry[0] is not job:
                entry = need(job)
            amounts = entry[2]
            return amounts[0] > 0 and pick(amounts, free, entry[1][1]) is not None

        return fits

    def fits_beside(self, job: Job, spare_vectors: Mapping[str, ResourceVector]) -> bool:
        """Whether some eligible group holds ``job``'s full vector both right
        now and within ``spare_vectors`` (the envelope :meth:`reservation`
        leaves beside the reserved job)."""
        _, (_, eligible), (cpus, memory, gpus), _ = self._need(job)
        free = self._free_rows()
        if isinstance(spare_vectors, SpareVectors):
            spares = spare_vectors.rows
        else:
            spares = {name: vector.amounts for name, vector in spare_vectors.items()}
        for group in eligible:
            spare = spares.get(group.name)
            if spare is not None and cpus <= spare[0] and memory <= spare[1] and gpus <= spare[2]:
                free_cpus, free_memory, free_gpus = free[group.name]
                if cpus <= free_cpus and memory <= free_memory and gpus <= free_gpus:
                    return True
        return False

    # -- what reservations are planned from (both layouts; see ``layout``) ----
    def capacity_drains(self, now: float) -> List[Tuple[float, float, str, Tuple[int, ...]]]:
        """``(start, end, group, amounts)`` of windows still (partly) ahead of ``now``.

        Backfilling strategies subtract these from their availability profiles;
        windows already over are dropped and the start is clamped to ``now``.
        """
        return [
            (max(window.start, now), window.end, name, amounts)
            for window, name, amounts in self._window_facts().drains
            if window.end > now + _EPS
        ]

    def held_grants(
        self, estimator: Callable[[Job], float], by_end: bool = False
    ) -> List[Tuple[str, float, Tuple[int, ...]]]:
        """``(group, estimated_end_time, amounts)`` of every running job's grant.

        ``by_end`` orders them by true completion time and asks ``estimator``
        in that order on every call; otherwise they come in start order,
        memoised per (estimator, running-set version) like
        :meth:`estimated_releases` (read only).
        """
        cached = self._held_grants
        if not by_end and cached is not None and cached[0] == self._version and cached[1] is estimator:
            return cached[2]
        records = self._running.values()
        if by_end:
            records = sorted(records, key=lambda r: (r.end_time, r.job.job_id))
        if self.allocator is None:
            g = self.layout.groups[0].name
            grants = [(g, r.estimated_end_time(estimator), (r.processors, 0, 0)) for r in records]
        else:
            grants = [
                (allocation.group, r.estimated_end_time(estimator), amounts)
                for r in records
                for allocation, amounts in (self._grants[r.job.job_id],)
            ]
        if not by_end:
            self._held_grants = (self._version, estimator, grants)
        return grants

    def placement_group(self, job: Job) -> Optional[str]:
        """The group ``job`` would be placed in right now, or ``None`` where it cannot start.

        Read-only what-if query: the conservative discipline uses it to pick
        the group a backfill candidate's trial reservation debits.
        """
        if self.allocator is None:
            return self.layout.groups[0].name if self.can_start(job) else None
        _, (_, eligible), amounts, _ = self._need(job)
        return self.allocator.pick(amounts, self._free_rows(), eligible)

    def running_group(self, job_id: int) -> Optional[str]:
        """The group running ``job_id`` holds its grant in, or ``None`` if it is not running."""
        if job_id not in self._running:
            return None
        return self.layout.groups[0].name if self.allocator is None else self._grants[job_id][0].group

    def free_resource_vector(self) -> ResourceVector:
        """Aggregate drain-adjusted free vector (scalar machines report cpus only)."""
        if self.allocator is None:
            return ResourceVector(cpus=self.free_processors)
        return ResourceVector(*(sum(column) for column in zip(*self._free_rows().values())))

    def total_resource_vector(self) -> ResourceVector:
        """Aggregate nameplate capacity vector."""
        return self.layout.total

    # -- utilization accounting -------------------------------------------
    def _account(self, now: float) -> None:
        if now < self._last_accounting_time:
            raise ValueError(
                f"time moved backwards: {now} < {self._last_accounting_time}"
            )
        self._busy_area += self._used * (now - self._last_accounting_time)
        self._last_accounting_time = now

    def utilization(self, now: float | None = None) -> float:
        """Average fraction of busy processors from t=0 to ``now``."""
        end = self._last_accounting_time if now is None else max(now, self._last_accounting_time)
        if end <= 0:
            return 0.0
        pending = self._used * (end - self._last_accounting_time)
        return (self._busy_area + pending) / (end * self.num_processors)

    # -- lifecycle ---------------------------------------------------------
    def start(
        self,
        job: Job,
        now: float,
        estimator: Callable[[Job], float] | None = None,
        runtime: float | None = None,
    ) -> RunningJob:
        """Start ``job`` at time ``now``; raises if processors are unavailable.

        ``estimator`` (optional) is the scheduler's runtime estimator; when it
        is stateless and matches the active sorted release plan, the job's
        estimated release is inserted into the plan incrementally so the next
        reservation query needs no re-sort.  ``runtime`` (optional) overrides
        the job's actual runtime for this run -- the checkpoint-credit restart
        of a preempted job runs only its remaining runtime.

        A width that is not positive or is wider than the machine is a
        ``ValueError``; one the in-service free count cannot hold right now
        is a ``RuntimeError``.
        """
        job_id, width = job.job_id, job.requested_processors
        if job_id in self._running:
            raise RuntimeError(f"job {job_id} is already running")
        self._account(now)
        allocator = self.allocator
        if allocator is not None:
            _, (request, eligible), amounts, _ = self._need(job)
            free, version = self._free_rows(), allocator.version
            allocation = allocator.grant(request, free, eligible, job.partition)
            self._grants[job_id] = (allocation, amounts)
            self._rebook(allocation.group, version)
        elif not 0 < width <= self.free_processors:
            raise self._refusal(job, now)
        self._used += width
        record = RunningJob(job, now, width, runtime)
        self._running[job_id] = record
        heapq.heappush(self._completion_heap, (record.end_time, job_id))
        self._version += 1
        if self._sorted_plan is not None:
            if estimator is self._sorted_plan_estimator:
                entry = (record.estimated_end_time(estimator), width, job_id)
                insort(self._sorted_plan, entry)
                self._sorted_plan_entries[job_id] = entry
            else:
                self._drop_sorted_plan()
        return record

    def _refusal(self, job: Job, now: float) -> Exception:
        """Why the scalar machine cannot start ``job`` at ``now``."""
        width = job.requested_processors
        if not 0 < width <= self.num_processors:
            return ValueError(
                f"job {job.job_id} requests {width} processors; the machine has "
                f"{self.num_processors}"
            )
        return RuntimeError(
            f"job {job.job_id} requests {width} processors but only {self.free_processors} "
            f"are free at t={now} ({self.drained_processors()} drained by the capacity schedule)"
        )

    # -- sorted release plan ------------------------------------------------
    def _drop_sorted_plan(self) -> None:
        self._sorted_plan = None
        self._sorted_plan_estimator = None
        self._sorted_plan_entries.clear()

    def _sorted_releases(
        self, estimator: Callable[[Job], float]
    ) -> List[Tuple[float, int, int]]:
        """Sorted ``(estimated_end, processors, job_id)`` plan for a stateless estimator.

        Built once from the running set and maintained incrementally by
        :meth:`start` / :meth:`release_completed`; statelessness guarantees
        the entries cannot go stale between queries.  The scalar walk reads
        the widths in this order; the group walk finds each grant by job id.
        """
        if self._sorted_plan is None or self._sorted_plan_estimator is not estimator:
            entries = {
                job_id: (record.estimated_end_time(estimator), record.processors, job_id)
                for job_id, record in self._running.items()
            }
            self._sorted_plan = sorted(entries.values())
            self._sorted_plan_estimator = estimator
            self._sorted_plan_entries = entries
        return self._sorted_plan

    def next_completion_time(self) -> Optional[float]:
        """Earliest true completion time among running jobs, or ``None`` if idle.

        A heap entry is live while its job runs with that end time; a job
        released early (and perhaps restarted since) leaves a stale entry,
        dropped here.
        """
        heap, running = self._completion_heap, self._running
        while heap:
            end_time, job_id = heap[0]
            record = running.get(job_id)
            if record is not None and record.end_time == end_time:
                return end_time
            heapq.heappop(heap)
        return None

    def last_completion_time(self) -> Optional[float]:
        """Latest true completion time among running jobs, or ``None`` if idle.

        The simulator's skip-ahead fast path uses this to drain the machine in
        a single jump once no waiting or future jobs remain.
        """
        if not self._running:
            return None
        return max(record.end_time for record in self._running.values())

    def release_completed(self, now: float) -> List[RunningJob]:
        """Release every running job whose true end time is <= ``now``."""
        finished: List[RunningJob] = []
        heap, running = self._completion_heap, self._running
        while heap and heap[0][0] <= now + 1e-9:
            end_time, job_id = heapq.heappop(heap)
            record = running.get(job_id)
            if record is None or record.end_time != end_time:
                continue  # stale: released early (see next_completion_time)
            # Account utilization up to the completion instant (clamped so a
            # completion that technically precedes the last accounting point,
            # e.g. released late within the same timestep, never rewinds time).
            self._account(max(min(end_time, now), self._last_accounting_time))
            del running[job_id]
            self._unbook(job_id, record)
            finished.append(record)
        if finished:
            self._version += 1
        self._account(now)
        return finished

    def release(self, job_id: int) -> RunningJob:
        """Forcefully release a single running job (node failures, tests and
        what-if analysis); raises ``KeyError`` if it is not running."""
        record = self._running.pop(job_id, None)
        if record is None:
            raise KeyError(f"job {job_id} is not running")
        self._unbook(job_id, record)
        self._version += 1
        return record

    def _unbook(self, job_id: int, record: RunningJob) -> None:
        """Return a released run's processors: the busy count, the node-group
        grant, and the sorted release plan's entry."""
        self._used -= record.processors
        allocator = self.allocator
        if allocator is not None:
            allocation, _ = self._grants.pop(job_id)
            version = allocator.version
            allocator.release(allocation)
            self._rebook(allocation.group, version)
            self._needs.pop(job_id, None)
        plan = self._sorted_plan
        if plan is not None:
            # Entries carry the job id, so the one found is the job's own.
            del plan[bisect_left(plan, self._sorted_plan_entries.pop(job_id))]

    # -- failures -----------------------------------------------------------
    def add_capacity_window(self, window: DowntimeWindow) -> None:
        """Insert ``window`` into the capacity schedule, keeping it sorted.

        Injected windows are immediately visible to every availability query,
        both backfill disciplines' profiles (via :meth:`capacity_drains`), and
        the reservation walk -- exactly like windows known up front, except
        the scheduler learns about them only from this instant on.
        """
        self._validate_window(window)
        self.capacity_schedule = tuple(
            sorted([*self.capacity_schedule, window], key=lambda w: (w.start, w.end))
        )

    def fail_nodes(
        self, now: float, processors: int, repair_end: float, start: float | None = None
    ) -> List[RunningJob]:
        """``processors`` nodes fail; they return to service at ``repair_end``.

        Unlike a graceful drain, a failure **preempts**: running jobs are
        killed -- youngest start first, ties broken by job id, the Slurm-like
        requeue order -- until the busy count fits the remaining in-service
        capacity.  The failure manifests as a :class:`DowntimeWindow` over
        ``[start, repair_end)`` appended to the capacity schedule (``start``
        defaults to ``now``; an earlier start models a failure dated before
        the clock caught up, e.g. before the first arrival), so repair is an
        ordinary capacity boundary event.  A window already entirely in the
        past preempts nothing.  Returns the preempted jobs sorted by
        ``(start_time, job_id)``; the caller (the simulator) owns requeueing
        them under its restart policy.
        """
        if self.topology is not None:
            raise RuntimeError(
                "node-failure injection requires a homogeneous machine; "
                "heterogeneous clusters model outages as group-tagged drains"
            )
        start = now if start is None else min(start, now)
        if processors <= 0:
            raise ValueError(f"node failure must take down a positive processor count, got {processors}")
        if not repair_end > start:
            raise ValueError(f"repair_end must lie after the failure instant, got {repair_end} <= {start}")
        self._account(now)
        self.add_capacity_window(
            DowntimeWindow(start=start, end=repair_end, processors=min(processors, self.num_processors))
        )
        victims: List[RunningJob] = []
        while self._running and self._used > self.effective_capacity(now):
            youngest = max(
                self._running.values(), key=lambda r: (r.start_time, r.job.job_id)
            )
            victims.append(self.release(youngest.job.job_id))
        victims.sort(key=lambda r: (r.start_time, r.job.job_id))
        return victims

    # -- reservations -------------------------------------------------------
    def estimated_releases(
        self, estimator: Callable[[Job], float]
    ) -> List[Tuple[float, int, int]]:
        """``(estimated_end_time, processors, job_id)`` for every running job (read only).

        Memoized per (estimator, running-set version): consecutive backfilling
        decisions at the same instant re-plan the same running set many times,
        and the estimator answers are stable within one simulated sequence.
        The list preserves the running-set insertion order so estimators that
        lazily cache per-job draws (e.g. ``NoisyPrediction``) are queried in
        exactly the order the uncached code would use.
        """
        cached = self._release_plan
        if cached is not None and cached[0] == self._version and cached[1] is estimator:
            return cached[2]
        releases = [
            (r.estimated_end_time(estimator), r.processors, job_id)
            for job_id, r in self._running.items()
        ]
        self._release_plan = (self._version, estimator, releases)
        return releases

    def reservation(
        self, job: Job, now: float, estimator: Callable[[Job], float]
    ) -> Tuple[float, int, Optional[SpareVectors]]:
        """When ``job`` could start, and what is spare beside it then.

        Returns ``(reservation_time, extra_processors, spare_vectors)``:
        ``extra_processors`` is the number of processors that would remain
        free at the reservation time after setting aside the reserved job's
        -- the classic EASY "extra nodes" that backfilled jobs may hold past
        the reservation -- and ``spare_vectors`` the same per group on a
        node-group machine (:meth:`_group_reservation`), ``None`` on the
        scalar machine.

        Both walks read one release plan, ``(estimated_end, processors,
        job_id)`` per running job in order of the *estimated* completion
        times: kept sorted across queries for a stateless estimator, asked in
        running-set order and sorted per query for a stateful one.  The
        scalar walk accumulates released processors until ``job`` fits,
        returning at the first release that makes it fit (so a release that
        shares that instant but comes later in the plan is not counted in
        ``extra_processors``; ROADMAP item 2).  With a capacity schedule it
        additionally honours scheduled
        drains: effective availability can *drop* at a window start and
        *recover* at a window end, so every window boundary is an event in the
        merged timeline and the returned reservation is the earliest instant
        at which the job fits within the in-service capacity.
        """
        if self.allocator is not None:
            return self._group_reservation(job, now, estimator)
        needed = job.requested_processors
        free = self.free_processors
        if needed <= free:
            return now, free - needed, None
        if self.capacity_schedule and (
            self.drained_processors(now) > 0 or self.next_capacity_event(now) is not None
        ):
            # A window is active or still ahead; otherwise the schedule is
            # entirely in the past and the plain (cached) walks below apply.
            return self._earliest_start_with_capacity(job, now, estimator)
        if getattr(estimator, "stateless", False):
            plan = self._sorted_releases(estimator)
            if not plan or plan[0][0] >= now:
                # Every estimated release lies at or after ``now`` (always the
                # case for over-estimating estimators), so the maintained plan
                # is the clamped, sorted release sequence as-is.
                releases = plan
            else:
                releases = sorted((max(t, now), p, j) for t, p, j in plan)
        else:
            releases = sorted(
                (max(end_time, now), processors, job_id)
                for end_time, processors, job_id in self.estimated_releases(estimator)
            )
        for end_time, processors, _ in releases:
            free += processors
            if free >= needed:
                return end_time, free - needed, None
        raise RuntimeError(
            f"job {job.job_id} requests {needed} processors but the machine only has "
            f"{self.num_processors}"
        )

    def _earliest_start_with_capacity(
        self, job: Job, now: float, estimator: Callable[[Job], float]
    ) -> Tuple[float, int, None]:
        """Merged release/capacity-boundary walk for machines with drains."""
        needed = job.requested_processors
        raw_free = self.num_processors - self._used
        releases = sorted(
            (max(end_time, now), processors)
            for end_time, processors, _ in self.estimated_releases(estimator)
        )
        events = {t for t, _ in releases}
        events.update(self._boundaries_after(now))
        released = 0
        index = 0
        for event_time in sorted(events):
            while index < len(releases) and releases[index][0] <= event_time + _EPS:
                released += releases[index][1]
                index += 1
            effective = raw_free + released - self.drained_processors(event_time)
            if effective >= needed:
                return event_time, effective - needed, None
        raise RuntimeError(
            f"job {job.job_id} requests {needed} processors but the machine never frees "
            f"enough in-service capacity (total {self.num_processors})"
        )

    def _group_reservation(
        self, job: Job, now: float, estimator: Callable[[Job], float]
    ) -> Tuple[float, int, SpareVectors]:
        """:meth:`reservation` on a node-group machine: when and where ``job`` could start.

        Walks the release plan merged with the window boundaries ahead,
        instant by instant, adding each released grant to its group's books
        (every release within ``_EPS`` of an instant counts at it), until the
        allocator's placement policy finds an eligible group that fits the
        request.  It places again only where a release in an eligible group
        or a crossed window edge changed something, on ``(cpus, memory,
        gpus)`` ints.  ``extra_processors`` is the aggregate spare cpu count
        at the reservation instant after setting the reserved job aside, and
        ``spare_vectors`` maps each group to the vector that would remain
        free then -- the per-resource envelope backfilled jobs may occupy
        without delaying the reservation (:meth:`DecisionPoint.would_delay`
        checks candidates against it); both are built once, at that instant.
        """
        _, (request, eligible), amounts, _ = self._need(job)
        if not eligible:
            raise RuntimeError(
                f"job {job.job_id} requests {request.as_dict()} (partition "
                f"{job.partition}) but no node group can ever host it"
            )
        if getattr(estimator, "stateless", False):
            plan = self._sorted_releases(estimator)
        else:
            plan = sorted(self.estimated_releases(estimator))
        if now == self._last_accounting_time:
            self._free_rows()  # brings the drains of the clock's instant up to date
            drains = self._drain
        else:
            drains = self._drains_at(now)
        books, grants, pick = self.allocator.books(), self._grants, self.allocator.pick
        rows = {group.name: _clip(books[group.name], drains.get(group.name)) for group in eligible}
        facts = self._window_facts()
        edges, boundaries = facts.edges, facts.boundaries
        # A group's books plus the grants released so far, for the groups a
        # release has reached.  They never exceed the group's capacity: the
        # machine's grants are live in the books until it releases them.
        held: Dict[str, Amounts] = {}
        released = visited = 0
        edge = bisect_right(edges, now)
        boundary = bisect_right(boundaries, now + _EPS)
        time, changed = now, True
        while True:
            limit = time + _EPS
            while released < len(plan) and plan[released][0] <= limit:
                allocation, (cpus, memory, gpus) = grants[plan[released][2]]
                name = allocation.group
                free_cpus, free_memory, free_gpus = held.get(name) or books[name]
                row = held[name] = (free_cpus + cpus, free_memory + memory, free_gpus + gpus)
                if name in rows:
                    rows[name] = _clip(row, drains.get(name))
                    changed = True
                released += 1
            if edge < len(edges) and edges[edge] <= time:
                # The active windows change only where an edge is crossed.
                drains = self._drains_at(time)
                edge = bisect_right(edges, time, edge)
                for name in rows:
                    rows[name] = _clip(held.get(name) or books[name], drains.get(name))
                changed = True
            if changed:
                target = pick(amounts, rows, eligible)
                if target is not None:
                    break
                changed = False
            # The next instant: the first release time or window boundary after this one.
            while visited < released and plan[visited][0] <= time:
                visited += 1
            while boundary < len(boundaries) and boundaries[boundary] <= time:
                boundary += 1
            if visited < len(plan):
                time = plan[visited][0]
                if boundary < len(boundaries) and boundaries[boundary] < time:
                    time = boundaries[boundary]
            elif boundary < len(boundaries):
                time = boundaries[boundary]
            else:
                raise RuntimeError(
                    f"job {job.job_id} requests {request.as_dict()} but the machine never "
                    f"frees enough in-service capacity in any eligible group"
                )
        spares: Dict[str, Amounts] = {}
        extra = 0
        for name in books:
            row = rows.get(name) or _clip(held.get(name) or books[name], drains.get(name))
            if name == target:
                row = (row[0] - amounts[0], row[1] - amounts[1], row[2] - amounts[2])
            spares[name] = row
            extra += row[0]
        return time, extra, SpareVectors(spares)

    def reset(self) -> None:
        self._running.clear()
        self._used = 0
        if self.allocator is not None:
            self.allocator.reset()
            self._grants.clear()
            self._needs.clear()
        self._busy_area = 0.0
        self._last_accounting_time = 0.0
        self._completion_heap.clear()
        self._version += 1
        self._release_plan = None
        self._drop_sorted_plan()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(processors={self.num_processors}, free={self.free_processors}, "
            f"running={len(self._running)})"
        )


def total_requested_processors(jobs: Iterable[Job]) -> int:
    """Sum of processor requests over ``jobs`` (helper for saturation checks)."""
    return sum(job.requested_processors for job in jobs)
