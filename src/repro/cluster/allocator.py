"""Allocator layer: vector placement over node groups, separate from scheduling.

The scheduler/allocator split (AccaSim's dispatcher design): the backfill
discipline decides *which* job runs next, the allocator decides *where* it
runs -- which node group supplies the job's :class:`ResourceVector`.  The two
never mix: schedulers only ask feasibility/placement questions through the
:class:`Allocator` interface, and allocators never see queue priorities.

Two policies are provided behind one interface:

* :class:`FirstFitAllocator` -- scan groups in topology declaration order,
  place in the first group whose free vector fits the request;
* :class:`BestFitAllocator` -- place in the fitting group with the fewest
  cpus left over (deterministic tie-break: declaration order).

Accounting hands out explicit :class:`GroupAllocation` tokens, raising
``RuntimeError`` on oversubscription, double release, and foreign tokens.  The
books are plain ``(cpus, memory, gpus)`` int triples per group, and a policy's
placement rule (:meth:`Allocator.pick`) reads triples too; vectors are built
only at the API edge (``free``, ``free_map``, ``place``, the tokens).  A
one-group cpu-only topology performs the integer arithmetic of the machine's
scalar free count bit for bit (the homogeneous-reduction contract,
property-tested by ``tests/test_allocator.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.cluster.resources import _RESOURCE_NAMES, ClusterTopology, NodeGroup, ResourceVector
from repro.workloads.job import Job

#: ``(cpus, memory, gpus)``: a resource vector's components as plain ints.
Amounts = Tuple[int, int, int]

__all__ = [
    "GroupAllocation",
    "Allocator",
    "FirstFitAllocator",
    "BestFitAllocator",
    "make_allocator",
    "job_request",
    "ALLOCATOR_POLICIES",
]


def job_request(job: Job) -> ResourceVector:
    """The resource vector a job occupies while running.

    Memory follows the SWF convention: the per-processor *requested* memory if
    present, else the per-processor *used* memory, else zero -- scaled by the
    processor count.  ``-1`` is the SWF "missing" sentinel for both fields.
    """
    per_proc = job.requested_memory if job.requested_memory >= 0 else max(job.used_memory, 0)
    return ResourceVector(
        cpus=job.requested_processors,
        memory=per_proc * job.requested_processors,
        gpus=job.requested_gpus,
    )


@dataclass(frozen=True, slots=True)
class GroupAllocation:
    """A granted resource vector in one node group; opaque release token."""

    allocation_id: int
    group: str
    vector: ResourceVector

    @property
    def processors(self) -> int:
        """Cpu count of the grant."""
        return self.vector.cpus


class Allocator:
    """Group-placement policy plus per-group vector accounting.

    Subclasses override :meth:`pick`; everything else -- eligibility,
    conservation accounting, token discipline -- is shared.
    """

    name = "allocator"

    def __init__(self, topology: ClusterTopology):
        self.topology = topology
        #: Bumped whenever the books change; keys readers' snapshots of them
        #: (``Machine`` may be handed an allocator that is also debited elsewhere).
        self.version = 0
        self._free: Dict[str, Amounts] = {
            group.name: group.capacity.amounts for group in topology.groups
        }
        self._live: Dict[int, GroupAllocation] = {}
        self._ids = itertools.count()

    # -- queries -------------------------------------------------------------
    def free(self, group: str) -> ResourceVector:
        return ResourceVector(*self._free[group])

    def free_map(self) -> Dict[str, ResourceVector]:
        """Current free vector per group (the caller's own dict)."""
        return {name: ResourceVector(*amounts) for name, amounts in self._free.items()}

    def books(self) -> Mapping[str, Amounts]:
        """The free ``(cpus, memory, gpus)`` per group, declaration order: the
        books themselves, read only, moved by every grant and release."""
        return self._free

    def used(self, group: str) -> ResourceVector:
        return self.topology.group(group).capacity - self.free(group)

    @property
    def total_free(self) -> ResourceVector:
        return ResourceVector(*(sum(column) for column in zip(*self._free.values())))

    def eligible_groups(self, request: ResourceVector, partition: int = -1) -> Tuple[NodeGroup, ...]:
        """Groups that could *ever* host ``request``, in declaration order.

        A job whose partition id is claimed by a group is pinned to the
        claiming group(s); unclaimed partitions (or ``-1``) roam freely.
        Capacity feasibility is always required.
        """
        groups = self.topology.groups
        if partition >= 0 and any(g.partition == partition for g in groups):
            groups = tuple(g for g in groups if g.partition == partition)
        return tuple(g for g in groups if request.fits_in(g.capacity))

    def feasible(self, request: ResourceVector, partition: int = -1) -> bool:
        """Whether some eligible group could host ``request`` on an empty machine."""
        return bool(self.eligible_groups(request, partition))

    def pick(
        self, amounts: Amounts, free: Mapping[str, Amounts], eligible: Tuple[NodeGroup, ...]
    ) -> Optional[str]:
        """The policy's placement rule: the group among ``eligible`` to place
        ``amounts`` in, given free ``(cpus, memory, gpus)`` per group; ``None``
        when none of them currently fits."""
        raise NotImplementedError

    def place(
        self,
        request: ResourceVector,
        free: Mapping[str, ResourceVector],
        eligible: Tuple[NodeGroup, ...],
    ) -> Optional[str]:
        """:meth:`pick` for a request and free map given as vectors."""
        return self.pick(request.amounts, _amounts(free, eligible), eligible)

    def select_group(
        self,
        request: ResourceVector,
        free: Mapping[str, ResourceVector],
        partition: int = -1,
    ) -> Optional[str]:
        """Pick the group to place ``request`` in given per-group free vectors.

        ``free`` is usually :meth:`free_map`, possibly reduced by active
        drains.  Returns ``None`` when no eligible group currently fits.
        """
        return self.place(request, free, self.eligible_groups(request, partition))

    def can_allocate(
        self,
        request: ResourceVector,
        free: Mapping[str, ResourceVector] | None = None,
        partition: int = -1,
    ) -> bool:
        if request.is_zero or request.cpus <= 0:
            return False
        eligible = self.eligible_groups(request, partition)
        rows = self._free if free is None else _amounts(free, eligible)
        return self.pick(request.amounts, rows, eligible) is not None

    # -- mutation ------------------------------------------------------------
    def allocate(
        self,
        request: ResourceVector,
        free: Mapping[str, ResourceVector] | None = None,
        partition: int = -1,
    ) -> GroupAllocation:
        """Place ``request`` and debit its group; raises if nothing fits.

        ``free`` (when given) constrains the *placement decision* -- e.g. the
        drain-adjusted availability -- but the debit always runs against the
        allocator's actual accounts and still raises on oversubscription, so a
        stale adjusted map can never corrupt the books.
        """
        eligible = self.eligible_groups(request, partition)
        rows = self._free if free is None else _amounts(free, eligible)
        return self.grant(request, rows, eligible, partition)

    def grant(
        self,
        request: ResourceVector,
        free: Mapping[str, Amounts],
        eligible: Tuple[NodeGroup, ...],
        partition: int = -1,
    ) -> GroupAllocation:
        """:meth:`allocate` for a caller that already holds ``eligible_groups(request,
        partition)`` and a free ``(cpus, memory, gpus)`` per group to place on."""
        if request.cpus <= 0:
            raise ValueError(f"cannot allocate a non-positive cpu count: {request.cpus}")
        if not eligible:
            raise ValueError(
                f"request {request.as_dict()} (partition {partition}) exceeds every "
                f"node group's capacity"
            )
        cpus, memory, gpus = amounts = request.amounts
        group = self.pick(amounts, free, eligible)
        if group is None:
            raise RuntimeError(
                f"insufficient resources: no eligible group currently fits {request.as_dict()}"
            )
        free_cpus, free_memory, free_gpus = books = self._free[group]
        if cpus > free_cpus or memory > free_memory or gpus > free_gpus:
            raise RuntimeError(
                f"group {group!r} over-subscribed: free {dict(zip(_RESOURCE_NAMES, books))}, "
                f"allocating {request.as_dict()}"
            )
        allocation = GroupAllocation(
            allocation_id=next(self._ids), group=group, vector=request
        )
        self._live[allocation.allocation_id] = allocation
        self._free[group] = (free_cpus - cpus, free_memory - memory, free_gpus - gpus)
        self.version += 1
        return allocation

    def release(self, allocation: GroupAllocation) -> None:
        stored = self._live.pop(allocation.allocation_id, None)
        if stored is None:
            raise RuntimeError(
                f"allocation {allocation.allocation_id} is not live "
                f"(double release or foreign token)"
            )
        if stored is not allocation and stored != allocation:
            raise RuntimeError(
                f"allocation {allocation.allocation_id} token mismatch: "
                f"recorded {stored}, token says {allocation}"
            )
        vector, group = allocation.vector, allocation.group
        cpus, memory, gpus = self._free[group]
        self._free[group] = (cpus + vector.cpus, memory + vector.memory, gpus + vector.gpus)
        self.version += 1

    def reset(self) -> None:
        self._live.clear()
        for group in self.topology.groups:
            self._free[group.name] = group.capacity.amounts
        self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(groups={self.topology.names}, "
            f"live={len(self._live)})"
        )


class FirstFitAllocator(Allocator):
    """Place in the first eligible group (declaration order) whose free vector fits."""

    name = "first_fit"

    def pick(
        self, amounts: Amounts, free: Mapping[str, Amounts], eligible: Tuple[NodeGroup, ...]
    ) -> Optional[str]:
        cpus, memory, gpus = amounts
        for group in eligible:
            free_cpus, free_memory, free_gpus = free[group.name]
            if cpus <= free_cpus and memory <= free_memory and gpus <= free_gpus:
                return group.name
        return None


class BestFitAllocator(Allocator):
    """Place in the fitting group leaving the fewest cpus free afterwards.

    Keeps large contiguous cpu blocks available for wide jobs; ties break by
    declaration order, which keeps placement deterministic.
    """

    name = "best_fit"

    def pick(
        self, amounts: Amounts, free: Mapping[str, Amounts], eligible: Tuple[NodeGroup, ...]
    ) -> Optional[str]:
        cpus, memory, gpus = amounts
        best: Optional[str] = None
        best_leftover = -1
        for group in eligible:
            free_cpus, free_memory, free_gpus = free[group.name]
            if cpus > free_cpus or memory > free_memory or gpus > free_gpus:
                continue
            leftover = free_cpus - cpus
            if best is None or leftover < best_leftover:
                best = group.name
                best_leftover = leftover
        return best


def _amounts(free: Mapping[str, ResourceVector], groups: Tuple[NodeGroup, ...]) -> Dict[str, Amounts]:
    """``free``'s vectors of ``groups`` as ``(cpus, memory, gpus)`` triples."""
    return {group.name: free[group.name].amounts for group in groups}


#: Registered allocator policy names, in the order ``make_allocator`` accepts.
ALLOCATOR_POLICIES: Tuple[str, ...] = ("first_fit", "best_fit")


def make_allocator(policy: str, topology: ClusterTopology) -> Allocator:
    """Build the named allocator policy over ``topology``."""
    if policy == "first_fit":
        return FirstFitAllocator(topology)
    if policy == "best_fit":
        return BestFitAllocator(topology)
    raise KeyError(f"unknown allocator policy {policy!r}; available: {ALLOCATOR_POLICIES}")
