"""Resource types: the typed resource vector, node groups and topologies.

The paper assumes a homogeneous HPC machine, so resource availability reduces
to a count of free processors (§3.2: "the availability is a percentage of
available computing nodes"); :class:`~repro.cluster.machine.Machine` keeps
that count as one int busy count on every layout.

Heterogeneous clusters generalize the scalar to a :class:`ResourceVector`
(cpus, memory, gpus) over named :class:`NodeGroup` partitions collected into a
:class:`ClusterTopology`; placement over groups is the allocator layer's job
(:mod:`repro.cluster.allocator`).  The homogeneous-reduction contract
(docs/cluster.md): a one-group cpu-only topology performs exactly the integer
arithmetic of the machine's free count, so scalar configurations stay
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "ResourceVector",
    "NodeGroup",
    "ClusterTopology",
]

_RESOURCE_NAMES = ("cpus", "memory", "gpus")


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """Typed resource quantities: processors, memory units, and GPUs.

    Components are non-negative integers.  Memory is an abstract integer unit
    (the SWF archives report KB; scenario transforms assign whatever unit the
    node groups declare -- only fits-within comparisons matter).  All
    arithmetic is elementwise, so a cpu-only vector degenerates to scalar
    integer arithmetic exactly.
    """

    cpus: int = 0
    memory: int = 0
    gpus: int = 0

    def __post_init__(self) -> None:
        if self.cpus < 0 or self.memory < 0 or self.gpus < 0:
            for name in _RESOURCE_NAMES:
                value = getattr(self, name)
                if value < 0:
                    raise ValueError(f"resource vector {name} must be non-negative, got {value}")

    def fits_in(self, other: "ResourceVector") -> bool:
        """Elementwise ``self <= other`` (the feasibility test)."""
        return (
            self.cpus <= other.cpus
            and self.memory <= other.memory
            and self.gpus <= other.gpus
        )

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            cpus=self.cpus + other.cpus,
            memory=self.memory + other.memory,
            gpus=self.gpus + other.gpus,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Elementwise difference; raises (via validation) if any component goes negative."""
        return ResourceVector(
            cpus=self.cpus - other.cpus,
            memory=self.memory - other.memory,
            gpus=self.gpus - other.gpus,
        )

    @property
    def is_zero(self) -> bool:
        return self.cpus == 0 and self.memory == 0 and self.gpus == 0

    def component(self, name: str) -> int:
        if name not in _RESOURCE_NAMES:
            raise KeyError(f"unknown resource {name!r}; expected one of {_RESOURCE_NAMES}")
        return getattr(self, name)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _RESOURCE_NAMES}

    @property
    def amounts(self) -> tuple[int, int, int]:
        """``(cpus, memory, gpus)``: the components in declaration order."""
        return (self.cpus, self.memory, self.gpus)


@dataclass(frozen=True, slots=True)
class NodeGroup:
    """A named group of identical nodes, accounted as one aggregate capacity.

    Placement is group-granular (like a Slurm partition), not per-node bin
    packing: a job fits in a group when its request vector fits the group's
    free aggregate.  ``partition`` (optional, >= 0) binds the group to an SWF
    partition id -- jobs carrying that partition id may only run here.
    """

    name: str
    cpus: int
    memory: int = 0
    gpus: int = 0
    partition: int = -1
    #: ``(cpus, memory, gpus)`` as one vector, derived at construction.
    capacity: ResourceVector = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node group name must be non-empty")
        if self.cpus <= 0:
            raise ValueError(f"node group {self.name!r} must have positive cpus, got {self.cpus}")
        if self.memory < 0 or self.gpus < 0:
            raise ValueError(f"node group {self.name!r} memory/gpus must be non-negative")
        object.__setattr__(
            self, "capacity", ResourceVector(cpus=self.cpus, memory=self.memory, gpus=self.gpus)
        )


@dataclass(frozen=True, slots=True)
class ClusterTopology:
    """An ordered collection of node groups describing a heterogeneous cluster.

    Group declaration order is load-bearing: first-fit scans it, and every
    deterministic tie-break uses it.  ``total_cpus`` plays the role the scalar
    ``num_processors`` plays for homogeneous machines (observation
    normalization, trace-width validation).
    """

    groups: tuple[NodeGroup, ...]
    #: Aggregate nameplate capacity and the name -> group index, derived at construction.
    total: ResourceVector = field(init=False, compare=False, repr=False)
    _by_name: dict[str, NodeGroup] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("topology needs at least one node group")
        names = [group.name for group in self.groups]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node group names in topology: {names}")
        total = ResourceVector()
        for group in self.groups:
            total = total + group.capacity
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "_by_name", {group.name: group for group in self.groups})

    @classmethod
    @lru_cache(maxsize=None)  # frozen: every scalar machine of one size shares its layout
    def homogeneous(cls, num_processors: int, name: str = "all") -> "ClusterTopology":
        """The trivial one-group cpu-only topology (reduces to the scalar model)."""
        return cls(groups=(NodeGroup(name=name, cpus=num_processors),))

    @property
    def total_cpus(self) -> int:
        return self.total.cpus

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(group.name for group in self.groups)

    def group(self, name: str) -> NodeGroup:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no node group named {name!r} (have {self.names})") from None

    def partition_owner(self, partition: int) -> NodeGroup | None:
        """The group claiming SWF ``partition``, or ``None`` if unclaimed."""
        if partition < 0:
            return None
        for group in self.groups:
            if group.partition == partition:
                return group
        return None
