"""Cluster model: the machine and its running-job registry, node groups, allocator layer."""

from repro.cluster.resources import ClusterTopology, NodeGroup, ResourceVector
from repro.cluster.allocator import (
    ALLOCATOR_POLICIES,
    Allocator,
    BestFitAllocator,
    FirstFitAllocator,
    GroupAllocation,
    job_request,
    make_allocator,
)
from repro.cluster.machine import DowntimeWindow, Machine, RunningJob

__all__ = [
    "ResourceVector",
    "NodeGroup",
    "ClusterTopology",
    "Allocator",
    "FirstFitAllocator",
    "BestFitAllocator",
    "GroupAllocation",
    "job_request",
    "make_allocator",
    "ALLOCATOR_POLICIES",
    "DowntimeWindow",
    "Machine",
    "RunningJob",
]
