"""Shared-memory IPC primitives for the multiprocess rollout lane pool.

The parent process and each lane-pool worker exchange **fixed-layout frames**
through :class:`ShmRing`, a single-producer/single-consumer ring buffer laid
out in one :class:`multiprocessing.shared_memory.SharedMemory` segment.  A
frame is a packed struct of named numpy fields (:class:`FrameLayout`); the
hot path writes observation/action/reward arrays directly into the mapped
slot and never pickles anything.

Synchronization uses two counting semaphores per ring (classic
bounded-buffer): ``_free`` counts empty slots (producer acquires before
writing), ``_full`` counts ready frames (consumer acquires before reading).
Both sides track their own slot index locally -- with exactly one producer
and one consumer the indices advance monotonically and never race.

A ring with ``capacity >= 2`` holds several frames in flight (the scenario
pool queues a second cell behind the one a worker is evaluating), and
``timeout=0`` on :meth:`push`/:meth:`pop` is a non-blocking poll, which is how
that pool sweeps its workers' result rings without blocking on any one.

The ring object is construct-in-parent, attach-in-child: it pickles its
geometry and the segment *name* (never the mapping), and the child re-maps
the segment lazily on first use.  Child attachments deregister themselves
from the :mod:`multiprocessing.resource_tracker` so only the creating parent
unlinks the segment.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from multiprocessing import resource_tracker, shared_memory

__all__ = ["Field", "FrameLayout", "ShmRing", "RingClosed", "RingTimeout", "worker_context"]


def worker_context():
    """The :mod:`multiprocessing` context both worker pools start from.

    ``fork`` where the platform has it (workers inherit the lane environments
    or scenario specs without pickling them), ``spawn`` otherwise.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class RingClosed(RuntimeError):
    """The ring's shared-memory segment is gone (peer shut down)."""


class RingTimeout(TimeoutError):
    """No frame arrived (or no slot freed) within the allotted time."""


@dataclass(frozen=True)
class Field:
    """One named array field of a frame."""

    name: str
    shape: Tuple[int, ...]
    dtype: str = "float64"

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


class FrameLayout:
    """Byte layout of one frame: named fields packed back to back.

    Every field is aligned to 8 bytes (all frame dtypes are 8-byte scalars
    anyway), so a frame can be mapped as numpy views with zero copies.
    """

    def __init__(self, fields: Sequence[Field]):
        if not fields:
            raise ValueError("a frame needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate frame field names: {names}")
        self.fields: Tuple[Field, ...] = tuple(fields)
        self.offsets: Dict[str, int] = {}
        offset = 0
        for field in self.fields:
            self.offsets[field.name] = offset
            offset += -(-field.nbytes // 8) * 8  # round up to 8-byte alignment
        self.nbytes = offset

    def views(self, buffer, base: int) -> Dict[str, np.ndarray]:
        """Map one frame at byte offset ``base`` of ``buffer`` as numpy views."""
        out: Dict[str, np.ndarray] = {}
        for field in self.fields:
            start = base + self.offsets[field.name]
            view = np.ndarray(field.shape, dtype=field.dtype, buffer=buffer, offset=start)
            out[field.name] = view
        return out


class ShmRing:
    """SPSC ring of fixed-layout frames in one shared-memory segment.

    One side calls :meth:`push` (producer), the other :meth:`pop`
    (consumer); each ring is used in exactly one direction.  ``ctx`` is the
    :mod:`multiprocessing` context whose semaphores are inheritable by the
    worker processes (fork or spawn).
    """

    def __init__(self, layout: FrameLayout, capacity: int, ctx, name: str | None = None):
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.layout = layout
        self.capacity = int(capacity)
        self._free = ctx.Semaphore(self.capacity)
        self._full = ctx.Semaphore(0)
        self._shm: Optional[shared_memory.SharedMemory] = shared_memory.SharedMemory(
            create=True, size=self.layout.nbytes * self.capacity, name=name
        )
        self.name = self._shm.name
        self._owner = True
        self._closed = False
        self._write_idx = 0
        self._read_idx = 0

    # -- pickling: geometry + names travel, the mapping does not ---------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_shm"] = None
        state["_owner"] = False
        # A child starts with fresh local indices only if it is the sole user
        # of its role; the pool protocol guarantees that (parent produces
        # commands / consumes results, worker the reverse), and indices are
        # synchronized because the child is forked/spawned before any frame
        # is pushed.
        return state

    def _segment(self) -> shared_memory.SharedMemory:
        if self._closed:
            raise RingClosed(f"ring {self.name} is closed")
        if self._shm is None:
            try:
                self._shm = shared_memory.SharedMemory(name=self.name)
            except FileNotFoundError as exc:  # pragma: no cover - peer died early
                raise RingClosed(f"ring segment {self.name} has been unlinked") from exc
            # The tracker would otherwise unlink the segment when *this*
            # (child) process exits; only the creating parent owns cleanup.
            try:
                resource_tracker.unregister(self._shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker is an implementation detail
                pass
        return self._shm

    def _frame(self, index: int) -> Dict[str, np.ndarray]:
        shm = self._segment()
        return self.layout.views(shm.buf, (index % self.capacity) * self.layout.nbytes)

    @staticmethod
    def _acquire(semaphore, timeout: Optional[float], liveness=None) -> bool:
        """Acquire ``semaphore``, polling ``liveness`` while blocked.

        Uses short bounded waits so a dead peer is noticed within ~100ms
        instead of hanging forever; returns False on timeout.  The immediate
        non-blocking attempt makes ``timeout=0`` a true poll: a ready frame
        is taken even when no wait budget remains.
        """
        if semaphore.acquire(block=False):
            return True
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            slice_timeout = 0.1
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                slice_timeout = min(slice_timeout, remaining)
            if semaphore.acquire(timeout=slice_timeout):
                return True
            if liveness is not None:
                liveness()

    # -- producer side ---------------------------------------------------------
    def push(self, values: Dict[str, np.ndarray], timeout: Optional[float] = None,
             liveness=None) -> None:
        """Copy ``values`` into the next free slot and publish it.

        ``values`` maps field names to arrays (or scalars); missing fields
        keep whatever bytes the slot last held, so producers should write
        every field they expect the consumer to read.
        """
        if not self._acquire(self._free, timeout, liveness):
            raise RingTimeout(f"no free slot in ring {self.name} after {timeout}s")
        try:
            frame = self._frame(self._write_idx)
            for key, value in values.items():
                if key not in frame:
                    # A producer built against a different layout generation.
                    raise KeyError(
                        f"unknown frame field {key!r}; ring {self.name} layout has "
                        f"{[field.name for field in self.layout.fields]}"
                    )
                frame[key][...] = value
        except BaseException:
            # Nothing was published: hand the slot back, or a full ring of
            # failed writes would refuse every later push.
            self._free.release()
            raise
        self._write_idx += 1
        self._full.release()

    # -- consumer side ---------------------------------------------------------
    def pop(self, timeout: Optional[float] = None, liveness=None) -> Dict[str, np.ndarray]:
        """Wait for the next frame and return a private copy of its fields."""
        if not self._acquire(self._full, timeout, liveness):
            raise RingTimeout(f"no frame in ring {self.name} after {timeout}s")
        frame = self._frame(self._read_idx)
        out = {key: view.copy() for key, view in frame.items()}
        self._read_idx += 1
        self._free.release()
        return out

    # -- lifecycle -------------------------------------------------------------
    def detach(self) -> None:
        """Drop this process's mapping without unlinking the segment.

        Workers call this on exit: under ``fork`` they inherit the parent's
        ring object (``_owner`` included), and only the creating parent may
        unlink the segment the surviving side still maps.
        """
        if self._closed:
            return
        self._closed = True
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def close(self) -> None:
        """Detach this process's mapping; the owner also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        if self._shm is not None:
            self._shm.close()
            if self._owner:
                try:
                    self._shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already unlinked
                    pass
            self._shm = None

    def __repr__(self) -> str:
        return (
            f"ShmRing(name={self.name!r}, capacity={self.capacity}, "
            f"frame_bytes={self.layout.nbytes})"
        )
