"""Process worker pool for scenario evaluation cells.

Fans (scenario x policy) cells across persistent worker processes, reusing
the fixed-layout shared-memory rings of :mod:`repro.rl.ipc` (the lane pool's
IPC substrate): the parent pushes a command frame naming a cell index, the
worker evaluates the cell (building and caching the scenario's trace and
evaluation sequences on first touch) and pushes back a result frame holding
the aggregate metrics vector -- no pickling after spawn, and a dead worker is
noticed by liveness polling instead of a hang.

Scheduling is dynamic (a worker gets its next cell when it returns one), so a
slow cell -- conservative backfilling on a contended scenario -- does not
stall the other workers.  Determinism is unaffected: results are keyed by
cell, every cell's floats are a pure function of ``(suite, scale, seed)``,
and the report assembly orders by scenario/policy, never by completion.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.config import ExperimentScale
from repro.rl.ipc import Field, FrameLayout, RingTimeout, ShmRing, worker_context
from repro.scenarios.evaluate import (
    METRIC_FIELDS,
    AgentBundle,
    evaluate_cell,
    scenario_seed,
    scenario_sequences,
)
from repro.scenarios.registry import ScenarioSpec

__all__ = ["ScenarioWorkerPool"]

_KIND_CELL = 0
_KIND_SHUTDOWN = 1

_ERROR_BYTES = 2048

_COMMAND_LAYOUT = FrameLayout([
    Field("kind", (1,), "int64"),
    Field("cell", (1,), "int64"),
])
_RESULT_LAYOUT = FrameLayout([
    Field("cell", (1,), "int64"),
    Field("status", (1,), "int64"),
    Field("metrics", (len(METRIC_FIELDS),), "float64"),
    Field("wall", (1,), "float64"),
    Field("error", (_ERROR_BYTES,), "uint8"),
])

#: Commands a worker may hold at once (current cell + one queued behind it).
_RING_CAPACITY = 2


def _encode_error(message: str) -> np.ndarray:
    raw = message.encode("utf-8", errors="replace")[: _ERROR_BYTES - 1]
    buffer = np.zeros(_ERROR_BYTES, dtype=np.uint8)
    buffer[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    return buffer


def _decode_error(buffer: np.ndarray) -> str:
    raw = bytes(buffer.tobytes())
    return raw.split(b"\x00", 1)[0].decode("utf-8", errors="replace")


def _worker_main(
    command_ring: ShmRing,
    result_ring: ShmRing,
    scenarios: Sequence[ScenarioSpec],
    policies: Sequence[str],
    scale: ExperimentScale,
    seed: int,
    agent_bundle: Optional[AgentBundle],
) -> None:
    built_cache: Dict[int, object] = {}
    sequence_cache: Dict[int, list] = {}
    try:
        while True:
            frame = command_ring.pop()
            if int(frame["kind"][0]) == _KIND_SHUTDOWN:
                break
            cell = int(frame["cell"][0])
            scenario_index, policy_index = divmod(cell, len(policies))
            started = time.perf_counter()
            try:
                if scenario_index not in built_cache:
                    spec = scenarios[scenario_index]
                    built = spec.build(
                        seed=scenario_seed(seed, spec.name), num_jobs=scale.trace_jobs
                    )
                    built_cache[scenario_index] = built
                    sequence_cache[scenario_index] = scenario_sequences(built, scale, seed)
                row = evaluate_cell(
                    built_cache[scenario_index],
                    policies[policy_index],
                    scale,
                    seed,
                    agent_bundle,
                    sequences=sequence_cache[scenario_index],
                )
                result_ring.push({
                    "cell": cell,
                    "status": 0,
                    "metrics": np.array([row[field] for field in METRIC_FIELDS]),
                    "wall": time.perf_counter() - started,
                    "error": np.zeros(_ERROR_BYTES, dtype=np.uint8),
                })
            except Exception:  # noqa: BLE001 - forwarded to the parent verbatim
                result_ring.push({
                    "cell": cell,
                    "status": 1,
                    "metrics": np.zeros(len(METRIC_FIELDS)),
                    "wall": time.perf_counter() - started,
                    "error": _encode_error(traceback.format_exc()),
                })
    finally:
        command_ring.detach()
        result_ring.detach()


class ScenarioWorkerPool:
    """Dispatches evaluation cells to persistent worker processes."""

    def __init__(
        self,
        scenarios: Sequence[ScenarioSpec],
        policies: Sequence[str],
        scale: ExperimentScale,
        seed: int,
        agent_bundle: Optional[AgentBundle] = None,
        num_workers: int = 2,
    ):
        if num_workers <= 0:
            raise ValueError("ScenarioWorkerPool needs at least one worker")
        self.scenarios = list(scenarios)
        self.policies = list(policies)
        self.scale = scale
        self.seed = int(seed)
        self.num_cells = len(self.scenarios) * len(self.policies)
        self.num_workers = min(int(num_workers), max(self.num_cells, 1))
        ctx = worker_context()
        self._command_rings: List[ShmRing] = []
        self._result_rings: List[ShmRing] = []
        self._workers: list = []
        self._closed = False
        try:
            for _ in range(self.num_workers):
                command = ShmRing(_COMMAND_LAYOUT, _RING_CAPACITY, ctx)
                result = ShmRing(_RESULT_LAYOUT, _RING_CAPACITY, ctx)
                self._command_rings.append(command)
                self._result_rings.append(result)
                process = ctx.Process(
                    target=_worker_main,
                    args=(command, result, self.scenarios, self.policies,
                          self.scale, self.seed, agent_bundle),
                    daemon=True,
                )
                process.start()
                self._workers.append(process)
        except Exception:
            self.close()
            raise

    # -- dispatch ------------------------------------------------------------
    def _check_alive(self) -> None:
        for index, worker in enumerate(self._workers):
            if not worker.is_alive():
                raise RuntimeError(
                    f"scenario worker {index} died unexpectedly "
                    f"(exitcode {worker.exitcode})"
                )

    def run(self) -> Tuple[Dict[Tuple[str, str], Dict[str, float]], Dict[Tuple[str, str], float]]:
        """Evaluate every cell; returns ``(metrics by key, wall seconds by key)``."""
        if self._closed:
            raise RuntimeError("ScenarioWorkerPool is closed")
        pending = deque(range(self.num_cells))
        outstanding = [0] * self.num_workers
        for worker_index in range(self.num_workers):
            while pending and outstanding[worker_index] < _RING_CAPACITY:
                self._issue(worker_index, pending.popleft())
                outstanding[worker_index] += 1
        cells: Dict[Tuple[str, str], Dict[str, float]] = {}
        walls: Dict[Tuple[str, str], float] = {}
        received = 0
        while received < self.num_cells:
            progress = False
            for worker_index, ring in enumerate(self._result_rings):
                try:
                    frame = ring.pop(timeout=0)
                except RingTimeout:
                    continue
                progress = True
                received += 1
                outstanding[worker_index] -= 1
                if pending:
                    self._issue(worker_index, pending.popleft())
                    outstanding[worker_index] += 1
                cell = int(frame["cell"][0])
                key = self._cell_key(cell)
                if int(frame["status"][0]) != 0:
                    raise RuntimeError(
                        f"evaluation of cell {key[0]!r} x {key[1]!r} failed in "
                        f"worker {worker_index}:\n{_decode_error(frame['error'])}"
                    )
                cells[key] = {
                    field: float(value)
                    for field, value in zip(METRIC_FIELDS, frame["metrics"])
                }
                walls[key] = float(frame["wall"][0])
            if not progress:
                self._check_alive()
                time.sleep(0.005)
        return cells, walls

    def _cell_key(self, cell: int) -> Tuple[str, str]:
        scenario_index, policy_index = divmod(cell, len(self.policies))
        return self.scenarios[scenario_index].name, self.policies[policy_index]

    def _issue(self, worker_index: int, cell: int) -> None:
        self._command_rings[worker_index].push({"kind": _KIND_CELL, "cell": cell})

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for ring, worker in zip(self._command_rings, self._workers):
            if worker.is_alive():
                try:
                    ring.push({"kind": _KIND_SHUTDOWN, "cell": -1}, timeout=1.0)
                except Exception:  # noqa: BLE001 - shutdown is best-effort
                    pass
        for worker in self._workers:
            worker.join(timeout=5.0)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
                worker.join(timeout=1.0)
        for ring in (*self._command_rings, *self._result_rings):
            ring.close()

    def __enter__(self) -> "ScenarioWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ScenarioWorkerPool(cells={self.num_cells}, workers={self.num_workers}, "
            f"closed={self._closed})"
        )
