"""The service's replay log: every served decision, reproducible offline.

The online service appends one JSON record per line (JSONL) as it runs:

* ``header`` -- the simulator configuration a replay needs (processor count,
  base policy, BSLD threshold, the policy's forward row block, time scale);
* ``submit`` -- one admitted job with its **assigned event time** baked into
  ``job.submit_time`` (rejected submissions never reach the simulator and are
  logged as ``reject`` records for audit only);
* ``decision`` -- one :class:`~repro.scheduler.simulator.ServedDecision` in
  serving order;
* ``drain`` -- the final summary once the session ran to completion.

**The determinism contract.**  Decisions are a pure function of the admitted
submission stream: event times in the simulator come either from the log
(arrivals) or from job runtimes (completions), never from wall clock, and the
policy forward is bit-invariant (batch-invariant kernel, ``row_block`` pinned
per deployment site).  So replaying the logged jobs through a freshly built
:class:`~repro.scheduler.simulator.Simulator` with the same agent weights
must reproduce the logged decision stream *exactly* -- same count, same
order, bit-identical decision times.  :func:`verify_replay_log` performs that
check; ``tests/test_service.py`` and the CI service smoke job enforce it.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, IO, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.agent import RLBackfillAgent
from repro.core.rlbackfill import RLBackfillPolicy
from repro.prediction.predictors import UserEstimate
from repro.scheduler.simulator import (
    ServedDecision,
    SimulationResult,
    Simulator,
    replay_decisions,
)
from repro.workloads.job import Job

__all__ = [
    "JOB_WIRE_FIELDS",
    "DURABILITY_POLICIES",
    "job_to_wire",
    "job_from_wire",
    "decision_to_wire",
    "decision_from_wire",
    "ReplayLogWriter",
    "ReplayLog",
    "read_replay_log",
    "build_replay_simulator",
    "ReplayCheck",
    "verify_replay_log",
]

#: Every :class:`Job` field crosses the wire; replay must reconstruct the
#: exact dataclass the session scheduled (equality is part of the contract).
JOB_WIRE_FIELDS = (
    "job_id",
    "submit_time",
    "runtime",
    "requested_processors",
    "requested_time",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "status",
    "used_memory",
    "requested_memory",
    "requested_gpus",
)


def job_to_wire(job: Job) -> Dict[str, object]:
    return {name: getattr(job, name) for name in JOB_WIRE_FIELDS}


def job_from_wire(payload: Mapping[str, object]) -> Job:
    return Job(**{name: payload[name] for name in JOB_WIRE_FIELDS if name in payload})


def decision_to_wire(decision: ServedDecision) -> Dict[str, object]:
    """The one wire form of a served decision: the log's ``decision`` record
    (plus its ``type``) and an entry of a response's ``decisions`` list."""
    return {
        "index": decision.index,
        "time": decision.time,
        "reserved_job_id": decision.reserved_job_id,
        "chosen_job_id": decision.chosen_job_id,
    }


def decision_from_wire(record: Mapping[str, object]) -> ServedDecision:
    chosen = record.get("chosen_job_id")
    return ServedDecision(
        index=int(record["index"]),
        time=float(record["time"]),
        reserved_job_id=int(record["reserved_job_id"]),
        chosen_job_id=None if chosen is None else int(chosen),
    )


#: Writer durability policies, weakest to strongest.  A crash can tear at
#: most the final record under ``flush``/``fsync``; ``none`` can lose every
#: record still sitting in the userspace buffer.
DURABILITY_POLICIES = ("none", "flush", "fsync")


class ReplayLogWriter:
    """Appends replay records as JSONL to a file (or buffers them in memory).

    ``path=None`` keeps records in :attr:`records` only -- the in-process
    test mode; with a file, the file is the log and :attr:`records` stays
    empty.  ``durability`` decides what happens after every record:

    * ``"none"`` -- buffered writes; a crash loses the buffered suffix;
    * ``"flush"`` (default) -- flush to the OS after each record, so a
      process crash tears at most the final line;
    * ``"fsync"`` -- additionally ``os.fsync`` after each record, so even a
      host crash tears at most the final line.

    ``resume=True`` reopens an existing log for append instead of truncating
    it: any torn final line (a crash mid-write) is cut back to the last
    complete record and new writes continue the same file.  This is the
    crash-recovery mode used by ``SchedulingService.recover``.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        durability: str = "flush",
        resume: bool = False,
    ):
        if durability not in DURABILITY_POLICIES:
            raise ValueError(
                f"unknown durability {durability!r}; choose from {DURABILITY_POLICIES}"
            )
        self.path: Optional[Path] = None if path is None else Path(path)
        self.durability = durability
        self.records: List[Dict[str, object]] = []
        self._handle: Optional[IO[str]] = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if resume and self.path.exists():
                self._truncate_torn_tail()
            self._handle = self.path.open("a" if resume else "w", encoding="utf-8")

    def _truncate_torn_tail(self) -> None:
        """Cut a crashed log back to its last complete record."""
        assert self.path is not None
        records = _JsonlRecords(self.path, allow_torn_tail=True)
        for _ in records:
            pass
        if records.torn_at is not None:
            with self.path.open("r+b") as handle:
                handle.truncate(records.torn_at)
                handle.flush()
                os.fsync(handle.fileno())

    def write(self, record: Mapping[str, object]) -> None:
        record = dict(record)
        if self._handle is None:
            self.records.append(record)
            return
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        if self.durability != "none":
            self._handle.flush()
            if self.durability == "fsync":
                os.fsync(self._handle.fileno())

    def header(
        self,
        num_processors: int,
        policy: str,
        time_scale: float,
        row_block: Optional[int],
        bsld_threshold: float,
        node_groups=None,
    ) -> None:
        record = {
            "type": "header",
            "num_processors": num_processors,
            "policy": policy,
            "time_scale": time_scale,
            "row_block": row_block,
            "bsld_threshold": bsld_threshold,
        }
        if node_groups is not None:
            # Heterogeneous cluster shape as (name, cpus, memory, gpus) rows;
            # replay must rebuild the same topology to reproduce decisions.
            record["node_groups"] = [list(group) for group in node_groups]
        self.write(record)

    def submit(self, tenant: str, job: Job) -> None:
        self.write({"type": "submit", "tenant": tenant, "job": job_to_wire(job)})

    def reject(self, tenant: str, wall_time: float, retry_after: float) -> None:
        retry = retry_after if math.isfinite(retry_after) else None
        self.write(
            {"type": "reject", "tenant": tenant, "wall_time": wall_time, "retry_after": retry}
        )

    def decision(self, decision: ServedDecision) -> None:
        self.write({"type": "decision", **decision_to_wire(decision)})

    def drain(self, summary: Mapping[str, object]) -> None:
        self.write({"type": "drain", **dict(summary)})

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None


@dataclass(frozen=True, slots=True)
class ReplayLog:
    """A parsed replay log."""

    header: Dict[str, object]
    jobs: tuple[Job, ...]
    tenants: tuple[str, ...]
    decisions: tuple[ServedDecision, ...]
    rejects: int
    summary: Optional[Dict[str, object]]
    #: ``True`` when the source ended in a torn (unparsable) final line that
    #: was dropped -- the signature of a crash mid-write.
    torn_tail: bool = False


class _JsonlRecords:
    """The records of a JSONL file, read as a stream: one line held at a time.

    A parse failure on the **final** non-empty line is a torn tail (the
    write was interrupted mid-record): with ``allow_torn_tail`` the line is
    dropped and, once iteration ends, :attr:`torn_at` holds its byte offset;
    otherwise it raises.  A parse failure on any earlier line is corruption,
    never tolerated -- a single-writer append-only log cannot tear in the
    middle.  Blank lines are skipped.
    """

    def __init__(self, path: str | Path, allow_torn_tail: bool):
        self.path = Path(path)
        self.allow_torn_tail = allow_torn_tail
        self.torn_at: Optional[int] = None

    def __iter__(self) -> Iterator[Dict[str, object]]:
        # A failed line is an error only once it is known whether another
        # record follows it: (byte offset, line number, detail).
        failed: Optional[Tuple[int, int, str]] = None
        offset = 0
        with self.path.open("rb") as handle:
            for lineno, line in enumerate(handle, start=1):
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                if failed is not None:
                    raise ValueError(
                        f"{self.path}: corrupt record on line {failed[1]} "
                        f"(not the final line): {failed[2]}"
                    )
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    failed = (start, lineno, str(error))
                    continue
                yield record
        if failed is None:
            return
        if not self.allow_torn_tail:
            raise ValueError(
                f"{self.path}: torn final record on line {failed[1]} "
                f"(crash mid-write?): {failed[2]}; "
                "pass allow_torn_tail=True to drop it"
            )
        self.torn_at = failed[0]


def read_replay_log(
    source: str | Path | Iterable[Mapping[str, object]],
    allow_torn_tail: bool = False,
) -> ReplayLog:
    """Parse a replay log from a JSONL path or an in-memory record sequence.

    A file is read as a stream and an in-memory sequence is iterated in
    place, so at no point does a second copy of the log exist beside the
    typed one being built.  ``allow_torn_tail`` tolerates an unparsable
    **final** line -- the torn record a crash mid-write leaves behind -- by
    dropping it and setting :attr:`ReplayLog.torn_tail`.  Corruption
    anywhere else always raises.
    """
    return _read(source, allow_torn_tail, with_decisions=True)


def _read(
    source: str | Path | Iterable[Mapping[str, object]],
    allow_torn_tail: bool,
    with_decisions: bool,
) -> ReplayLog:
    """:func:`read_replay_log`; without the decisions (``decisions=()``) for
    the verifier, which reads them from the file as it compares them."""
    stream = (
        _JsonlRecords(source, allow_torn_tail) if isinstance(source, (str, Path)) else None
    )
    header: Optional[Dict[str, object]] = None
    jobs: List[Job] = []
    tenants: List[str] = []
    decisions: List[ServedDecision] = []
    rejects = 0
    summary: Optional[Dict[str, object]] = None
    for record in source if stream is None else stream:
        kind = record.get("type")
        if kind == "header":
            header = {key: value for key, value in record.items() if key != "type"}
        elif kind == "submit":
            jobs.append(job_from_wire(record["job"]))
            # A log names few tenants many times; one string object each.
            tenants.append(sys.intern(str(record.get("tenant", ""))))
        elif kind == "decision":
            if with_decisions:
                decisions.append(decision_from_wire(record))
        elif kind == "reject":
            rejects += 1
        elif kind == "drain":
            summary = {key: value for key, value in record.items() if key != "type"}
    if header is None:
        raise ValueError("replay log has no header record")
    return ReplayLog(
        header=header,
        jobs=tuple(jobs),
        tenants=tuple(tenants),
        decisions=tuple(decisions),
        rejects=rejects,
        summary=summary,
        torn_tail=stream is not None and stream.torn_at is not None,
    )


def build_replay_simulator(header: Mapping[str, object], agent: RLBackfillAgent) -> Simulator:
    """Rebuild the service's simulator configuration from a log header.

    The strategy wraps ``agent`` exactly as the service did
    (``deterministic=True`` and the header's ``row_block``), so the policy
    forward runs through the same kernel path bit for bit.
    """
    from repro.service.server import topology_from_node_groups

    row_block = header.get("row_block")
    strategy = RLBackfillPolicy(
        agent,
        deterministic=True,
        label="replay",
        row_block=None if row_block is None else int(row_block),
    )
    return Simulator(
        num_processors=int(header["num_processors"]),
        policy=str(header.get("policy", "FCFS")),
        backfill=strategy,
        estimator=UserEstimate(),
        bsld_threshold=float(header.get("bsld_threshold", 10.0)),
        topology=topology_from_node_groups(header.get("node_groups")),
    )


#: Mismatches a :class:`ReplayCheck` spells out; a diverged replay differs in
#: every later decision and the first few say why.
_MAX_MISMATCHES = 8


@dataclass(frozen=True, slots=True)
class ReplayCheck:
    """Outcome of one offline replay verification."""

    jobs: int
    decisions: int
    matched: bool
    mismatches: tuple[str, ...]
    result: Optional[SimulationResult]
    #: Whether the source log ended in a dropped torn final record.
    torn_tail: bool = False

    def raise_on_mismatch(self) -> "ReplayCheck":
        if not self.matched:
            detail = "; ".join(self.mismatches[:5])
            raise AssertionError(
                f"replay parity violated ({len(self.mismatches)} mismatch(es)): {detail}"
            )
        return self


def verify_replay_log(
    source: str | Path | Iterable[Mapping[str, object]] | ReplayLog,
    agent: RLBackfillAgent,
    allow_torn_tail: bool = False,
) -> ReplayCheck:
    """Replay a log offline and compare decision streams field by field.

    Equality is exact: decision count, order, reserved/chosen job ids, and
    the decision-time floats must all match the log bit for bit.

    With ``allow_torn_tail`` a crashed log (torn final line) verifies
    against its surviving prefix: the logged decisions then only need to be
    a **prefix** of the offline replay -- the crash may have lost decision
    records that were served but not yet durable, and a shorter-than-replay
    log is exactly what a torn tail predicts.  Without it, decision count
    must match exactly and a torn line raises at parse time.
    """
    if isinstance(source, (str, Path)):
        # A file is read twice and its decisions never held: first everything
        # else (the replay needs every job before it can start), then the
        # decision records, each compared with the replay's as both arrive.
        log = _read(source, allow_torn_tail, with_decisions=False)
        logged: Iterator[ServedDecision] = (
            decision_from_wire(record)
            for record in _JsonlRecords(source, allow_torn_tail)
            if record.get("type") == "decision"
        )
    else:
        log = source if isinstance(source, ReplayLog) else read_replay_log(
            source, allow_torn_tail=allow_torn_tail
        )
        logged = iter(log.decisions)
    prefix_ok = allow_torn_tail and log.summary is None
    if not log.jobs:
        orphans = sum(1 for _ in logged)
        return ReplayCheck(
            jobs=0,
            decisions=orphans,
            matched=not orphans,
            mismatches=("log has decisions but no jobs",) if orphans else (),
            result=None,
            torn_tail=log.torn_tail,
        )
    replay = replay_decisions(build_replay_simulator(log.header, agent), log.jobs)
    mismatches: List[str] = []
    logged_count = replayed_count = 0
    result: Optional[SimulationResult] = None
    for record in logged:
        logged_count += 1
        if result is not None:
            continue  # the replay ended first; the rest of the log is only counted
        try:
            fresh = next(replay)
        except StopIteration as stop:
            result = stop.value
            continue
        replayed_count += 1
        if record != fresh and len(mismatches) < _MAX_MISMATCHES:
            mismatches.append(f"decision {record.index}: log {record} != replay {fresh}")
    while result is None:  # the log ended first; likewise
        try:
            next(replay)
            replayed_count += 1
        except StopIteration as stop:
            result = stop.value
    if replayed_count != logged_count and not (prefix_ok and replayed_count > logged_count):
        count = f"decision count: log has {logged_count}, replay produced {replayed_count}"
        mismatches = [count, *mismatches[: _MAX_MISMATCHES - 1]]
    return ReplayCheck(
        jobs=len(log.jobs),
        decisions=logged_count,
        matched=not mismatches,
        mismatches=tuple(mismatches),
        result=result,
        torn_tail=log.torn_tail,
    )
