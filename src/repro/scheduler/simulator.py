"""Discrete-event HPC batch scheduling simulator.

The simulator replays a job sequence against a homogeneous machine under a
base priority policy (FCFS, SJF, WFP3, F1) and a backfilling strategy.  It is
the RL-compatible simulator the paper builds on (the RLScheduler simulator):
the core loop is a generator that *yields* a
:class:`~repro.scheduler.events.DecisionPoint` whenever a backfilling
opportunity arises and receives the chosen job in response.  Heuristic
strategies (EASY, conservative, ...) are driven by :meth:`Simulator.run`;
the RL training environment drives the same generator step by step.

Simulation rules (matching the paper's setting):

* Jobs are rigid: a job occupies exactly ``requested_processors`` processors
  for exactly its *actual* runtime once started.
* The base policy picks the highest-priority waiting job; if it fits it
  starts immediately, otherwise a reservation is computed from the runtime
  estimator and backfilling is attempted.
* Runtime estimates affect only reservations and backfilling checks, never
  the simulated completion times.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Generator, Iterable, Iterator, List, Optional, Sequence

from repro.cluster.allocator import job_request, make_allocator
from repro.cluster.machine import DowntimeWindow, Machine
from repro.cluster.resources import ClusterTopology
from repro.faults.plan import NodeFailure, RestartPolicy, as_restart_policy
from repro.obs import get_metrics, metrics_enabled
from repro.prediction.predictors import RuntimeEstimator, UserEstimate
from repro.scheduler.backfill.base import BackfillStrategy
from repro.scheduler.backfill.none import NoBackfill
from repro.scheduler.events import DecisionPoint, arrival_key
from repro.scheduler.metrics import BSLD_THRESHOLD, JobRecord, ScheduleMetrics, compute_metrics
from repro.scheduler.policies import PriorityPolicy, get_policy
from repro.workloads.job import Job

__all__ = [
    "Simulator",
    "SimulationResult",
    "OnlineSession",
    "ServedDecision",
    "replay_decisions",
    "capture_decisions",
]

_EPS = 1e-9

# Hot-path instrumentation (docs/observability.md).  Handles are resolved
# once at import.  The event loop tallies plain ints on _SimState (a per-call
# Counter.inc() in the innermost loops costs ~5% of a simulator run even
# disabled) and publishes through _flush_sim_counters at sequence end
# (offline) or per processed event batch (OnlineSession).  These count
# *deterministic* events -- no clocks -- so enabling collection cannot
# perturb the bit-parity contract.  Worker processes accumulate them locally
# and the lane pool publishes per-frame deltas to the parent through its
# shared-memory result rings (repro.obs.WORKER_PUBLISHED_COUNTERS).
_SCHEDULE_PASSES = get_metrics().counter("sim_schedule_passes_total")
_DECISION_POINTS = get_metrics().counter("sim_decision_points_total")
_BACKFILL_STARTS = get_metrics().counter("sim_backfill_starts_total")
_PREEMPTIONS = get_metrics().counter("sim_preemptions_total")
_REQUEUES = get_metrics().counter("sim_requeues_total")


def _flush_sim_counters(state: "_SimState") -> None:
    """Publish the state's not-yet-published event tallies to the global
    counters.  Idempotent (tracks per-state high-water marks), so callers may
    flush mid-run and again at completion."""
    delta = state.schedule_passes - state.published_passes
    if delta:
        _SCHEDULE_PASSES.inc(delta)
        state.published_passes = state.schedule_passes
    delta = state.decision_count - state.published_decisions
    if delta:
        _DECISION_POINTS.inc(delta)
        state.published_decisions = state.decision_count
    delta = state.backfill_count - state.published_backfills
    if delta:
        _BACKFILL_STARTS.inc(delta)
        state.published_backfills = state.backfill_count
    delta = state.preemption_count - state.published_preemptions
    if delta:
        _PREEMPTIONS.inc(delta)
        state.published_preemptions = state.preemption_count
    delta = state.requeue_count - state.published_requeues
    if delta:
        _REQUEUES.inc(delta)
        state.published_requeues = state.requeue_count
    if metrics_enabled() and state.machine.topology is not None:
        # Per-node-group free-capacity gauges for heterogeneous clusters.
        # Gauges are deterministic snapshots of simulator state (no clocks),
        # so publishing them keeps the bit-parity contract; the gauge lookup
        # is dict-keyed and cheap relative to the flush's counter work.
        registry = get_metrics()
        for group, vector in state.machine.hetero_free_map().items():
            for resource, value in vector.as_dict().items():
                registry.gauge(
                    "cluster_group_free", group=group, resource=resource
                ).set(value)


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Outcome of scheduling one job sequence."""

    label: str
    records: tuple[JobRecord, ...]
    metrics: ScheduleMetrics
    decision_count: int = 0
    backfill_count: int = 0
    #: Running jobs killed by node failures (and requeued under the restart
    #: policy) over the sequence.  The two counts differ only if a future
    #: policy ever discards a victim instead of requeueing it.
    preemption_count: int = 0
    requeue_count: int = 0

    @property
    def bsld(self) -> float:
        """Average bounded slowdown (the paper's headline metric)."""
        return self.metrics.average_bounded_slowdown

    def record_for(self, job_id: int) -> JobRecord:
        for record in self.records:
            if record.job.job_id == job_id:
                return record
        raise KeyError(f"no record for job {job_id}")

    def __repr__(self) -> str:
        return (
            f"SimulationResult(label={self.label!r}, jobs={len(self.records)}, "
            f"bsld={self.bsld:.2f}, backfilled={self.backfill_count})"
        )


@dataclass
class _SimState:
    """Mutable state threaded through one simulation run."""

    machine: Machine
    pending: deque
    queue: List[Job] = field(default_factory=list)
    now: float = 0.0
    records: Dict[int, JobRecord] = field(default_factory=dict)
    decision_count: int = 0
    backfill_count: int = 0
    schedule_passes: int = 0
    # Node-failure machinery (repro.faults): failures not yet applied, sorted
    # by time; per-job elapsed-runtime credit accumulated across preempted
    # runs; per-job remaining-runtime override for the next start (present
    # only under the checkpoint restart policy); per-job preemption tallies.
    failures: deque = field(default_factory=deque)
    elapsed_credit: Dict[int, float] = field(default_factory=dict)
    remaining: Dict[int, float] = field(default_factory=dict)
    restarts: Dict[int, int] = field(default_factory=dict)
    preemption_count: int = 0
    requeue_count: int = 0
    # High-water marks of the tallies already published to the global
    # counters (see _flush_sim_counters): flushing is idempotent and safe
    # mid-run, which the incremental OnlineSession relies on.
    published_passes: int = 0
    published_decisions: int = 0
    published_backfills: int = 0
    published_preemptions: int = 0
    published_requeues: int = 0
    # Census of the waiting queue, per group of the machine's layout: queued
    # jobs per ``requested_processors``, over the jobs eligible in that group
    # (no zero entries); the scalar machine is its one-group case.
    # ``enqueue`` / ``dequeue`` are the only code that changes ``queue``, so
    # the two cannot drift apart.
    queued_widths: List[Dict[int, int]] = field(init=False)
    # The event loop's position (Simulator._events): whether the clock has
    # started, whether the current instant's scheduling pass is still to
    # run, and the job that pass left blocked (``None`` if it drained the
    # queue).
    started: bool = False
    schedule_due: bool = False
    blocked: Optional[Job] = None

    def __post_init__(self) -> None:
        self.queued_widths = [{} for _ in self.machine.layout.groups]

    def enqueue(self, job: Job) -> None:
        """Add ``job`` to the waiting queue at its ``(submit_time, job_id)`` place.

        Arrivals come off the sorted pending deque and land at the tail; a
        job requeued by a node failure keeps its original position.
        """
        queue = self.queue
        if queue and arrival_key(job) < arrival_key(queue[-1]):
            insort(queue, job, key=arrival_key)
        else:
            queue.append(job)
        width = job.requested_processors
        for position in self.machine.eligible_positions(job):
            widths = self.queued_widths[position]
            widths[width] = widths.get(width, 0) + 1

    def queue_index(self, job: Job) -> Optional[int]:
        """Position of ``job`` in the queue, found by its ``(submit_time,
        job_id)`` place, or ``None`` if it is not queued there."""
        queue = self.queue
        index = bisect_left(queue, arrival_key(job), key=arrival_key)
        if index < len(queue) and queue[index].job_id == job.job_id:
            return index
        return None

    def dequeue(self, index: int) -> None:
        """Remove the job at ``queue[index]``."""
        job = self.queue.pop(index)
        width = job.requested_processors
        for position in self.machine.eligible_positions(job):
            widths = self.queued_widths[position]
            left = widths[width] - 1
            if left:
                widths[width] = left
            else:
                del widths[width]


class Simulator:
    """Schedules job sequences on a simulated homogeneous cluster."""

    def __init__(
        self,
        num_processors: int,
        policy: PriorityPolicy | str = "FCFS",
        backfill: BackfillStrategy | None = None,
        estimator: RuntimeEstimator | None = None,
        bsld_threshold: float = BSLD_THRESHOLD,
        capacity_schedule: Sequence[DowntimeWindow] | None = None,
        node_failures: Sequence[NodeFailure] | None = None,
        restart_policy: RestartPolicy | str | None = None,
        topology: ClusterTopology | None = None,
        allocator: str = "first_fit",
    ):
        if num_processors <= 0:
            raise ValueError(f"num_processors must be positive, got {num_processors}")
        self.num_processors = int(num_processors)
        self.policy = get_policy(policy)
        self.backfill = backfill if backfill is not None else NoBackfill()
        self.estimator = estimator if estimator is not None else UserEstimate()
        self.bsld_threshold = float(bsld_threshold)
        #: Heterogeneous node-group layout, or ``None`` for the scalar
        #: homogeneous machine (the default and the paper's setting).  The
        #: allocator policy decides which group hosts each job; the scheduling
        #: discipline never sees placement (docs/cluster.md).
        self.topology = topology
        self.allocator_policy = allocator
        self._feasibility = None if topology is None else make_allocator(allocator, topology)
        if topology is not None:
            if topology.total_cpus != num_processors:
                raise ValueError(
                    f"topology supplies {topology.total_cpus} cpus but num_processors "
                    f"is {num_processors}"
                )
            if node_failures:
                raise ValueError(
                    "node-failure injection is not supported on heterogeneous "
                    "topologies; model outages as group-tagged capacity drains"
                )
        #: Scheduled node drains honoured by every simulated sequence: new
        #: starts are capped at the in-service capacity, window boundaries are
        #: simulation events, and reservations/backfill checks see the drained
        #: availability (see :class:`repro.cluster.machine.DowntimeWindow`).
        self.capacity_schedule: tuple[DowntimeWindow, ...] = tuple(capacity_schedule or ())
        #: Node failures injected into every simulated sequence: each kills
        #: the running jobs on the failed nodes at its instant and requeues
        #: them through :attr:`restart_policy` (see :mod:`repro.faults` and
        #: :meth:`repro.cluster.machine.Machine.fail_nodes`).  Unlike the
        #: capacity schedule, a failure's window is *not* known to the
        #: scheduler in advance -- it is injected into the machine's schedule
        #: at the failure instant.
        self.node_failures: tuple[NodeFailure, ...] = tuple(
            sorted(node_failures or (), key=lambda f: (f.time, f.processors))
        )
        self.restart_policy = as_restart_policy(restart_policy)

    # -- public API ---------------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable configuration label, e.g. ``FCFS+EASY(request-time)``."""
        return f"{self.policy.name}+{self.backfill.name}({self.estimator.name})"

    def run(self, jobs: Iterable[Job], backfill: BackfillStrategy | None = None) -> SimulationResult:
        """Schedule ``jobs`` to completion with the configured (or given) strategy."""
        strategy = backfill if backfill is not None else self.backfill
        strategy.on_sequence_start()
        self.estimator.reset()
        gen = self.decision_points(jobs)
        try:
            decision = next(gen)
            while True:
                choice = strategy.select_backfill(decision, self.estimator)
                decision = gen.send(choice)
        except StopIteration as stop:
            result: SimulationResult = stop.value
            return result

    def open_session(self) -> "OnlineSession":
        """Open an incremental :class:`OnlineSession` over this simulator.

        The session drives the same event loop as :meth:`decision_points`
        but accepts submissions over time and only processes events up to an
        explicit event-time horizon -- the online-serving form of the
        simulator (see :mod:`repro.service`).
        """
        return OnlineSession(self)

    def decision_points(
        self, jobs: Iterable[Job]
    ) -> Generator[DecisionPoint, Optional[Job], SimulationResult]:
        """Generator form of the simulation: yields decision points, expects a
        candidate job (or ``None``) back via ``send``; returns the
        :class:`SimulationResult` when the sequence completes."""
        state = self._new_state(sorted(self._validated(jobs), key=arrival_key))
        yield from self._events(state, math.inf, final=True)
        return self._finalize(state)

    # -- internals ----------------------------------------------------------
    def _check_fits_machine(self, job: Job) -> None:
        """Raise ``ValueError`` if ``job`` could never run on this machine."""
        if job.requested_processors > self.num_processors:
            raise ValueError(
                f"job {job.job_id} requests {job.requested_processors} processors but the "
                f"machine has only {self.num_processors}"
            )
        if self._feasibility is None:
            return
        request = job_request(job)
        if not self._feasibility.feasible(request, job.partition):
            raise ValueError(
                f"job {job.job_id} requests {request.as_dict()} "
                f"(partition {job.partition}) but no node group can host it"
            )

    def _validated(self, jobs: Iterable[Job]) -> List[Job]:
        job_list = list(jobs)
        if not job_list:
            raise ValueError("cannot simulate an empty job sequence")
        seen: set[int] = set()
        for job in job_list:
            self._check_fits_machine(job)
            if job.job_id in seen:
                raise ValueError(f"duplicate job id {job.job_id} in sequence")
            seen.add(job.job_id)
        return job_list

    def _new_state(self, pending: Iterable[Job] = ()) -> _SimState:
        """A run's state before its first event: an idle machine, the
        ``pending`` arrivals (already in arrival order) and the failure plan."""
        return _SimState(
            machine=Machine(
                self.num_processors,
                capacity_schedule=self.capacity_schedule,
                topology=self.topology,
                allocator=self.allocator_policy,
            ),
            pending=deque(pending),
            failures=deque(self.node_failures),
        )

    def _events(
        self, state: _SimState, horizon: float, final: bool
    ) -> Generator[DecisionPoint, Optional[Job], None]:
        """The event loop: process every event with time <= ``horizon``,
        yielding each decision point it meets.

        The clock starts at the first arrival.  Each event instant gets one
        scheduling pass, then the clock jumps to the next event.  ``final``
        says no further arrival can be submitted: only then does an idle
        queue let the clock jump to the machine's last completion, and a
        waiting queue with no event ahead -- it can never start -- raise.
        The loop's position lives on ``state``, so a later call picks up
        where this one stopped.  The event tallies are published however the
        loop ends.
        """
        try:
            if not state.started:
                if not state.pending or state.pending[0].submit_time > horizon:
                    return
                state.started = state.schedule_due = True
                state.now = state.pending[0].submit_time
                # Sync the machine clock so availability queries made before
                # the first start already see the capacity windows active at
                # the first arrival.
                state.machine.advance_to(state.now)
                self._admit(state)
                # Failures dated at or before the first arrival hit an empty
                # machine but still inject their repair windows before the
                # first decision.
                if state.failures:
                    self._process_failures(state)
            while True:
                if state.schedule_due:
                    state.schedule_due = False
                    state.blocked = (
                        (yield from self._schedule_now(state)) if state.queue else None
                    )
                next_time = self._next_event_time(state, final)
                if math.isinf(next_time):
                    if final and state.queue:
                        raise RuntimeError(
                            f"job {state.blocked.job_id} can never start: it waits at "
                            f"t={state.now} with no running job, arrival, failure or "
                            f"capacity boundary ahead"
                        )
                    return
                if next_time > horizon:
                    return
                state.now = max(state.now, next_time)
                state.machine.release_completed(state.now)
                self._admit(state)
                if state.failures:
                    self._process_failures(state)
                state.schedule_due = True
        finally:
            _flush_sim_counters(state)

    def _next_event_time(self, state: _SimState, final: bool) -> float:
        """The next event instant after the current one, or ``inf`` if none is known."""
        machine = state.machine
        next_time = state.pending[0].submit_time if state.pending else math.inf
        if state.queue:
            next_completion = machine.next_completion_time()
            if next_completion is not None and next_completion < next_time:
                next_time = next_completion
        if state.failures:
            next_failure = self._next_failure_time(state)
            if next_failure < next_time:
                next_time = next_failure
        if not state.queue:
            # With an empty waiting queue, intermediate completions cannot
            # enable any scheduling decision, so skip the event gap in one
            # jump -- straight to the next arrival or node failure, or (when
            # neither remains and none can be submitted) to the last
            # completion, draining the machine.  Utilization accounting stays
            # exact because ``release_completed`` integrates each release at
            # its own completion instant.
            if final and math.isinf(next_time):
                last_completion = machine.last_completion_time()
                if last_completion is not None:
                    next_time = last_completion
            return next_time
        if machine.capacity_schedule:
            # A capacity boundary can unblock (window end) or further
            # constrain (window start) the waiting queue, so it is a
            # scheduling event whenever jobs are waiting.  The machine's
            # schedule (not the simulator's) is consulted so the repair
            # windows injected by earlier failures produce events too.
            next_capacity = machine.next_capacity_event(state.now)
            if next_capacity is not None and next_capacity < next_time:
                next_time = next_capacity
        return next_time

    def _admit(self, state: _SimState) -> None:
        while state.pending and state.pending[0].submit_time <= state.now + _EPS:
            state.enqueue(state.pending.popleft())

    def _start(self, state: _SimState, job: Job, backfilled: bool) -> None:
        job_id, now = job.job_id, state.now
        # Only a job preempted by a node failure has a remaining runtime or
        # a restart count.
        remaining = state.remaining.pop(job_id, None) if state.remaining else None
        record = state.machine.start(job, now, self.estimator, remaining)
        state.records[job_id] = JobRecord(
            job, now, record.end_time, backfilled, state.restarts.get(job_id, 0), remaining
        )
        if backfilled:
            state.backfill_count += 1

    def _schedule_now(
        self, state: _SimState
    ) -> Generator[DecisionPoint, Optional[Job], Optional[Job]]:
        """Start every job that can start at the current instant.

        Returns the highest-priority job if it ended up blocked (a reservation
        exists and time must advance), ``None`` if the queue was drained.
        """
        state.schedule_passes += 1
        queue, machine, policy = state.queue, state.machine, self.policy
        by_arrival = policy.selects_by_arrival
        while queue:
            # state.queue is sorted by (submit_time, job_id), so arrival-order
            # policies (FCFS) take -- and dequeue -- the head directly instead
            # of scanning.
            rjob = queue[0] if by_arrival else policy.select(queue, state.now)
            if machine.can_start(rjob):
                self._start(state, rjob, backfilled=False)
                state.dequeue(0 if by_arrival else state.queue_index(rjob))
                continue
            # Backfilling opportunity: the selected job is blocked.
            yield from self._backfill_opportunity(state, rjob)
            return rjob
        return None

    def _backfill_opportunity(
        self, state: _SimState, rjob: Job
    ) -> Generator[DecisionPoint, Optional[Job], None]:
        machine, estimator = state.machine, self.estimator
        # A stateless estimator's reservation is worked out when a reader
        # first asks (conservative never does); a stateful one is asked now,
        # in the order it always was.
        deferred = getattr(estimator, "stateless", False)
        while True:
            # The census answers "is there a candidate" without visiting the
            # queue.  The reserved job is counted in it but is blocked, so in
            # a cpu-only group it is wider than the free cpus and never the
            # reason for a yes; which jobs the candidates are is the decision
            # point's business, derived from its snapshot if a reader asks.
            fits = machine.census_fits(state.queued_widths)
            if fits is None:
                # A group with memory or GPUs: fitting is a placement question,
                # asked until some queued job says yes.
                fits = any(
                    job.job_id != rjob.job_id and machine.can_start(job) for job in state.queue
                )
            if not fits:
                return
            reservation = partial(machine.reservation, rjob, state.now, estimator)
            # ``state.queue`` is kept sorted by (submit_time, job_id), so the
            # snapshot is a plain copy.
            decision = DecisionPoint(
                time=state.now,
                reserved_job=rjob,
                queue=list(state.queue),
                machine=machine,
                queue_sorted=True,
                reservation=reservation if deferred else reservation(),
            )
            state.decision_count += 1
            choice = yield decision
            decision.expire()
            if choice is None:
                return
            index = state.queue_index(choice)
            if index is None or not decision.candidate_slots((state.queue[index],)):
                raise ValueError(
                    f"backfill strategy returned job {choice.job_id} which is not a candidate "
                    f"(candidates: {sorted(decision.candidate_ids())})"
                )
            self._start(state, choice, backfilled=True)
            state.dequeue(index)

    def _next_failure_time(self, state: _SimState) -> float:
        """Time of the next node failure that can still affect the run.

        With waiting or future jobs every pending failure matters (its repair
        window constrains later starts).  Once only running jobs remain, a
        failure dated beyond the last completion can kill nothing and inject
        a window no future start will ever see -- treating it as an event
        would only drag the clock (and the utilization denominator) past the
        true end of the schedule, so it is ignored.
        """
        if not state.failures:
            return math.inf
        time = state.failures[0].time
        if state.pending or state.queue:
            return time
        last_completion = state.machine.last_completion_time()
        if last_completion is not None and time <= last_completion + _EPS:
            return time
        return math.inf

    def _process_failures(self, state: _SimState) -> None:
        """Apply every node failure due at or before the current instant.

        Completions at the failure instant have already been released by
        :meth:`_events`, so a job finishing exactly when the nodes die
        is never a victim.  Victims are removed from the records (their final
        record is re-created when they restart), charged elapsed-runtime
        credit, and requeued at their original ``(submit_time, job_id)``
        position -- a requeued job keeps its queue priority, it does not go
        to the back.
        """
        while state.failures and state.failures[0].time <= state.now + _EPS:
            failure = state.failures.popleft()
            victims = state.machine.fail_nodes(
                state.now, failure.processors, failure.repair_end, start=failure.time
            )
            for victim in victims:
                job = victim.job
                elapsed = max(state.now - victim.start_time, 0.0)
                credit = state.elapsed_credit.get(job.job_id, 0.0) + elapsed
                state.elapsed_credit[job.job_id] = credit
                remaining = self.restart_policy.remaining_runtime(job, credit)
                if remaining is not None:
                    state.remaining[job.job_id] = remaining
                state.restarts[job.job_id] = state.restarts.get(job.job_id, 0) + 1
                state.records.pop(job.job_id, None)
                state.enqueue(job)
            state.preemption_count += len(victims)
            state.requeue_count += len(victims)

    def _finalize(self, state: _SimState) -> SimulationResult:
        records = tuple(
            sorted(state.records.values(), key=lambda r: (r.job.submit_time, r.job.job_id))
        )
        for record in records:
            record.validate()
        metrics = compute_metrics(
            records,
            utilization=state.machine.utilization(state.now),
            threshold=self.bsld_threshold,
        )
        return SimulationResult(
            label=self.label,
            records=records,
            metrics=metrics,
            decision_count=state.decision_count,
            backfill_count=state.backfill_count,
            preemption_count=state.preemption_count,
            requeue_count=state.requeue_count,
        )


@dataclass(frozen=True, slots=True)
class ServedDecision:
    """One backfill decision taken at a decision point, in serving order.

    The tuple ``(index, time, reserved_job_id, chosen_job_id)`` is the unit of
    the online/offline determinism contract: a live :class:`OnlineSession` and
    an offline :meth:`Simulator.run` over the same submission stream must
    produce *equal* sequences of these records -- same count, same order, and
    bit-identical ``time`` floats (all event times are derived from the same
    submit/runtime arithmetic on both sides).
    """

    index: int
    time: float
    reserved_job_id: int
    chosen_job_id: Optional[int]


def _serve(
    gen: Generator[DecisionPoint, Optional[Job], object],
    simulator: Simulator,
    served: int,
) -> Generator[ServedDecision, None, object]:
    """Answer every decision point ``gen`` yields with the simulator's own
    strategy, yielding the :class:`ServedDecision` of each as it is sent;
    ``served`` numbers the first.  Returns what ``gen`` returns."""
    strategy, estimator = simulator.backfill, simulator.estimator
    try:
        decision = next(gen)
        while True:
            choice = strategy.select_backfill(decision, estimator)
            yield ServedDecision(
                index=served,
                time=decision.time,
                reserved_job_id=decision.reserved_job.job_id,
                chosen_job_id=None if choice is None else choice.job_id,
            )
            served += 1
            decision = gen.send(choice)
    except StopIteration as stop:
        return stop.value


def replay_decisions(
    simulator: Simulator, jobs: Iterable[Job]
) -> Generator[ServedDecision, None, SimulationResult]:
    """Run ``simulator`` over ``jobs``, yielding every decision it serves as
    it serves it; the generator returns the :class:`SimulationResult`.

    This is :meth:`Simulator.run` with a tap on the decision stream; the
    offline half of the replay-parity check
    (:func:`repro.service.replay.verify_replay_log`), which compares it with
    the logged stream one record at a time.
    """
    simulator.backfill.on_sequence_start()
    simulator.estimator.reset()
    return (yield from _serve(simulator.decision_points(jobs), simulator, 0))


def capture_decisions(
    simulator: Simulator, jobs: Iterable[Job]
) -> tuple[List[ServedDecision], SimulationResult]:
    """:func:`replay_decisions`, collected: ``(decisions, result)``."""
    decisions: List[ServedDecision] = []
    replay = replay_decisions(simulator, jobs)
    while True:
        try:
            decisions.append(next(replay))
        except StopIteration as stop:
            return decisions, stop.value


class OnlineSession:
    """Incremental driver for the simulator's event loop: the online service.

    :meth:`Simulator.decision_points` takes the whole job sequence up front
    and runs the event loop to completion; a long-lived scheduling service
    instead receives submissions *over time* and must only process events up
    to "now".  ``OnlineSession`` runs the same loop (``Simulator._events``)
    to a horizon at a time, keeping its position on the session's state:

    * :meth:`submit` inserts a job into the pending arrivals (its submit time
      must be strictly after every event already processed);
    * :meth:`advance_to` processes every event with time <= the given event
      time -- arrivals, completions, capacity boundaries -- serving backfill
      decisions through the simulator's configured strategy at exactly the
      instants the offline loop would;
    * :meth:`drain` stops accepting work and runs the loop to completion,
      after which :meth:`result` finalizes the :class:`SimulationResult`.

    **Parity invariant** (enforced by ``tests/test_service.py``): for any
    interleaving of ``submit``/``advance_to`` calls, the decision stream is a
    pure function of the submitted jobs -- replaying them offline through an
    identically configured :class:`Simulator` yields an equal
    :class:`ServedDecision` sequence and an identical final result.  Two
    properties make this hold:

    * events are endogenous (completions, capacity boundaries) or logged
      (arrival times), so the wall-clock granularity of ``advance_to`` calls
      never shifts *when* anything happens in event time;
    * the loop runs one scheduling pass per event instant and remembers
      whether the current instant's pass has run -- calling ``advance_to``
      twice with no intervening event serves no duplicate decision points.
    """

    def __init__(self, simulator: Simulator):
        self.sim = simulator
        self.state = simulator._new_state()
        self._submitted_ids: set[int] = set()
        self._drained = False
        self._result: Optional[SimulationResult] = None
        simulator.backfill.on_sequence_start()
        simulator.estimator.reset()

    # -- submission ---------------------------------------------------------
    @property
    def now(self) -> float:
        """Event time of the last processed event."""
        return self.state.now

    @property
    def queue_depth(self) -> int:
        """Jobs waiting (admitted, not yet started)."""
        return len(self.state.queue)

    @property
    def jobs_submitted(self) -> int:
        return len(self._submitted_ids)

    @property
    def decisions_served(self) -> int:
        """Decisions served so far.  The records themselves belong to the
        callers of :meth:`advance_to` / :meth:`drain`; the session keeps none."""
        return self.state.decision_count

    def submit(self, job: Job) -> None:
        """Accept ``job`` into the pending arrivals.

        ``job.submit_time`` is the event time of the arrival; once the
        session has started processing events it must be strictly greater
        than :attr:`now` (an arrival in the processed past cannot be
        scheduled at its own instant any more, which would break replay
        parity).  Width and duplicate-id validation mirror
        :meth:`Simulator._validated`.
        """
        if self._drained:
            raise RuntimeError("session is drained; no further submissions")
        self.sim._check_fits_machine(job)
        if job.job_id in self._submitted_ids:
            raise ValueError(f"duplicate job id {job.job_id} in session")
        if self.state.started and job.submit_time <= self.state.now:
            raise ValueError(
                f"job {job.job_id} submitted at event time {job.submit_time} but events "
                f"up to {self.state.now} were already processed"
            )
        self._submitted_ids.add(job.job_id)
        pending = self.state.pending
        if pending and arrival_key(job) < arrival_key(pending[-1]):
            # Out-of-order future arrival: keep the deque sorted.
            ordered = sorted([*pending, job], key=arrival_key)
            pending.clear()
            pending.extend(ordered)
        else:
            pending.append(job)

    # -- event processing ---------------------------------------------------
    def _serve_to(self, horizon: float, final: bool) -> Iterator[ServedDecision]:
        """Run the event loop to ``horizon``, serving each decision point
        with the simulator's configured strategy as it comes."""
        state = self.state
        return _serve(self.sim._events(state, horizon, final), self.sim, state.decision_count)

    def advance_to(self, event_time: float) -> List[ServedDecision]:
        """Process every event with time <= ``event_time``.

        Returns the decisions served by this call -- the only copy: the
        session counts them (:attr:`decisions_served`) and keeps none.
        Idempotent between events: re-advancing to the same (or an earlier)
        time serves nothing new.  A live session never makes the final jump
        to the machine's last completion: a later submission may be dated
        before it.
        """
        if self._drained:
            raise RuntimeError("session is drained")
        return list(self._serve_to(event_time, final=False))

    def drain(self) -> List[ServedDecision]:
        """Run the event loop to completion (no further submissions accepted).

        Raises ``RuntimeError`` if a waiting job can never start.  After
        draining, :meth:`result` returns the finalized
        :class:`SimulationResult`.
        """
        return list(self.iter_drain())

    def iter_drain(self) -> Iterator[ServedDecision]:
        """:meth:`drain`, yielding each decision as it is served instead of
        listing them all -- a deep queue drains into several decisions per
        job, and a caller that only logs them need not hold them.  The
        session is drained once the iterator is exhausted."""
        if self._drained:
            return
        yield from self._serve_to(math.inf, final=True)
        self._drained = True

    def result(self) -> SimulationResult:
        """Finalize and return the session's :class:`SimulationResult`."""
        if not self._drained:
            raise RuntimeError("drain() the session before reading its result")
        if not self._submitted_ids:
            raise ValueError("cannot finalize a session that served no jobs")
        if self._result is None:
            self._result = self.sim._finalize(self.state)
        return self._result
