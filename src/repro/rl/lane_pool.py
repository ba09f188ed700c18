"""Multiprocess rollout lane pool with shared-memory batching.

:class:`ProcessLanePool` scales rollout collection across CPU cores: a
persistent pool of worker processes each hosts a contiguous **shard** of
simulator lanes, and the parent keeps running one batched policy forward pass
per round across every worker's running lanes.  The round loop itself is not
here: it is :class:`~repro.rl.vec_env.EpisodeScheduler`, the same scheduler
the in-process engine runs, and each worker wraps the same
:class:`~repro.rl.vec_env.ShardStepper` in a loop over its command ring.
This module is only *how a round frame reaches a shard and comes back*:

1. the scheduler's frame for a shard -- per-lane ``STEP`` / ``RESET`` /
   ``NOOP`` commands, the sampled actions, the restart credits -- is written
   into that worker's command ring (:class:`~repro.rl.ipc.ShmRing`):
   fixed-layout ``int64``/``float64`` arrays, nothing is pickled;
2. the worker steps its shard and pushes statuses, rewards, terminal infos
   and the encoded observation / mask rows back through its result ring;
3. the parent pops results in worker order, which is ascending lane order.

Around that sit the things only a process boundary needs: liveness probes
while blocked on a ring, the list of frames in flight, and **respawn-replay**
-- a dead worker is replaced in place and driven back to the dead one's last
acknowledged state from the lanes' recorded history (see
``docs/resilience.md`` §3), so a fault costs wall clock, never content.

The pool collects **sampled** episodes (training rollouts, and argmax
evaluation over sampled sequences); fixed job sequences are the in-process
engine's.

**Drain-phase work stealing.**  At the tail of an epoch lanes finish at
different times and the forward-pass batch would shrink.  With
``work_stealing=True`` (the default) a lane that finishes an episode
immediately starts an episode for the *next* epoch instead of idling;
episodes completed beyond the requested count -- and the partial
trajectories still in flight when :meth:`rollout` returns -- are **banked**
and credited to the next :meth:`rollout` call.  Batches stay full through the
drain phase at the cost of collecting a small, bounded amount of next-epoch
experience under the current policy (PPO's importance ratios already account
for slightly stale behaviour policies).

**Determinism contract** (see ``docs/simulator.md`` §4-§5): worker shards
preserve global lane indexing, workers process commands in ascending lane
order, per-lane episode-sampling rngs live inside the worker's environment
while per-lane action rngs stay in the parent, the forward pass runs through
the batch-invariant matmul kernel, and finished episodes enter the epoch
buffer in canonical ``(lane decision clock, lane)`` order.  Together those
make the pool bit-identical to the in-process engine for the same lanes and
seeds at any worker count (asserted in ``tests/test_lane_pool.py`` and the
cross-config matrix in ``tests/test_parity_matrix.py``).
"""

from __future__ import annotations

import os
import time
import traceback
import weakref
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.faults.plan import FaultPlan
from repro.obs import WORKER_PUBLISHED_COUNTERS, get_metrics, get_tracer
from repro.obs.collect import sidecar_path, write_sidecar
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import trace_spool_dir
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.env import Environment
from repro.rl.ipc import Field, FrameLayout, ShmRing, worker_context
from repro.rl.ppo import ActorCritic
from repro.rl.vec_env import (
    CMD_NOOP,
    CMD_RESET,
    CMD_STEP,
    INFO_FIELDS,
    LANE_DONE_RESTARTED,
    LANE_FAILED,
    LANE_RUNNING,
    EpisodeScheduler,
    RoundFrame,
    RoundResult,
    ShardStepper,
    VecBackfillEnv,
    clone_lane_envs,
    engine_counters,
    engine_stats,
    validate_lanes,
    validate_rollout_args,
)
from repro.utils.rng import SeedLike

__all__ = ["ProcessLanePool", "make_rollout_engine", "available_worker_count"]

# -- wire protocol -------------------------------------------------------------
#: Command-frame kinds.
_KIND_ROUND = 0
_KIND_SHUTDOWN = 1

#: Result-frame kinds.
_RES_OK = 0
_RES_ERROR = 1

#: Frames a ring holds: the round in flight plus the shutdown frame behind it.
_RING_CAPACITY = 2
#: Seconds the parent waits on one ring operation before giving the round up.
_ROUND_TIMEOUT = 120.0
#: Replacements one worker slot may consume before the pool gives up on it.
_MAX_RESPAWNS = 8


def available_worker_count() -> int:
    """CPU cores usable by this process (affinity-aware, at least 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _command_layout(shard: int) -> FrameLayout:
    return FrameLayout(
        [
            Field("kind", (), "int64"),
            Field("credits", (), "int64"),
            # 1 on frames re-issued from the recovery history (so a respawned
            # worker's catch-up spans are tagged in the merged trace), 0 on
            # first-run rounds.  Every ROUND push site writes it explicitly:
            # ShmRing.push leaves unwritten fields holding stale slot bytes.
            Field("replay", (), "int64"),
            Field("cmd", (shard,), "int64"),
            Field("arg", (shard,), "int64"),
        ]
    )


def _result_layout(shard: int, observation_size: int, num_actions: int) -> FrameLayout:
    return FrameLayout(
        [
            Field("kind", (), "int64"),
            Field("claimed", (), "int64"),
            Field("wait_ns", (), "int64"),
            Field("step_ns", (), "int64"),
            Field("encode_ns", (), "int64"),
            # Per-frame deltas of the worker's process-global observability
            # counters (one int64 slot per WORKER_PUBLISHED_COUNTERS name);
            # the parent folds them into its own registry, so global metric
            # totals cover simulator work done inside worker processes.
            Field("published", (len(WORKER_PUBLISHED_COUNTERS),), "int64"),
            Field("status", (shard,), "int64"),
            Field("reward", (shard,), "float64"),
            Field("info", (shard, len(INFO_FIELDS)), "float64"),
            # One row per lane left at a decision point, packed from row 0 in
            # ascending lane order; the rows beyond them are unused.
            Field("obs", (shard, observation_size), "float64"),
            Field("mask", (shard, num_actions), "float64"),
        ]
    )


# -- worker process ------------------------------------------------------------
def _worker_main(
    envs,
    cmd_ring: ShmRing,
    res_ring: ShmRing,
    pipe,
    worker_index: int = 0,
    generation: int = 0,
) -> None:
    """Host a shard of lane environments: one ``ShardStepper.round`` per frame.

    Each result frame also carries this worker's deltas of the process-global
    counters named in WORKER_PUBLISHED_COUNTERS, from a baseline taken at
    worker start, so only simulator work done *inside* this process is
    published upstream (the parent counted its own construction-time work
    directly); while the global registry is disabled every delta is zero.
    The worker's tracer ring (enabled through the REPRO_OBS_TRACE environment
    variable under spawn, or inherited live under fork) records the stepper's
    ``worker.step`` / ``worker.encode`` spans and drains into a sidecar file
    at shutdown when a spool directory is configured -- see
    repro.obs.collect for the merge side.  ``generation > 0`` marks a respawn.
    """
    stepper = ShardStepper(envs, cat="worker", span_args={"worker": worker_index})
    shard = len(envs)
    pub_handles = [get_metrics().counter(name) for name in WORKER_PUBLISHED_COUNTERS]
    pub_last = [handle.value for handle in pub_handles]
    wait_ns = 0
    try:
        while True:
            t0 = time.perf_counter_ns()
            frame = cmd_ring.pop()
            wait_ns += time.perf_counter_ns() - t0
            if int(frame["kind"]) == _KIND_SHUTDOWN:
                break
            result = stepper.round(
                frame["cmd"].tolist(),
                frame["arg"].tolist(),
                int(frame["credits"]),
                replay=bool(frame["replay"]),
            )
            obs = np.zeros((shard, envs[0].observation_size), dtype=np.float64)
            mask = np.zeros((shard, envs[0].num_actions), dtype=np.float64)
            if result.obs is not None:
                obs[: len(result.obs)] = result.obs
                mask[: len(result.mask)] = result.mask
            if result.errors:
                # Sent before the result frame so the parent's follow-up
                # recv finds it already queued.
                pipe.send((
                    "lane_errors",
                    {
                        lane: (type(exc).__name__, "".join(traceback.format_exception(exc)))
                        for lane, exc in result.errors.items()
                    },
                ))
            published = np.zeros(len(WORKER_PUBLISHED_COUNTERS), dtype=np.int64)
            for slot, handle in enumerate(pub_handles):
                value = handle.value
                published[slot] = value - pub_last[slot]
                pub_last[slot] = value
            res_ring.push(
                {
                    "kind": _RES_OK,
                    "claimed": result.claimed,
                    "wait_ns": wait_ns,
                    "step_ns": result.step_ns,
                    "encode_ns": result.encode_ns,
                    "published": published,
                    "status": result.status,
                    "reward": result.reward,
                    "info": result.info,
                    "obs": obs,
                    "mask": mask,
                }
            )
            wait_ns = 0
    except Exception:  # pragma: no cover - exercised via the error-path test
        detail = traceback.format_exc()
        try:
            pipe.send(("error", detail))
        except Exception:
            pass
        try:
            res_ring.push({"kind": _RES_ERROR}, timeout=1.0)
        except Exception:
            pass
    finally:
        spool = trace_spool_dir()
        tracer = get_tracer()
        if spool is not None and tracer.recorded > 0:
            # Drain this worker's span ring into its sidecar file for the
            # parent-side merge.  Best-effort: a failed export must never
            # mask the real teardown (or error) path.  A SIGKILLed worker
            # skips this entirely -- its ring is simply lost; the respawned
            # replacement exports under a generation-tagged label instead.
            label = f"lane-pool-worker-{worker_index}"
            if generation:
                label = f"{label}.r{generation}"
            try:
                write_sidecar(sidecar_path(spool, label), tracer, label=label)
            except Exception:  # pragma: no cover - defensive
                pass
        cmd_ring.detach()
        res_ring.detach()
        pipe.close()


class _WorkerDied(RuntimeError):
    """A worker process exited; carries the worker index for recovery."""

    def __init__(self, worker: int, message: str):
        super().__init__(message)
        self.worker = worker


def _shutdown_pool(processes, cmd_rings, res_rings, pipes) -> None:
    """Best-effort teardown shared by ``close()`` and the GC finalizer."""
    for process, ring in zip(processes, cmd_rings):
        if process.is_alive():
            try:
                ring.push({"kind": _KIND_SHUTDOWN}, timeout=0.5)
            except Exception:
                pass
    deadline = time.monotonic() + 5.0
    for process in processes:
        process.join(timeout=max(0.1, deadline - time.monotonic()))
        if process.is_alive():  # pragma: no cover - defensive
            process.terminate()
            process.join(timeout=1.0)
    for ring in (*cmd_rings, *res_rings):
        ring.close()
    for pipe in pipes:
        try:
            pipe.close()
        except Exception:  # pragma: no cover - already closed
            pass


class ProcessLanePool:
    """Persistent pool of worker processes hosting simulator lane shards.

    Implements the same ``rollout`` / ``stats`` surface as
    :class:`~repro.rl.vec_env.VecBackfillEnv` for sampled episodes; construct
    one through :func:`make_rollout_engine` with ``backend="process"``.
    """

    def __init__(
        self,
        envs: Sequence[Environment],
        num_workers: int | None = None,
        work_stealing: bool = True,
        respawn: bool = True,
        fault_plan: FaultPlan | None = None,
    ):
        validate_lanes(envs)
        self._num_envs = len(envs)
        self._observation_size = int(envs[0].observation_size)
        self._num_actions = int(envs[0].num_actions)
        self.work_stealing = bool(work_stealing)

        num_workers = num_workers if num_workers is not None else available_worker_count()
        self.num_workers = max(1, min(int(num_workers), self._num_envs))
        bounds = np.linspace(0, self._num_envs, self.num_workers + 1).astype(int)
        #: ``shards[w] = (first_lane, one_past_last_lane)`` -- contiguous, so
        #: global lane order equals (worker order, local lane order).
        self.shards = [(int(bounds[w]), int(bounds[w + 1])) for w in range(self.num_workers)]
        self._ctx = worker_context()

        # Crash-recovery state.  The parent retains the lane environments it
        # handed to the workers: under fork the children get copy-on-write
        # views and under spawn they get pickled copies, so these objects
        # stay pristine no matter what the workers do to their shards.  A
        # respawned worker restarts from them and replays each lane's
        # acknowledged history -- that many sampled resets (each consumes
        # the per-lane rng draws it consumed the first time), then the
        # current episode's actions -- reconstructing the dead worker's
        # shard bit for bit.
        self.respawn = bool(respawn)
        self.fault_plan = fault_plan
        self._lane_envs = list(envs)
        self._reset_counts = [0] * self._num_envs
        self._action_history: List[List[int]] = [[] for _ in range(self._num_envs)]
        #: Per worker, the round frames pushed and not yet answered.
        self._inflight: List[List[dict]] = [[] for _ in range(self.num_workers)]
        self._respawn_counts = [0] * self.num_workers
        self._rounds_completed = 0

        self._cmd_rings: List[ShmRing] = []
        self._res_rings: List[ShmRing] = []
        self._pipes = []
        self._processes = []
        try:
            for worker in range(self.num_workers):
                self._spawn_worker(worker)
        except BaseException:
            # A mid-loop failure (e.g. unpicklable environment under spawn)
            # must not leak the rings and workers already created.
            _shutdown_pool(
                self._processes, self._cmd_rings, self._res_rings, self._pipes
            )
            raise

        self._closed = False
        self._desynced = False
        # finalize() both backs close() and runs at interpreter exit / GC, so
        # worker processes and shared-memory segments can never leak.  The
        # containers are the live lists (not snapshots): worker respawn
        # replaces entries in place, and the finalizer must tear down the
        # current generation, not the original one.
        self._finalizer = weakref.finalize(
            self,
            _shutdown_pool,
            self._processes,
            self._cmd_rings,
            self._res_rings,
            self._pipes,
        )

        #: Workers whose first result frame of the current rollout() has been
        #: seen.  ``None`` outside rollouts.  A worker accrues command-ring
        #: wait continuously, so the wait reported by its *first* frame of a
        #: rollout covers the inter-rollout gap (PPO updates, pool idle time)
        #: and must not count toward the in-rollout idle fraction.
        self._rollout_wait_credit: Optional[set] = None
        # Engine statistics live in a pool-private, always-enabled registry:
        # the aggregate counters back stats(), while per-worker labelled
        # counters expose the shard-level breakdown through metrics
        # snapshots / exposition.
        self.metrics = MetricsRegistry(enabled=True)
        self._counters = engine_counters(self.metrics, "process")
        self._worker_counters = [
            {
                key: self.metrics.counter(
                    f"engine_worker_{key}_total",
                    engine="process",
                    worker=str(worker),
                )
                for key in ("wait_ns", "step_ns", "encode_ns")
            }
            for worker in range(self.num_workers)
        ]
        # Parent-side handles the workers' published deltas fold into; these
        # are the same global-registry counters the simulator increments
        # in-process, so totals are engine-agnostic.
        self._published_handles = tuple(
            get_metrics().counter(name) for name in WORKER_PUBLISHED_COUNTERS
        )
        # Held weakly: a scheduler owning a bound method of the pool would be
        # a reference cycle, and dropping the last reference to a pool must
        # run the finalizer at once, not at the next cyclic collection.
        exchange = weakref.WeakMethod(self._exchange)
        self._scheduler = EpisodeScheduler(
            self.shards,
            lambda frames: exchange()(frames),
            self._counters,
            self.work_stealing,
            {"engine": "process", "lanes": self._num_envs, "workers": self.num_workers},
        )

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_template(
        cls,
        env: Environment,
        num_envs: int,
        seed: SeedLike = None,
        **kwargs,
    ) -> "ProcessLanePool":
        """Build ``num_envs`` lanes from one template environment.

        Lane construction is shared with
        :meth:`VecBackfillEnv.from_template` (same helper, same rng draws),
        so a pool and an in-process engine built from the same template and
        seed host bit-identical lane environments.
        """
        return cls(clone_lane_envs(env, num_envs, seed=seed), **kwargs)

    # -- properties ------------------------------------------------------------
    @property
    def num_envs(self) -> int:
        return self._num_envs

    @property
    def observation_size(self) -> int:
        return self._observation_size

    @property
    def num_actions(self) -> int:
        return self._num_actions

    @property
    def pending_banked_episodes(self) -> int:
        """Completed next-epoch episodes waiting to be credited."""
        return self._scheduler.banked_episodes

    @property
    def pending_inflight_lanes(self) -> int:
        """Lanes currently mid-episode (stolen work resumes next call)."""
        return self._scheduler.inflight_lanes

    def stats(self) -> Dict[str, float]:
        """Cumulative engine statistics, same keys as the in-process engine.

        ``step_s`` / ``encode_s`` are summed over workers;
        ``worker_idle_fraction`` is the mean fraction of rollout wall time
        the workers spent blocked on command frames.
        """
        return engine_stats(self._counters, "process", self.num_workers)

    # -- workers: spawn, liveness, recovery --------------------------------------
    def _spawn_worker(self, worker: int) -> None:
        """(Re)create ``worker``'s rings, pipe, and process from pristine envs.

        Replaces the entries in the live ``_cmd_rings``/``_res_rings``/
        ``_pipes``/``_processes`` lists (the GC finalizer holds those same
        lists), appending during initial construction.
        """
        lo, hi = self.shards[worker]
        cmd_ring = ShmRing(_command_layout(hi - lo), _RING_CAPACITY, self._ctx)
        res_ring = ShmRing(
            _result_layout(hi - lo, self._observation_size, self._num_actions),
            _RING_CAPACITY,
            self._ctx,
        )
        parent_pipe, child_pipe = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            # The respawn count doubles as the span-export generation tag: a
            # replacement worker's sidecar is labelled ``...-N.rG`` so its
            # recovery-replay spans are distinguishable in the merged trace.
            args=(
                list(self._lane_envs[lo:hi]),
                cmd_ring,
                res_ring,
                child_pipe,
                worker,
                self._respawn_counts[worker],
            ),
            name=f"lane-pool-worker-{worker}",
            daemon=True,
        )
        process.start()
        child_pipe.close()
        for live, item in (
            (self._cmd_rings, cmd_ring),
            (self._res_rings, res_ring),
            (self._pipes, parent_pipe),
            (self._processes, process),
        ):
            # Slot ``worker``: replaced on respawn, appended on first spawn.
            live[worker : worker + 1] = [item]

    def _death(self, worker: int) -> _WorkerDied:
        return _WorkerDied(
            worker,
            f"lane-pool worker {worker} died unexpectedly" + self._drain_error(worker),
        )

    def _check_alive(self) -> None:
        if self._closed:
            raise RuntimeError("ProcessLanePool is closed")
        if self._desynced:
            raise RuntimeError(
                "ProcessLanePool is desynchronized (a previous rollout was aborted "
                "mid-round); close() it and build a new pool"
            )
        for worker, process in enumerate(self._processes):
            if not process.is_alive():
                raise self._death(worker)

    def _check_worker(self, worker: int) -> None:
        """Liveness probe scoped to one worker (used during recovery replay)."""
        if not self._processes[worker].is_alive():
            raise self._death(worker)

    def _ensure_alive(self) -> None:
        """Entry-point liveness check: recover dead workers when allowed."""
        while True:
            try:
                self._check_alive()
                return
            except _WorkerDied as exc:
                self._handle_death(exc)

    def _handle_death(self, exc: _WorkerDied) -> None:
        """Respawn the dead worker, or re-raise when recovery is off/exhausted."""
        if not self.respawn:
            raise exc
        if self._respawn_counts[exc.worker] >= _MAX_RESPAWNS:
            raise RuntimeError(
                f"lane-pool worker {exc.worker} was respawned {_MAX_RESPAWNS} times; "
                f"giving up: {exc}"
            )
        self._recover_worker(exc.worker)

    def _recover_worker(self, worker: int) -> None:
        """Deterministically rebuild ``worker`` after its process died.

        Fresh rings + process from the pristine lane envs, then per shard
        lane as many sampled resets as the dead worker had acknowledged
        (consuming exactly the rng draws it consumed) and the current
        episode's actions, and finally every round frame that was in flight
        when the worker died.  The replacement ends bit-identical to the
        dead one at its last acknowledged state, so the interrupted round
        simply re-executes.
        """
        self._respawn_counts[worker] += 1
        self._counters["respawns"].inc()
        process = self._processes[worker]
        if process.is_alive():  # pragma: no cover - raced liveness probe
            process.terminate()
        process.join(timeout=5.0)
        # Old rings hold stale/partial frames; discard them wholesale.
        self._cmd_rings[worker].close()
        self._res_rings[worker].close()
        try:
            self._pipes[worker].close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._spawn_worker(worker)
        if self._rollout_wait_credit is not None:
            # The replacement's first frame reports setup/replay wait, not
            # in-rollout idling; re-establish its baseline like a first frame.
            self._rollout_wait_credit.discard(worker)
        lo, hi = self.shards[worker]
        for lane in range(lo, hi):
            for _ in range(self._reset_counts[lane]):
                self._replay_command(worker, lane - lo, CMD_RESET, 0)
            for action in self._action_history[lane]:
                self._replay_command(worker, lane - lo, CMD_STEP, action)
        for values in self._inflight[worker]:
            self._raw_push(worker, values)

    def _replay_command(self, worker: int, local: int, op: int, arg: int) -> None:
        """Re-execute one historical command on a respawned worker's lane.

        Replay result frames are popped raw: published counter deltas and
        timing are NOT folded into the parent registries, so recovery leaves
        global metric totals equal to an unfailed run's (the original
        execution was already counted).
        """
        lo, hi = self.shards[worker]
        cmd = [CMD_NOOP] * (hi - lo)
        args = [0] * (hi - lo)
        cmd[local], args[local] = op, arg
        self._raw_push(
            worker,
            {"kind": _KIND_ROUND, "credits": 0, "replay": 1, "cmd": cmd, "arg": args},
        )
        frame = self._res_rings[worker].pop(
            timeout=_ROUND_TIMEOUT, liveness=lambda: self._check_worker(worker)
        )
        if int(frame["kind"]) == _RES_ERROR:
            raise RuntimeError(f"lane-pool worker {worker} failed" + self._drain_error(worker))
        self._counters["replayed_commands"].inc()

    def _raw_push(self, worker: int, values: Dict[str, object]) -> None:
        self._cmd_rings[worker].push(
            values, timeout=_ROUND_TIMEOUT, liveness=lambda: self._check_worker(worker)
        )

    def _inject_kills(self) -> None:
        """SIGKILL workers the fault plan schedules after the completed round.

        Round indices count completed rounds over the pool's lifetime;
        recovery happens lazily on the next ring operation that notices the
        death, exercising the same path an organic crash takes.
        """
        if self.fault_plan is None or not self.fault_plan.has_worker_kills:
            return
        kills = self.fault_plan.kills_for_round(self._rounds_completed)
        self._rounds_completed += 1
        for index in kills:
            process = self._processes[index % self.num_workers]
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)

    def _drain_error(self, worker: int) -> str:
        pipe = self._pipes[worker]
        try:
            while pipe.poll(0):
                tag, payload = pipe.recv()
                if tag == "error":
                    return f"; worker traceback:\n{payload}"
        except (EOFError, OSError):
            pass
        return ""

    # -- one round frame out, one result back ----------------------------------
    def _push_round(self, worker: int, frame: RoundFrame) -> None:
        """Record the frame as in flight, then deliver it (surviving deaths).

        A pushed frame stays on the worker's in-flight list until the result
        that answers it is popped.  If the worker dies mid-delivery -- or
        died earlier and the ring op is what notices -- recovery re-pushes
        the whole in-flight list onto the replacement's fresh ring, this
        frame included.
        """
        cmd, arg, credits = frame
        values = {"kind": _KIND_ROUND, "credits": credits, "replay": 0, "cmd": cmd, "arg": arg}
        self._inflight[worker].append(values)
        while True:
            try:
                self._cmd_rings[worker].push(
                    values, timeout=_ROUND_TIMEOUT, liveness=self._check_alive
                )
                return
            except _WorkerDied as exc:
                self._handle_death(exc)
                if exc.worker == worker:
                    # Recovery already delivered every in-flight frame to
                    # the replacement worker.
                    return

    def _pop_result(self, worker: int) -> RoundResult:
        t0 = time.perf_counter_ns()
        while True:
            try:
                frame = self._res_rings[worker].pop(
                    timeout=_ROUND_TIMEOUT, liveness=self._check_alive
                )
                break
            except _WorkerDied as exc:
                # Any dead worker surfaces here (the liveness probe scans the
                # whole pool).  Recover it and retry: if it was this worker,
                # its in-flight frames were re-pushed and the replacement is
                # producing the result we were waiting for.
                self._handle_death(exc)
        self._counters["result_wait_ns"].inc(time.perf_counter_ns() - t0)
        if int(frame["kind"]) == _RES_ERROR:
            raise RuntimeError(
                f"lane-pool worker {worker} failed" + self._drain_error(worker)
            )
        status = frame["status"].tolist()
        self._raise_lane_failures(worker, status)
        # This result answers the oldest in-flight frame: its commands are
        # now part of the lanes' acknowledged history.
        sent = self._inflight[worker].pop(0)
        lo = self.shards[worker][0]
        for local, (op, state) in enumerate(zip(sent["cmd"], status)):
            if op == CMD_NOOP:
                continue
            actions = self._action_history[lo + local]
            if op == CMD_STEP and state == LANE_RUNNING:
                actions.append(sent["arg"][local])
                continue
            # A reset starts a new episode, so the previous episode's
            # actions become irrelevant (it discards simulator state; only
            # the sampling rng draws persist, and the count captures those).
            actions.clear()
            if op == CMD_RESET or state == LANE_DONE_RESTARTED:
                self._reset_counts[lo + local] += 1

        per_worker = self._worker_counters[worker]
        if self._rollout_wait_credit is not None:
            if worker in self._rollout_wait_credit:
                wait_ns = int(frame["wait_ns"])
                self._counters["worker_wait_ns"].inc(wait_ns)
                per_worker["wait_ns"].inc(wait_ns)
            else:
                # First frame of this rollout: its wait spans the
                # inter-rollout gap, not in-rollout idling.
                self._rollout_wait_credit.add(worker)
        step_ns, encode_ns = int(frame["step_ns"]), int(frame["encode_ns"])
        self._counters["step_ns"].inc(step_ns)
        per_worker["step_ns"].inc(step_ns)
        self._counters["encode_ns"].inc(encode_ns)
        per_worker["encode_ns"].inc(encode_ns)
        # Fold the worker's published global-counter deltas into ours.
        for handle, delta in zip(self._published_handles, frame["published"]):
            if delta:
                handle.inc(int(delta))
        rows = sum(state in (LANE_RUNNING, LANE_DONE_RESTARTED) for state in status)
        return RoundResult(
            status,
            frame["reward"].tolist(),
            frame["info"],
            int(frame["claimed"]),
            frame["obs"][:rows] if rows else None,
            frame["mask"][:rows] if rows else None,
            step_ns,
            encode_ns,
            {},
        )

    def _raise_lane_failures(self, worker: int, status: List[int]) -> None:
        """Re-raise a per-lane failure reported by ``worker``.

        The exception type mirrors the local engine, where e.g. a sequence
        without backfilling opportunities raises ``ValueError``.
        """
        if LANE_FAILED not in status:
            return
        pipe = self._pipes[worker]
        if not pipe.poll(5.0):  # pragma: no cover - worker sent before pushing
            raise RuntimeError(f"lane-pool worker {worker} reported a failure without detail")
        tag, lane_errors = pipe.recv()
        assert tag == "lane_errors", tag
        lo, _ = self.shards[worker]
        local, (exc_type, detail) = next(iter(sorted(lane_errors.items())))
        exc_class = ValueError if exc_type == "ValueError" else RuntimeError
        raise exc_class(
            f"lane {lo + local} command failed in worker {worker} ({exc_type}):\n{detail}"
        )

    def _exchange(self, frames: List[Optional[RoundFrame]]) -> Iterator[Optional[RoundResult]]:
        """Push every shard's frame, then yield the results in worker order.

        Workers with nothing to do this round (fully drained shard) are
        skipped entirely -- no frame, no round-trip.
        """
        for worker, frame in enumerate(frames):
            if frame is not None:
                self._push_round(worker, frame)
        for worker, frame in enumerate(frames):
            yield None if frame is None else self._pop_result(worker)
        self._inject_kills()

    # -- rollout ---------------------------------------------------------------
    def rollout(
        self,
        actor_critic: ActorCritic,
        num_trajectories: int,
        buffer: TrajectoryBuffer,
        rngs: Sequence[np.random.Generator] | None = None,
        deterministic: bool = False,
        episode_jobs: Optional[Sequence] = None,
    ) -> List[Dict]:
        """Collect ``num_trajectories`` sampled episodes across all workers' lanes.

        Same contract as :meth:`VecBackfillEnv.rollout`, for sampled episodes:
        ``episode_jobs`` is rejected -- fixed sequences are the in-process
        engine's.  With work stealing enabled (stochastic calls only;
        ``deterministic=True`` is forwarded to the forward pass and disables
        it), completed-but-surplus episodes and in-flight partial
        trajectories carry over to the next call instead of letting the
        batch drain.
        """
        if episode_jobs is not None:
            raise ValueError(
                "ProcessLanePool collects sampled episodes only; run fixed episode_jobs "
                "through the in-process engine (VecBackfillEnv)"
            )
        rngs = validate_rollout_args(self._num_envs, num_trajectories, rngs, None)
        self._ensure_alive()
        rounds_before = self._counters["rounds"].value
        self._rollout_wait_credit = set()
        try:
            return self._scheduler.rollout(
                actor_critic, num_trajectories, buffer, rngs, deterministic,
                sampled=not deterministic,
            )
        except BaseException:
            if self._counters["rounds"].value != rounds_before:
                # An abort once a round was issued (KeyboardInterrupt, a lane
                # failure, one worker timing out after another's frame was
                # pushed) can leave unconsumed frames in the rings and lanes
                # the scheduler no longer tracks; a retried rollout would
                # pair stale results with new commands.  Poison the pool so
                # later calls fail loudly.
                self._desynced = True
            raise
        finally:
            self._rollout_wait_credit = None

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Shut workers down and release every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "ProcessLanePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ProcessLanePool(num_envs={self._num_envs}, num_workers={self.num_workers}, "
            f"work_stealing={self.work_stealing})"
        )


def make_rollout_engine(
    environment: Environment,
    num_envs: int,
    seed: SeedLike = None,
    backend: str = "local",
    num_workers: int | None = None,
    work_stealing: bool = True,
    respawn: bool = True,
    fault_plan: FaultPlan | None = None,
):
    """Build a rollout engine over ``num_envs`` lanes cloned from a template.

    ``backend="local"`` returns the in-process
    :class:`~repro.rl.vec_env.VecBackfillEnv`; ``backend="process"`` returns
    a :class:`ProcessLanePool` whose lanes live in worker processes.  Both
    backends derive lane seeds identically from ``seed``, so for one worker
    (stealing off) they produce bit-identical trajectories.

    ``work_stealing`` is deliberately NOT forwarded to the local backend,
    even though :class:`~repro.rl.vec_env.VecBackfillEnv` has a stealing
    mode: the trainer's default config sets ``work_stealing=True``, and
    wiring it through here would silently change every local-backend
    training run's trajectory stream.  The local stealing mode is a parity
    *reference* -- construct ``VecBackfillEnv`` with ``work_stealing=True``
    directly when you want it (as ``tests/test_parity_matrix.py`` does).
    """
    if backend == "local":
        return VecBackfillEnv.from_template(environment, num_envs, seed=seed)
    if backend == "process":
        return ProcessLanePool.from_template(
            environment,
            num_envs,
            seed=seed,
            num_workers=num_workers,
            work_stealing=work_stealing,
            respawn=respawn,
            fault_plan=fault_plan,
        )
    raise ValueError(f"unknown rollout backend {backend!r}; use 'local' or 'process'")
