"""Rollout collection: one shard stepper, one episode scheduler, the in-process engine.

Collecting an epoch of trajectories is one loop, written once for both
rollout engines:

* :class:`ShardStepper` steps a contiguous **shard** of lane environments
  for one **round frame**: per lane a ``STEP`` / ``RESET`` / ``NOOP`` command
  in ascending lane order, a same-round restart of every lane that finishes
  while the frame's restart credits last, then **one**
  :meth:`~repro.core.observation.ObservationBuilder.encode_batch` pass over
  every lane left at a decision point.
* :class:`EpisodeScheduler` is the parent side of a round: it chooses which
  idle lanes start an episode within the remaining quota, runs **one**
  ``ActorCritic.step_batch`` forward pass over every running lane (one
  action per lane from that lane's own rng), grants restart credits, sends
  one round frame per shard, stores the returned transitions in per-lane
  :class:`~repro.rl.buffer.TrajectoryBuffer` instances, and releases
  finished episodes into the epoch buffer in canonical
  ``(lane decision clock, lane)`` order.  It is parameterised only by how a
  round frame reaches a shard and comes back.

:class:`VecBackfillEnv`, the in-process engine, is that scheduler over a
single shard it calls directly; :class:`~repro.rl.lane_pool.ProcessLanePool`
is the same scheduler over one shard per worker process, reached through
shared-memory rings.

Determinism contract (enforced by ``tests/test_vec_env.py`` and the
cross-config matrix in ``tests/test_parity_matrix.py``):

* **Serial parity** -- with one lane, the engine performs exactly the same
  environment interactions, rng draws, and buffer writes as the serial
  ``Trainer.run_trajectory`` path, bit for bit.  The serial path is literally
  the ``num_envs=1`` case.
* **Lane independence** -- each lane owns its environment and its action rng,
  so the trajectory produced for a given (sequence, rng) pair does not depend
  on which lane index it occupies or on what the other lanes are doing.
  Independence is exact down to the floats: the policy/value forward pass
  runs through the batch-invariant matmul kernel
  (:func:`repro.rl.autograd.invariant_matmul`) and every other op in the
  observation-encode/forward/sample path is elementwise or per-row, so a
  lane's stored values and log-probs are bit-identical whether it is
  forwarded alone or batched with any number of other lanes.

The design follows Decima-style vectorized trainers (``VecDagSchedEnv``):
batching across environments amortizes the per-forward-pass overhead, which
dominates rollout collection for the paper's tiny kernel networks.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.env import Environment
from repro.rl.ppo import ActorCritic
from repro.utils.rng import SeedLike, as_rng, spawn_rngs

__all__ = [
    "VecBackfillEnv",
    "ShardStepper",
    "EpisodeScheduler",
    "RoundResult",
    "clone_lane_envs",
    "validate_lanes",
    "validate_rollout_args",
]

#: Per-lane commands of a round frame.
CMD_NOOP = 0
CMD_STEP = 1
CMD_RESET = 2

#: Per-lane statuses of a round result.
LANE_IDLE = 0
LANE_RUNNING = 1
LANE_DONE_RESTARTED = 2
LANE_DONE_IDLE = 3
#: The lane's command raised (a sequence without backfilling opportunities,
#: reset-sampling exhaustion); the other lanes of the shard are unaffected.
LANE_FAILED = 4

#: Terminal-info columns a shard reports for a finished episode.
INFO_FIELDS = ("bsld", "baseline_bsld", "violations", "steps")
_NO_INFO = (0.0,) * len(INFO_FIELDS)

#: A round frame for one shard: per-lane ``cmd`` and ``arg`` (the action of a
#: ``STEP``) plus the restart credits (``-1`` = unlimited, work stealing).
RoundFrame = Tuple[List[int], List[int], int]


def clone_lane_envs(
    env: Environment, num_envs: int, seed: SeedLike = None
) -> List[Environment]:
    """Build ``num_envs`` lane environments from one template.

    Lane 0 is the template itself; lanes 1..N-1 are independent clones seeded
    from ``seed`` via ``env.clone(seed)``.  The ``num_envs == 1`` case draws
    nothing from ``seed``, so a one-lane engine consumes exactly the same rng
    stream as the serial path.  Shared by :meth:`VecBackfillEnv.from_template`
    and the multiprocess :class:`~repro.rl.lane_pool.ProcessLanePool`, which
    is what keeps both backends' lane seeding bit-identical.
    """
    if num_envs <= 0:
        raise ValueError(f"num_envs must be positive, got {num_envs}")
    if num_envs == 1:
        return [env]
    clone = getattr(env, "clone", None)
    if clone is None:
        raise TypeError(
            f"{type(env).__name__} has no clone(); pass explicit lanes instead"
        )
    lane_rngs = spawn_rngs(as_rng(seed), num_envs - 1)
    return [env] + [clone(seed=rng) for rng in lane_rngs]


def validate_lanes(envs: Sequence[Environment]) -> None:
    """The lane-set contract both engines share."""
    if not envs:
        raise ValueError("a rollout engine needs at least one environment lane")
    sizes = {(env.observation_size, env.num_actions) for env in envs}
    if len(sizes) != 1:
        raise ValueError(
            f"environment lanes disagree on observation/action sizes: {sorted(sizes)}"
        )
    if len({id(env) for env in envs}) != len(envs):
        raise ValueError("environment lanes must be distinct instances")
    for env in envs:
        if not hasattr(env, "pending_encode"):
            raise TypeError(
                "rollout engines need deferred-encoding environments (reset/step "
                f"with encode=False); {type(env).__name__} has no pending_encode()"
            )


def validate_rollout_args(
    num_envs: int,
    num_trajectories: int,
    rngs: Sequence[np.random.Generator] | None,
    episode_jobs: Optional[Sequence],
) -> Sequence[np.random.Generator]:
    """Validate the shared ``rollout`` contract; returns the effective rngs."""
    if num_trajectories <= 0:
        raise ValueError(f"num_trajectories must be positive, got {num_trajectories}")
    if episode_jobs is not None and len(episode_jobs) != num_trajectories:
        raise ValueError(
            f"episode_jobs has {len(episode_jobs)} sequences for "
            f"{num_trajectories} trajectories"
        )
    if rngs is None:
        rngs = [as_rng(None) for _ in range(num_envs)]
    if len(rngs) != num_envs:
        raise ValueError(f"need one rng per lane ({num_envs}), got {len(rngs)}")
    return rngs


# -- engine statistics ---------------------------------------------------------
_COUNTER_KEYS = (
    "rollouts",
    "rounds",
    "decisions",
    "episodes",
    "steal_banked",
    "steal_credited",
    "respawns",
    "replayed_commands",
    "forward_ns",
    "encode_ns",
    "step_ns",
    "result_wait_ns",
    "worker_wait_ns",
    "rollout_ns",
)


def engine_counters(metrics: MetricsRegistry, engine: str) -> Dict[str, object]:
    """The cumulative counters behind an engine's ``stats()``.

    They live in an engine-private, always-enabled registry: the global
    on/off switch gates *extra* instrumentation, never the ``stats()``
    surface tests and tools rely on.
    """
    return {key: metrics.counter(f"engine_{key}_total", engine=engine) for key in _COUNTER_KEYS}


def engine_stats(counters: Dict[str, object], engine: str, num_workers: int) -> Dict[str, float]:
    """``stats()`` of either engine: the same keys, a view over ``counters``.

    ``worker_idle_fraction`` is the mean fraction of rollout wall time the
    workers spent blocked on their command rings; the worker, respawn and
    wait entries are structurally zero for the in-process engine, which has
    no workers to idle or lose.
    """
    value = {key: counter.value for key, counter in counters.items()}
    busy_ns = num_workers * value["rollout_ns"]
    return {
        "engine": engine,
        "num_workers": num_workers,
        "rollouts": value["rollouts"],
        "rounds": value["rounds"],
        "decisions": value["decisions"],
        "episodes": value["episodes"],
        "steal_banked": value["steal_banked"],
        "steal_credited": value["steal_credited"],
        "respawns": value["respawns"],
        "replayed_commands": value["replayed_commands"],
        "worker_idle_fraction": round(value["worker_wait_ns"] / busy_ns, 4) if busy_ns else 0.0,
        "forward_s": value["forward_ns"] / 1e9,
        "encode_s": value["encode_ns"] / 1e9,
        "step_s": value["step_ns"] / 1e9,
        "result_wait_s": value["result_wait_ns"] / 1e9,
        "worker_wait_s": value["worker_wait_ns"] / 1e9,
        "rollout_s": value["rollout_ns"] / 1e9,
    }


# -- one shard, one round ------------------------------------------------------
class RoundResult(NamedTuple):
    """What a shard hands back for one round frame.

    ``status``, ``reward`` and ``info`` (an :data:`INFO_FIELDS` row, meaningful
    for a lane that finished an episode) are indexed by the shard's local
    lane; ``obs`` and ``mask`` hold one row per lane left at a decision point
    (status ``RUNNING`` or ``DONE_RESTARTED``), in ascending lane order.
    """

    status: List[int]
    reward: List[float]
    info: Sequence
    claimed: int
    obs: Optional[np.ndarray]
    mask: Optional[np.ndarray]
    step_ns: int
    encode_ns: int
    errors: Dict[int, BaseException]


class ShardStepper:
    """Steps one shard of lane environments, one round frame at a time.

    The in-process engine calls :meth:`round` directly on its single shard;
    a lane-pool worker calls it once per command frame popped from its ring.
    ``cat`` names the trace category and span prefix (``engine.step`` /
    ``worker.step``); ``episode_jobs``, when set, is an iterator of fixed job
    sequences that every reset of the shard consumes in order instead of
    sampling (the in-process engine's fixed-sequence mode).
    """

    def __init__(self, envs: Sequence[Environment], cat: str, span_args: Optional[Dict] = None):
        self.envs: List[Environment] = list(envs)
        self.builder = self.envs[0].builder
        self.episode_jobs: Optional[Iterator] = None
        self._cat = cat
        self._span_args = span_args
        self._replay_args = {**(span_args or {}), "replay": True}
        self._tracer = get_tracer()

    def _reset(self, env: Environment) -> np.ndarray:
        if self.episode_jobs is None:
            return env.reset(encode=False)[1]
        return env.reset(jobs=next(self.episode_jobs), encode=False)[1]

    def round(self, cmd: List[int], arg: List[int], credits: int, replay: bool = False) -> RoundResult:
        """Execute one round frame; ``replay`` only tags the recorded spans."""
        envs = self.envs
        status = [LANE_IDLE] * len(envs)
        reward = [0.0] * len(envs)
        info: List[Sequence[float]] = [_NO_INFO] * len(envs)
        errors: Dict[int, BaseException] = {}
        masks: List[np.ndarray] = []
        encode_lanes: List[int] = []
        claimed = 0
        t_step = time.perf_counter_ns()
        for lane, op in enumerate(cmd):
            if op == CMD_NOOP:
                continue
            env = envs[lane]
            try:
                if op == CMD_RESET:
                    mask = self._reset(env)
                    status[lane] = LANE_RUNNING
                else:
                    result = env.step(arg[lane], encode=False)
                    reward[lane] = result.reward
                    if not result.done:
                        mask = result.mask
                        status[lane] = LANE_RUNNING
                    else:
                        info[lane] = [float(result.info[key]) for key in INFO_FIELDS]
                        if credits == 0:
                            status[lane] = LANE_DONE_IDLE
                            continue
                        # Restart in the same round, where a serial loop
                        # would call reset() right after the terminal step.
                        mask = self._reset(env)
                        claimed += 1
                        if credits > 0:
                            credits -= 1
                        status[lane] = LANE_DONE_RESTARTED
            except Exception as exc:
                # The lane's own failure: reported, not raised, so the other
                # lanes of the shard still complete the round.
                status[lane] = LANE_FAILED
                errors[lane] = exc
                continue
            masks.append(mask)
            encode_lanes.append(lane)
        step_ns = time.perf_counter_ns() - t_step
        tracer = self._tracer
        span_args = self._replay_args if replay else self._span_args
        if tracer.enabled:
            tracer.complete(f"{self._cat}.step", t_step, step_ns, cat=self._cat, args=span_args)

        obs = mask_rows = None
        encode_ns = 0
        if encode_lanes:
            t_encode = time.perf_counter_ns()
            obs = self.builder.encode_batch([envs[lane].pending_encode() for lane in encode_lanes])
            mask_rows = np.stack(masks)
            encode_ns = time.perf_counter_ns() - t_encode
            if tracer.enabled:
                tracer.complete(
                    f"{self._cat}.encode", t_encode, encode_ns, cat=self._cat, args=span_args
                )
        return RoundResult(
            status, reward, info, claimed, obs, mask_rows, step_ns, encode_ns, errors
        )


# -- the one loop --------------------------------------------------------------
class EpisodeScheduler:
    """Collects episodes from sharded lanes, round by round.

    ``shards[s] = (first_lane, one_past_last_lane)`` -- contiguous, so global
    lane order equals (shard order, local lane order).  ``exchange(frames)``
    takes one :data:`RoundFrame` per shard (``None`` for a shard with nothing
    to do this round) and returns, in shard order, one :class:`RoundResult`
    per shard (``None`` likewise); everything about *how* a frame travels --
    a direct call, or rings, liveness and respawn -- is the caller's.

    State that outlives a :meth:`rollout` call exists for work stealing:
    lanes left mid-episode (their stored steps, current observation and mask
    rows) and the bank of finished-but-uncredited episodes.
    """

    def __init__(
        self,
        shards: Sequence[Tuple[int, int]],
        exchange: Callable[[List[Optional[RoundFrame]]], Iterable[Optional[RoundResult]]],
        counters: Dict[str, object],
        work_stealing: bool,
        span_args: Dict,
    ):
        self.shards = list(shards)
        self.num_envs = self.shards[-1][1]
        self.work_stealing = bool(work_stealing)
        self._exchange = exchange
        self._counters = counters
        self._span_args = span_args
        #: lane -> (shard, local lane within the shard)
        self._slot = [
            (shard, local) for shard, (lo, hi) in enumerate(self.shards) for local in range(hi - lo)
        ]
        #: Lanes at a decision point of an unfinished episode (ascending), and
        #: their observation / mask rows -- the next forward pass's input.
        self._rows: List[int] = []
        self._obs: Optional[np.ndarray] = None
        self._mask: Optional[np.ndarray] = None
        self._buffers: List[TrajectoryBuffer] = []
        self._reward = [0.0] * self.num_envs
        self._steps = [0] * self.num_envs
        self._bank: List[Tuple[Dict, TrajectoryBuffer]] = []

    @property
    def banked_episodes(self) -> int:
        """Finished next-call episodes waiting to be credited."""
        return len(self._bank)

    @property
    def inflight_lanes(self) -> int:
        """Lanes left mid-episode by the last call (stolen work resumes)."""
        return len(self._rows)

    def _forget_inflight(self) -> None:
        """Abandon every unfinished episode; its lane restarts from a reset."""
        for lane_buffer in self._buffers:
            lane_buffer.clear()
        self._rows, self._obs, self._mask = [], None, None

    def _match_buffers(self, buffer: TrajectoryBuffer) -> None:
        """Per-lane buffers with the epoch buffer's ``gamma``/``lam``."""
        held = self._buffers
        if held and (held[0].gamma, held[0].lam) != (buffer.gamma, buffer.lam):
            if self._bank or any(len(lane_buffer) for lane_buffer in held):
                raise ValueError(
                    "cannot change buffer gamma/lam while stolen episodes are in flight"
                )
            held = []
        if not held:
            self._buffers = [
                TrajectoryBuffer(gamma=buffer.gamma, lam=buffer.lam)
                for _ in range(self.num_envs)
            ]

    def rollout(
        self,
        actor_critic: ActorCritic,
        num_trajectories: int,
        buffer: TrajectoryBuffer,
        rngs: Sequence[np.random.Generator],
        deterministic: bool,
        sampled: bool,
    ) -> List[Dict]:
        """Collect ``num_trajectories`` episodes into ``buffer``; returns their infos.

        ``sampled`` says the call collects sampled episodes under the
        stochastic policy -- the only kind work stealing may carry from one
        call to the next.  Any other call (fixed sequences, argmax
        evaluation) drops the partial steps of episodes in flight, restarts
        their lanes and leaves the bank for the next sampled call.
        """
        counters = self._counters
        if not sampled:
            self._forget_inflight()
        self._match_buffers(buffer)
        infos: List[Dict] = []
        if sampled:
            while self._bank and len(infos) < num_trajectories:
                info, episode = self._bank.pop(0)
                buffer.absorb(episode)
                infos.append(info)
                counters["steal_credited"].inc()
            if len(infos) >= num_trajectories:
                return infos

        counters["rollouts"].inc()
        tracer = get_tracer()
        t_rollout = time.perf_counter_ns()
        try:
            self._rounds(actor_critic, num_trajectories, buffer, rngs, deterministic,
                         self.work_stealing and sampled, infos)
        except BaseException:
            # Results were applied for some lanes and not others: no lane's
            # episode can be continued.
            self._forget_inflight()
            raise
        finally:
            rollout_ns = time.perf_counter_ns() - t_rollout
            counters["rollout_ns"].inc(rollout_ns)
            tracer.complete(
                "engine.rollout", t_rollout, rollout_ns, cat="engine", args=self._span_args
            )
        return infos

    def _rounds(
        self,
        actor_critic: ActorCritic,
        num_trajectories: int,
        buffer: TrajectoryBuffer,
        rngs: Sequence[np.random.Generator],
        deterministic: bool,
        stealing: bool,
        infos: List[Dict],
    ) -> None:
        """The round loop: run rounds until ``infos`` holds ``num_trajectories``.

        Each round: idle lanes start while the quota of episode starts lasts
        (always, under stealing); every running lane gets one action from
        one batched forward pass; each shard's frame carries its lanes'
        commands plus **credits** -- how many lanes that finish this round
        may restart inside it: ``min(remaining quota, lanes stepped)`` handed
        out in shard order, unlimited under stealing; the results'
        transitions are stored, and finished episodes are pushed on a heap
        keyed by ``(decisions the lane stored this call, lane)``.  An episode
        leaves the heap once no lane that may still finish one -- running, or
        idle while restarts remain -- could do so under a smaller key.  With
        one shard that is completion order.  With several, a lane whose
        restart had to wait a round for an explicit ``RESET`` (the credits
        that would have covered it were granted to an earlier shard and went
        unclaimed) lags its own clock, and the heap is what keeps the epoch
        buffer in the single-shard order.  Released episodes are credited
        while the call's count lasts and banked afterwards.
        """
        counters, tracer = self._counters, get_tracer()
        shards, slot, num_envs = self.shards, self._slot, self.num_envs
        buffers, episode_reward, episode_steps = self._buffers, self._reward, self._steps
        # Episodes already in flight count toward the quota of episode starts.
        quota = max(0, num_trajectories - len(infos) - len(self._rows))
        clocks = [0] * num_envs
        finished: List[tuple] = []  # heap of (clock, lane, info, episode buffer)

        def release(horizon: Optional[Tuple[int, int]]) -> None:
            """Pop finished episodes keyed below ``horizon`` (all, if ``None``)."""
            while finished and (horizon is None or finished[0][:2] < horizon):
                _, _, info, episode = heapq.heappop(finished)
                if len(infos) < num_trajectories:
                    infos.append(info)
                    buffer.absorb(episode)
                else:
                    self._bank.append((info, episode))
                    counters["steal_banked"].inc()

        while len(infos) < num_trajectories:
            rows, obs, mask = self._rows, self._obs, self._mask
            starts: List[int] = []
            budget = num_envs if stealing else quota
            if budget and len(rows) < num_envs:
                running = set(rows)
                for lane in range(num_envs):
                    if lane not in running:
                        starts.append(lane)
                        if len(starts) >= budget:
                            break
            if not rows and not starts:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"rollout stalled with {len(infos)}/{num_trajectories} episodes collected"
                )
            if not stealing:
                quota -= len(starts)

            actions: List[int] = []
            if rows:
                t0 = time.perf_counter_ns()
                acts, vals, lps = actor_critic.step_batch(
                    obs,
                    mask,
                    rngs=None if deterministic else [rngs[lane] for lane in rows],
                    deterministic=deterministic,
                )
                dt = time.perf_counter_ns() - t0
                counters["forward_ns"].inc(dt)
                tracer.complete("engine.forward", t0, dt, cat="engine")
                actions, values, log_probs = acts.tolist(), vals.tolist(), lps.tolist()

            # One frame per shard with work to do: STEP the running lanes,
            # RESET the lanes chosen to start.
            cmds = [[CMD_NOOP] * (hi - lo) for lo, hi in shards]
            args = [[0] * (hi - lo) for lo, hi in shards]
            for row, lane in enumerate(rows):
                shard, local = slot[lane]
                cmds[shard][local], args[shard][local] = CMD_STEP, actions[row]
            for lane in starts:
                shard, local = slot[lane]
                cmds[shard][local] = CMD_RESET
            frames: List[Optional[RoundFrame]] = []
            grant = quota
            for cmd, arg in zip(cmds, args):
                if not any(cmd):  # every lane NOOP
                    frames.append(None)
                    continue
                credits = -1 if stealing else min(grant, cmd.count(CMD_STEP))
                grant -= max(credits, 0)
                frames.append((cmd, arg, credits))
            counters["rounds"].inc()

            # Results fold in shard order == ascending lane order, so ``row``
            # walks the forward batch in step with the stepped lanes.
            row = 0
            next_rows: List[int] = []
            obs_parts: List[np.ndarray] = []
            mask_parts: List[np.ndarray] = []
            for shard, result in enumerate(self._exchange(frames)):
                if result is None:
                    continue
                if not stealing:
                    quota -= result.claimed
                lo, cmd, reward = shards[shard][0], cmds[shard], result.reward
                for local, status in enumerate(result.status):
                    if status == LANE_IDLE:
                        continue
                    lane = lo + local
                    if cmd[local] == CMD_RESET:
                        episode_reward[lane], episode_steps[lane] = 0.0, 0
                        next_rows.append(lane)
                        continue
                    lane_buffer = buffers[lane]
                    lane_buffer.store(
                        obs[row], mask[row], actions[row], reward[local],
                        values[row], log_probs[row],
                    )
                    row += 1
                    clocks[lane] += 1
                    episode_reward[lane] += reward[local]
                    episode_steps[lane] += 1
                    if status == LANE_RUNNING:
                        next_rows.append(lane)
                        continue
                    lane_buffer.finish_path(last_value=0.0)
                    counters["episodes"].inc()
                    terminal = result.info[local]
                    info = {
                        "bsld": float(terminal[0]),
                        "baseline_bsld": float(terminal[1]),
                        "violations": int(round(terminal[2])),
                        "steps": int(round(terminal[3])),
                        "episode_reward": episode_reward[lane],
                        "episode_steps": episode_steps[lane],
                        "lane": lane,
                    }
                    episode = TrajectoryBuffer(gamma=buffer.gamma, lam=buffer.lam)
                    episode.absorb(lane_buffer)
                    heapq.heappush(finished, (clocks[lane], lane, info, episode))
                    if status == LANE_DONE_RESTARTED:
                        episode_reward[lane], episode_steps[lane] = 0.0, 0
                        next_rows.append(lane)
                if result.obs is not None:
                    obs_parts.append(result.obs)
                    mask_parts.append(result.mask)
            counters["decisions"].inc(row)
            self._rows = next_rows
            if len(obs_parts) == 1:
                # One shard: encode_batch's matrix is the next forward input.
                self._obs, self._mask = obs_parts[0], mask_parts[0]
            elif obs_parts:
                self._obs, self._mask = np.concatenate(obs_parts), np.concatenate(mask_parts)
            else:
                self._obs = self._mask = None

            if finished:
                may_finish = range(num_envs) if (stealing or quota > 0) else next_rows
                release(min(((clocks[lane] + 1, lane) for lane in may_finish), default=None))
        # No lane can complete anything further for this call: what the
        # canonical order was still holding back is surplus for the next one.
        release(None)


# -- the in-process engine -----------------------------------------------------
class VecBackfillEnv:
    """Steps N independent backfilling environments in this process.

    The :class:`EpisodeScheduler` over one :class:`ShardStepper` holding
    every lane, called directly: ``encode_batch``'s matrix goes to the next
    forward pass as it is, with no per-lane copies.
    """

    def __init__(self, envs: Sequence[Environment], work_stealing: bool = False):
        """``work_stealing=True`` runs sampled rollouts the way a stealing
        :class:`~repro.rl.lane_pool.ProcessLanePool` does (see
        :meth:`rollout`); it is the single-process row of the stealing parity
        matrix.  The default never starts more episodes than a call credits,
        which is what the trainer's local backend uses."""
        validate_lanes(envs)
        self._stepper = ShardStepper(envs, cat="engine")
        self.envs: List[Environment] = self._stepper.envs
        self.work_stealing = bool(work_stealing)
        self.metrics = MetricsRegistry(enabled=True)
        self._counters = engine_counters(self.metrics, "local")
        self._scheduler = EpisodeScheduler(
            [(0, len(self.envs))],
            self._exchange,
            self._counters,
            self.work_stealing,
            {"engine": "local", "lanes": len(self.envs)},
        )

    # -- construction --------------------------------------------------------
    @classmethod
    def from_template(
        cls,
        env: Environment,
        num_envs: int,
        seed: SeedLike = None,
        work_stealing: bool = False,
    ) -> "VecBackfillEnv":
        """Build ``num_envs`` lanes from one template environment.

        Lane 0 is the template itself (so the ``num_envs=1`` engine is the
        serial environment, unchanged); the other lanes are independent
        clones seeded from ``seed``.  The template must expose ``clone(seed)``
        (as :class:`~repro.core.environment.BackfillEnvironment` does).
        """
        return cls(clone_lane_envs(env, num_envs, seed=seed), work_stealing=work_stealing)

    # -- properties -----------------------------------------------------------
    @property
    def num_envs(self) -> int:
        return len(self.envs)

    @property
    def observation_size(self) -> int:
        return self.envs[0].observation_size

    @property
    def num_actions(self) -> int:
        return self.envs[0].num_actions

    def stats(self) -> Dict[str, float]:
        """Cumulative engine statistics, same keys as the process backend."""
        return engine_stats(self._counters, "local", 0)

    # -- rollout ---------------------------------------------------------------
    def _exchange(self, frames: List[Optional[RoundFrame]]) -> Tuple[RoundResult]:
        """A round frame reaches the one shard by a direct call."""
        result = self._stepper.round(*frames[0])
        self._counters["step_ns"].inc(result.step_ns)
        self._counters["encode_ns"].inc(result.encode_ns)
        if result.errors:
            raise result.errors[min(result.errors)]
        return (result,)

    def rollout(
        self,
        actor_critic: ActorCritic,
        num_trajectories: int,
        buffer: TrajectoryBuffer,
        rngs: Sequence[np.random.Generator] | None = None,
        deterministic: bool = False,
        episode_jobs: Optional[Sequence] = None,
    ) -> List[Dict]:
        """Collect ``num_trajectories`` episodes across all lanes.

        Each round batches the observations of every running lane into one
        matrix, runs a single forward pass through ``actor_critic``, and steps
        each lane with its sampled action.  A lane that finishes an episode
        starts the next one in the same round while other lanes keep running,
        so no lane idles waiting for a barrier.

        Parameters
        ----------
        actor_critic:
            Policy/value model driven through :meth:`ActorCritic.step_batch`.
        num_trajectories:
            Total episodes to collect across all lanes.
        buffer:
            Epoch buffer receiving every completed trajectory (via
            :meth:`TrajectoryBuffer.absorb`, in completion order).
        rngs:
            One action-sampling generator per lane.  Defaults to fresh
            generators (only acceptable for throwaway rollouts).
        deterministic:
            Argmax actions instead of sampling (evaluation mode).
        episode_jobs:
            Optional list of ``num_trajectories`` fixed job sequences; episode
            ``k`` is started with ``reset(jobs=episode_jobs[k])`` instead of
            sampling from the lane's trace.  Episodes are handed to lanes in
            order as lanes become free.

        Returns one info dict per completed episode (the environment's
        terminal info plus ``episode_reward``/``episode_steps``/``lane``), in
        completion order.

        **Work-stealing mode** (``work_stealing=True`` at construction,
        effective only for sampled non-deterministic rollouts, exactly like
        the process pool): every lane restarts after finishing an episode
        instead of parking once the remaining quota is below the lane count,
        and completed episodes are credited in ``(lane decision clock, lane)``
        order until ``num_trajectories`` are credited.  Surplus episodes and
        the lanes still mid-episode carry over to the next sampled call, as
        in the pool -- it is the same scheduler -- so the credited stream is
        bit-identical to a stealing pool's at any worker count.
        """
        rngs = validate_rollout_args(self.num_envs, num_trajectories, rngs, episode_jobs)
        self._stepper.episode_jobs = None if episode_jobs is None else iter(episode_jobs)
        return self._scheduler.rollout(
            actor_critic, num_trajectories, buffer, rngs, deterministic,
            sampled=episode_jobs is None and not deterministic,
        )

    def __repr__(self) -> str:
        return f"VecBackfillEnv(num_envs={self.num_envs}, envs={type(self.envs[0]).__name__})"
