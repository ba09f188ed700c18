"""Proximal Policy Optimization (clipped surrogate objective).

Follows the Spinning Up reference implementation the paper uses: an
actor-critic model, GAE-lambda advantages from :class:`TrajectoryBuffer`, 80
policy/value update iterations per epoch with early stopping on approximate
KL divergence, and Adam for both networks.

Only the update differentiates, so only the update builds a
:class:`~repro.rl.autograd.Tensor` graph.  The rollout forward
(:meth:`ActorCritic.step_batch`) and the deployed decision
(:meth:`ActorCritic.act`) run the same layers on arrays
(:meth:`ActorCritic.infer_slot_scores`, :meth:`ActorCritic.infer_values`)
and the same masked log-softmax
(:func:`_masked_log_softmax`), so their floats equal the graph's bit for bit.

The actor (kernel network) and the critic (value network) share nothing in an
update but its inputs, so when numpy's BLAS runs one thread :meth:`PPO.update`
forks one child per update to run the actor iterations while the parent runs
the critic's.  The child computes the floats the same loop computes in-process
and sends back the kernel weights, the policy Adam moments, the actor's stats
and its iteration timings, which the parent installs and records; the weights
are bit-identical either way.  A BLAS that runs more than one thread (OpenBLAS's
default is one per core), one whose thread count cannot be read, or a platform
without ``fork`` runs the same loop in-process, before the critic's: two
processes of two BLAS threads each oversubscribe the cores, and on a 2-core box
the overlap then made training 0.55-0.67x as fast as the loops back to back.
"""

from __future__ import annotations

import os
import time
import traceback
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.obs import get_metrics, get_tracer
from repro.rl.autograd import Tensor
from repro.rl.ipc import blas_threads, worker_context
from repro.rl.optim import Adam
from repro.utils.rng import SeedLike, as_rng

__all__ = ["ActorCritic", "PPOConfig", "PPOUpdateStats", "PPO"]

#: Additive logit penalty applied to masked-out actions before the softmax.
MASK_PENALTY = 1e8


def _sample_actions(log_probs: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One action per row of ``log_probs``, by inverse-CDF sampling.

    Exactly one uniform per row, drawn from that row's own rng (so lanes stay
    order-independent), rescaled by the actual cdf total so rounding in the
    cumsum cannot push the draw past the last action.  Counting cdf entries
    <= draw is searchsorted(side="right"), vectorized over the batch.
    """
    probs = np.exp(log_probs)
    probs /= probs.sum(axis=1, keepdims=True)
    cdfs = np.cumsum(probs, axis=1)
    uniforms = np.fromiter((rng.random() for rng in rngs), dtype=np.float64, count=len(rngs))
    draws = uniforms * cdfs[:, -1]
    return np.minimum((cdfs <= draws[:, None]).sum(axis=1), cdfs.shape[1] - 1).astype(np.int64)


def _masked_log_softmax(scores: np.ndarray, index, masks: np.ndarray) -> np.ndarray:
    """:meth:`ActorCritic.compacted_log_probs` on arrays, operation for operation.

    ``scores`` of the valid slots scattered at flat positions ``index`` of a
    zero logit grid shaped like ``masks``, the mask penalty added, then the
    log-softmax of :meth:`Tensor.log_softmax`; the same floats, no graph.
    """
    logits = np.zeros(masks.shape, dtype=np.float64)
    logits.reshape(-1)[index] = scores.reshape(-1)
    logits += (1.0 - masks) * -MASK_PENALTY
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class ActorCritic(ABC):
    """Actor-critic model interface consumed by :class:`PPO`.

    The actor is a kernel: one shared network scores every action slot from
    that slot's own feature row, and invalid actions are suppressed through
    the action mask.  A masked slot's probability is exactly 0.0 and so is
    its gradient, hence its score is never computed: only the unmasked slots
    go through the network.  The critic maps the whole observation to a
    scalar state value.

    Each network has two forwards with the same floats: on :class:`Tensor`
    objects, recording a graph for the PPO update (:meth:`slot_scores`,
    :meth:`value`), and on arrays for inference (:meth:`infer_slot_scores`,
    :meth:`infer_values`), which :meth:`step_batch`, :meth:`step` and
    :meth:`act` use because they never differentiate.
    """

    @abstractmethod
    def slot_scores(self, slots: Tensor) -> Tensor:
        """Scores ``(n, 1)`` of ``n`` action slots from their feature rows ``(n, features)``."""

    @abstractmethod
    def value(self, observations: Tensor) -> Tensor:
        """Batch of state values, shape ``(batch,)``."""

    @abstractmethod
    def infer_slot_scores(self, slots: np.ndarray) -> np.ndarray:
        """:meth:`slot_scores` on arrays, bit for bit, building no graph."""

    @abstractmethod
    def infer_values(self, observations: np.ndarray) -> np.ndarray:
        """:meth:`value` on arrays, bit for bit, building no graph."""

    @abstractmethod
    def policy_parameters(self) -> List[Tensor]:
        """The actor's trainable tensors; none of them is also in :meth:`value_parameters`."""

    @abstractmethod
    def value_parameters(self) -> List[Tensor]:
        """The critic's trainable tensors.

        Disjoint from :meth:`policy_parameters` (:class:`PPO` checks): the
        update may run the actor's iterations in another process and install
        its weights after the critic's, which would overwrite a shared tensor's
        critic steps.
        """

    # -- the graph forward of the update ----------------------------------------
    def compact_slots(
        self, observations: np.ndarray, masks: np.ndarray
    ) -> Tuple[Tensor, np.ndarray, Tensor]:
        """Inputs of :meth:`compacted_log_probs`: ``(rows, index, penalty)``.

        ``rows`` holds the feature rows of the unmasked ``(step, slot)`` pairs,
        ``index`` their flat positions in the ``(batch, slots)`` grid and
        ``penalty`` the additive mask grid.  None of them depends on the
        weights, so :meth:`PPO.update` builds them once for all its iterations.
        :func:`_masked_log_softmax` is the same computation on arrays.
        """
        masks = np.asarray(masks, dtype=np.float64)
        index = np.flatnonzero(masks)
        rows = observations.reshape(masks.size, -1)[index]
        return Tensor(rows), index, Tensor((1.0 - masks) * -MASK_PENALTY)

    def compacted_log_probs(self, rows: Tensor, index: np.ndarray, penalty: Tensor) -> Tensor:
        """Score ``rows``, scatter the scores into the logit grid, mask, log-softmax.

        Masked slots keep a logit of 0.0 under the penalty; a row with no
        valid slot at all (never emitted by the environment) comes out uniform.
        """
        logits = self.slot_scores(rows).scatter(index, penalty.shape)
        return (logits + penalty).log_softmax(axis=-1)

    def masked_log_probs(self, observations: Tensor, masks: np.ndarray) -> Tensor:
        """Log-probabilities over actions with masked actions pushed to -inf."""
        return self.compacted_log_probs(*self.compact_slots(observations.numpy(), masks))

    # -- inference ----------------------------------------------------------------
    def step_batch(
        self,
        observations: np.ndarray,
        masks: np.ndarray,
        rngs: Sequence[np.random.Generator] | None = None,
        deterministic: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample (or argmax) one action per row in a single forward pass.

        This is the vectorized rollout primitive: ``observations`` has shape
        ``(num_lanes, observation_size)`` and the policy/value networks run
        once for the whole batch.  ``rngs`` supplies one generator per row so
        each lane's action stream is independent of how many other lanes are
        in the batch and of their order -- lane ``i`` always consumes exactly
        one uniform draw from ``rngs[i]`` per decision.  Row ``i``'s floats
        are **batch-invariant**: the networks' matmuls run through
        :func:`~repro.rl.autograd.invariant_matmul` and the
        masking/softmax/sampling math is elementwise or per-row, so
        ``step_batch(obs[i:i+1], ...)`` returns bit-identical
        ``(action, value, log_prob)`` to row ``i`` of any larger batch
        containing it.  The floats are those of :meth:`masked_log_probs` and
        :meth:`value`, computed on arrays (:meth:`infer_slot_scores`,
        :meth:`infer_values`).

        Returns ``(actions, values, log_probs)`` arrays of length
        ``num_lanes``.
        """
        obs_batch = np.asarray(observations, dtype=np.float64)
        mask_batch = np.asarray(masks, dtype=np.float64)
        if obs_batch.ndim != 2 or mask_batch.ndim != 2:
            raise ValueError("step_batch expects 2-D (batch, features) inputs")
        batch = obs_batch.shape[0]
        index = np.flatnonzero(mask_batch)
        rows = obs_batch.reshape(mask_batch.size, -1)[index]
        log_probs = _masked_log_softmax(self.infer_slot_scores(rows), index, mask_batch)
        values = self.infer_values(obs_batch)
        if deterministic:
            actions = np.argmax(log_probs, axis=1)
        else:
            if rngs is None or len(rngs) != batch:
                raise ValueError(
                    f"step_batch needs one rng per row ({batch}), got "
                    f"{0 if rngs is None else len(rngs)}"
                )
            actions = _sample_actions(log_probs, rngs)
        chosen = log_probs[np.arange(batch), actions]
        return actions, values, chosen

    def step(
        self,
        observation: np.ndarray,
        mask: np.ndarray,
        rng: np.random.Generator | None = None,
        deterministic: bool = False,
    ) -> Tuple[int, float, float]:
        """Sample (or argmax) an action for a single observation.

        Delegates to :meth:`step_batch` with a batch of one; since
        ``step_batch`` is batch-invariant per row, this agrees bit for bit
        with the same observation forwarded inside any batch -- the serial
        rollout path, the in-process engine at any ``num_envs``, and the
        worker pools at any shard layout all see identical floats.
        """
        rng = as_rng(rng)
        actions, values, log_probs = self.step_batch(
            np.asarray(observation, dtype=np.float64)[None, :],
            np.asarray(mask, dtype=np.float64)[None, :],
            rngs=None if deterministic else [rng],
            deterministic=deterministic,
        )
        return int(actions[0]), float(values[0]), float(log_probs[0])

    def act(
        self,
        rows: np.ndarray,
        slots: Sequence[int],
        num_slots: int,
        rng: np.random.Generator | None = None,
        deterministic: bool = False,
    ) -> int:
        """The action :meth:`step` would take, from the valid slots alone.

        ``rows`` are the feature rows of the valid ``slots`` (ascending) of a
        ``num_slots``-wide observation -- the only rows :meth:`step` puts
        through the kernel -- so their scores are :meth:`step`'s floats; the
        value network does not run.  The most probable action is the valid
        slot with the largest score, the first on a tie, so the deterministic
        case needs no logit grid and no log-softmax; a sampled action scatters
        the scores into the ``num_slots`` grid and draws one uniform, exactly
        as :meth:`step_batch` does.
        """
        if not len(slots):
            raise ValueError("act needs at least one valid slot")
        scores = self.infer_slot_scores(rows)
        if deterministic:
            return int(slots[int(np.argmax(scores))])
        mask = np.zeros((1, num_slots), dtype=np.float64)
        mask[0, slots] = 1.0
        log_probs = _masked_log_softmax(scores, slots, mask)
        return int(_sample_actions(log_probs, [as_rng(rng)])[0])


@dataclass(frozen=True, slots=True)
class PPOConfig:
    """Hyper-parameters of the PPO update (paper §4.1.1 defaults)."""

    clip_ratio: float = 0.2
    policy_lr: float = 1e-3
    value_lr: float = 1e-3
    policy_iterations: int = 80
    value_iterations: int = 80
    target_kl: float = 0.05
    entropy_coefficient: float = 0.01
    max_grad_norm: float | None = 10.0
    #: Discount factor.  The backfilling reward is episodic (only the terminal
    #: step carries the bsld improvement), so no discounting is applied by
    #: default -- otherwise early decisions in a multi-hundred-step episode
    #: would receive a vanishing share of the credit.
    gamma: float = 1.0
    #: GAE lambda.  With a terminal-only reward the full-return advantage
    #: (lambda = 1) is required for every decision in the episode to receive
    #: credit for the final bsld improvement.
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_ratio < 1.0:
            raise ValueError(f"clip_ratio must lie in (0, 1), got {self.clip_ratio}")
        if self.policy_iterations <= 0 or self.value_iterations <= 0:
            raise ValueError("iteration counts must be positive")
        if self.target_kl <= 0:
            raise ValueError("target_kl must be positive")


@dataclass(frozen=True, slots=True)
class PPOUpdateStats:
    """Diagnostics of one epoch's PPO update."""

    policy_loss: float
    value_loss: float
    approximate_kl: float
    entropy: float
    clip_fraction: float
    policy_iterations_run: int
    #: Policy-gradient L2 norm before clipping, last iteration run.
    grad_norm: float
    #: ``1 - Var(returns - values) / Var(returns)`` of the critic before the update.
    explained_variance: float


class _PolicyRun(NamedTuple):
    """What one update's actor loop leaves besides the weights and Adam moments."""

    iterations_run: int
    policy_loss: float
    #: Policy-gradient L2 norm before clipping, last iteration run.
    grad_norm: float
    #: ``approximate_kl``, ``entropy`` and ``clip_fraction`` of the last iteration.
    stats: Dict[str, float]
    #: ``(start_ns, duration_ns)`` of each iteration run; empty unless observing.
    timings: List[Tuple[int, int]]


class PPO:
    """Clipped-surrogate PPO over an :class:`ActorCritic` model."""

    def __init__(self, actor_critic: ActorCritic, config: PPOConfig | None = None, seed: SeedLike = None):
        self.actor_critic = actor_critic
        self.config = config or PPOConfig()
        self.rng = as_rng(seed)
        policy_ids = {id(param) for param in actor_critic.policy_parameters()}
        if any(id(param) in policy_ids for param in actor_critic.value_parameters()):
            raise ValueError("the policy and value parameters must not share a tensor")
        self.policy_optimizer = Adam(actor_critic.policy_parameters(), lr=self.config.policy_lr)
        self.value_optimizer = Adam(actor_critic.value_parameters(), lr=self.config.value_lr)

    # -- loss pieces ----------------------------------------------------------
    def _policy_loss(
        self,
        slots: Tuple[Tensor, np.ndarray, Tensor],
        one_hot: Tensor,
        advantages: Tensor,
        log_probs_old: Tensor,
    ) -> Tuple[Tensor, Dict[str, float]]:
        cfg = self.config
        log_probs_all = self.actor_critic.compacted_log_probs(*slots)
        log_probs = (log_probs_all * one_hot).sum(axis=1)

        ratio = (log_probs - log_probs_old).exp()
        clipped_ratio = ratio.clip(1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
        surrogate = (ratio * advantages).minimum(clipped_ratio * advantages)
        loss = -surrogate.mean()

        probs = log_probs_all.exp()
        entropy = -(probs * log_probs_all).sum(axis=1).mean()
        if cfg.entropy_coefficient > 0.0:
            loss = loss - entropy * cfg.entropy_coefficient

        ratio_values = ratio.numpy()
        stats = {
            "approximate_kl": float(np.mean(log_probs_old.numpy() - log_probs.numpy())),
            "entropy": float(entropy.numpy()),
            "clip_fraction": float(
                np.mean(
                    (ratio_values > 1.0 + cfg.clip_ratio) | (ratio_values < 1.0 - cfg.clip_ratio)
                )
            ),
        }
        return loss, stats

    # -- update ----------------------------------------------------------------
    def update(self, data: Dict[str, np.ndarray]) -> PPOUpdateStats:
        """Run the PPO update on one epoch of trajectories (output of ``TrajectoryBuffer.get``).

        The actor and the critic share nothing but these inputs, so when
        numpy's BLAS runs one thread (:func:`~repro.rl.ipc.blas_threads`) the
        actor loop (:meth:`_policy_iterations`) runs in a forked child while
        this process runs the critic's (:meth:`_fork_actor`).  Otherwise, or
        where ``fork`` is not a start method, the same loop runs here, before
        the critic's.  Either way every float comes from the same code on the
        same inputs.
        """
        cfg = self.config
        # Update timing is diagnostic only: clocks are read when collection
        # or tracing is on, and nothing below feeds a timestamp back into the
        # gradient math, so enabling observability cannot perturb training.
        registry = get_metrics()
        tracer = get_tracer()
        observing = registry.enabled or tracer.enabled
        if observing:
            t_update = time.perf_counter_ns()

        # Everything the actor's iterations share is built once: the one-hot
        # of the taken actions and the compacted policy inputs.
        one_hot = np.zeros(data["masks"].shape, dtype=np.float64)
        one_hot[np.arange(one_hot.shape[0]), data["actions"]] = 1.0
        policy_inputs = (
            self.actor_critic.compact_slots(data["observations"], data["masks"]),
            Tensor(one_hot),
            Tensor(data["advantages"]),
            Tensor(data["log_probs"]),
        )
        critic = partial(self._value_iterations, data, observing)

        context = worker_context()
        if context.get_start_method() == "fork" and blas_threads() == 1:
            actor, (value_loss, explained_variance) = self._fork_actor(
                context, policy_inputs, observing, critic
            )
        else:
            actor = self._policy_iterations(policy_inputs, observing)
            value_loss, explained_variance = critic()

        if observing:
            # The actor timed its iterations where it ran; ``perf_counter_ns``
            # is the one monotonic clock of every process, so its spans sit
            # inside this update's, beside the critic's.
            policy_hist = registry.histogram("ppo_policy_iteration_seconds")
            for start, duration in actor.timings:
                policy_hist.observe(duration / 1e9)
                tracer.complete("ppo.policy_iteration", start, duration, cat="train")
            registry.counter("ppo_updates_total").inc()
            registry.counter("ppo_policy_iterations_total").inc(actor.iterations_run)
            registry.counter("ppo_value_iterations_total").inc(cfg.value_iterations)
            tracer.complete(
                "ppo.update",
                t_update,
                time.perf_counter_ns() - t_update,
                cat="train",
                args={"policy_iterations_run": actor.iterations_run},
            )

        return PPOUpdateStats(
            policy_loss=actor.policy_loss,
            value_loss=value_loss,
            approximate_kl=actor.stats["approximate_kl"],
            entropy=actor.stats["entropy"],
            clip_fraction=actor.stats["clip_fraction"],
            policy_iterations_run=actor.iterations_run,
            grad_norm=actor.grad_norm,
            explained_variance=explained_variance,
        )

    @property
    def _max_grad_norm(self) -> float:
        return np.inf if self.config.max_grad_norm is None else self.config.max_grad_norm

    def _policy_iterations(self, policy_inputs: tuple, observing: bool) -> _PolicyRun:
        """The actor loop of one update, KL early stop included.

        Steps the kernel network and its Adam and records nothing: when
        ``observing`` it returns each completed iteration's
        ``(start_ns, duration_ns)`` for :meth:`update` to record.
        """
        cfg = self.config
        policy_loss_value = grad_norm = 0.0
        last_stats = {"approximate_kl": 0.0, "entropy": 0.0, "clip_fraction": 0.0}
        iterations_run = 0
        timings: List[Tuple[int, int]] = []
        for _ in range(cfg.policy_iterations):
            t_iter = time.perf_counter_ns() if observing else 0
            self.policy_optimizer.zero_grad()
            loss, stats = self._policy_loss(*policy_inputs)
            last_stats = stats
            if stats["approximate_kl"] > 1.5 * cfg.target_kl:
                # Early stopping as in Spinning Up: the new policy drifted far
                # enough from the sampling policy that further steps would be
                # off-policy.
                break
            loss.backward()
            grad_norm = self.policy_optimizer.clip_grad_norm(self._max_grad_norm)
            self.policy_optimizer.step()
            policy_loss_value = float(loss.numpy())
            iterations_run += 1
            if observing:
                timings.append((t_iter, time.perf_counter_ns() - t_iter))
        return _PolicyRun(iterations_run, policy_loss_value, grad_norm, last_stats, timings)

    def _value_iterations(self, data: Dict[str, np.ndarray], observing: bool) -> Tuple[float, float]:
        """The critic loop of one update: ``(last value loss, explained variance)``."""
        observations = Tensor(data["observations"])
        returns = Tensor(data["returns"])
        returns_variance = float(data["returns"].var())
        if observing:
            value_hist = get_metrics().histogram("ppo_value_iteration_seconds")
            tracer = get_tracer()
        value_loss_value = explained_variance = 0.0
        for iteration in range(self.config.value_iterations):
            t_iter = time.perf_counter_ns() if observing else 0
            self.value_optimizer.zero_grad()
            diff = self.actor_critic.value(observations) - returns
            if iteration == 0 and returns_variance > 0.0:
                # How much of the returns the critic explained before this update.
                explained_variance = 1.0 - float(diff.numpy().var()) / returns_variance
            value_loss = (diff * diff).mean()
            value_loss.backward()
            self.value_optimizer.clip_grad_norm(self._max_grad_norm)
            self.value_optimizer.step()
            value_loss_value = float(value_loss.numpy())
            if observing:
                dt = time.perf_counter_ns() - t_iter
                value_hist.observe(dt / 1e9)
                tracer.complete("ppo.value_iteration", t_iter, dt, cat="train")
        return value_loss_value, explained_variance

    def _fork_actor(
        self,
        context,
        policy_inputs: tuple,
        observing: bool,
        critic: Callable[[], Tuple[float, float]],
    ) -> Tuple[_PolicyRun, Tuple[float, float]]:
        """Run :meth:`_policy_iterations` in a forked child while ``critic()`` runs here.

        Installs the kernel weights and policy Adam moments the child sends
        back and returns ``(the actor's run, critic())``.  The child is joined
        on every path, and terminated first if this side raised.  An
        exception in the child is re-raised here with its type; a child that
        exits without sending is a ``RuntimeError`` naming its exit code.
        """
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(
            target=_actor_child,
            args=(sender, self, policy_inputs, observing),
            name="ppo-actor",
            daemon=True,
        )
        child.start()
        sender.close()
        try:
            critic_result = critic()
            try:
                status, *payload = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"the PPO actor process exited with code {child.exitcode} "
                    "without sending its result"
                ) from None
        except BaseException:
            child.terminate()
            raise
        finally:
            child.join()
            receiver.close()
        if status == "error":
            error, child_traceback = payload
            raise error from RuntimeError(f"in the PPO actor process:\n{child_traceback}")
        run, weights, moments = payload
        for param, array in zip(self.policy_optimizer.parameters, weights):
            param.data = array
        self.policy_optimizer.load_moments(*moments)
        return run, critic_result


def _actor_child(sender, ppo: PPO, policy_inputs: tuple, observing: bool) -> None:
    """Body of :meth:`PPO._fork_actor`'s child: the actor loop, its outcome sent back.

    Sends ``("ok", run, kernel weights, policy Adam moments)`` or
    ``("error", exception, traceback text)``.  Touches no tracer, registry or
    file, and leaves through ``os._exit`` so no finalizer or exit hook
    inherited from the parent runs here; a result that cannot be sent exits
    with code 1.
    """
    code = 1
    try:
        try:
            run = ppo._policy_iterations(policy_inputs, observing)
            optimizer = ppo.policy_optimizer
            message = ("ok", run, [p.data for p in optimizer.parameters], optimizer.moments())
        except BaseException as exc:
            message = ("error", exc, traceback.format_exc())
        sender.send(message)
        code = 0
    finally:
        os._exit(code)
