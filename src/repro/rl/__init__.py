"""Reinforcement-learning substrate: autograd, neural nets, Adam, PPO.

The paper implements RLBackfilling with PyTorch and the OpenAI Spinning Up
PPO.  Neither is available offline, so this subpackage provides the same
building blocks from scratch on top of NumPy:

* :mod:`repro.rl.autograd` -- a small reverse-mode automatic differentiation
  engine over dense arrays.
* :mod:`repro.rl.nn` -- parameterized modules (Linear, activations, MLP).
* :mod:`repro.rl.optim` -- SGD and Adam.
* :mod:`repro.rl.buffer` -- trajectory buffer with GAE-lambda advantages.
* :mod:`repro.rl.ppo` -- the clipped-surrogate PPO update.
* :mod:`repro.rl.env` -- the minimal environment interface the trainer expects.
* :mod:`repro.rl.vec_env` -- the rollout loop (shard stepper + episode
  scheduler) and the in-process vectorized engine over it.
* :mod:`repro.rl.ipc` -- shared-memory ring buffers for the worker pools.
* :mod:`repro.rl.lane_pool` -- the multiprocess lane pool: the same loop
  over worker processes.
"""

from repro.rl.autograd import Tensor, no_grad
from repro.rl.nn import Module, Linear, Tanh, ReLU, Sequential, MLP
from repro.rl.optim import Optimizer, SGD, Adam
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.ppo import PPO, PPOConfig, ActorCritic
from repro.rl.env import Environment, StepResult
from repro.rl.vec_env import VecBackfillEnv
from repro.rl.lane_pool import ProcessLanePool, make_rollout_engine
from repro.rl.running_stat import RunningMeanStd

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Linear",
    "Tanh",
    "ReLU",
    "Sequential",
    "MLP",
    "Optimizer",
    "SGD",
    "Adam",
    "TrajectoryBuffer",
    "PPO",
    "PPOConfig",
    "ActorCritic",
    "Environment",
    "StepResult",
    "VecBackfillEnv",
    "ProcessLanePool",
    "make_rollout_engine",
    "RunningMeanStd",
]
