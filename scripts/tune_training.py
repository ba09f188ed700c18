"""Offline tuning run: does a longer quick-scale training beat EASY?

Writes progress to stdout; used to pick the quick-scale defaults recorded in
EXPERIMENTS.md.  Not part of the test/benchmark suites.  Rollouts go through
the vectorized engine; pass ``--num-envs`` to change the lane count.
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import BackfillEnvironment, RLBackfillAgent, Trainer, TrainerConfig
from repro.core.environment import RewardConfig
from repro.core.observation import ObservationConfig
from repro.core.rlbackfill import RLBackfillPolicy
from repro.prediction import ActualRuntime, UserEstimate
from repro.rl.ppo import PPOConfig
from repro.scheduler import EasyBackfill, Simulator
from repro.workloads import load_trace, sample_sequence


def evaluate(trace, agent, seqs):
    def ev(backfill, est):
        return float(
            np.mean(
                [
                    Simulator(trace.num_processors, policy="FCFS", backfill=backfill, estimator=est)
                    .run(j)
                    .bsld
                    for j in seqs
                ]
            )
        )

    return {
        "EASY": ev(EasyBackfill(), UserEstimate()),
        "EASY-AR": ev(EasyBackfill(), ActualRuntime()),
        "EASY-SJF": ev(EasyBackfill(order="sjf"), UserEstimate()),
        "RLBF": ev(RLBackfillPolicy(agent), UserEstimate()),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-envs", type=int, default=4,
                        help="vectorized rollout lanes (1 = serial collection)")
    parser.add_argument("--backend", choices=("local", "process"), default="local",
                        help="where the lanes live: in-process, or sharded across "
                             "a multiprocess lane pool with shared-memory batching")
    parser.add_argument("--num-workers", type=int, default=None,
                        help="worker processes for --backend process "
                             "(default: one per available core)")
    parser.add_argument("--epochs", type=int, default=60)
    args = parser.parse_args()
    trace = load_trace("SDSC-SP2", num_jobs=4000)
    obs_cfg = ObservationConfig(max_queue_size=32)
    env = BackfillEnvironment(
        trace,
        policy="FCFS",
        sequence_length=256,
        observation_config=obs_cfg,
        seed=7,
        training_pool_size=4,
        min_baseline_bsld=5.0,
        reward_config=RewardConfig(delay_penalty=-2.0),
    )
    agent = RLBackfillAgent(observation_config=obs_cfg, seed=7)
    seqs = [sample_sequence(trace, 512, seed=100 + i) for i in range(3)]
    print("untrained", evaluate(trace, agent, seqs), flush=True)
    cfg = TrainerConfig(
        epochs=args.epochs,
        trajectories_per_epoch=8,
        ppo=PPOConfig(policy_iterations=20, value_iterations=30, value_lr=3e-3, lam=0.9),
        seed=7,
        num_envs=args.num_envs,
        backend=args.backend,
        num_workers=args.num_workers,
    )
    with Trainer(env, agent, cfg, seed=7) as trainer:
        start = time.time()
        for epoch in range(1, cfg.epochs + 1):
            stats = trainer.train_epoch(epoch)
            if epoch % 5 == 0 or epoch == 1:
                print(
                    f"epoch {epoch:3d} bsld {stats.mean_bsld:7.1f} baseline {stats.mean_baseline_bsld:7.1f} "
                    f"reward {stats.mean_episode_reward:7.2f} viol {stats.mean_violations:.1f} "
                    f"kl {stats.approximate_kl:.4f} ({time.time() - start:.0f}s)",
                    flush=True,
                )
            if epoch % 15 == 0:
                print("  eval", {k: round(v, 1) for k, v in evaluate(trace, agent, seqs).items()}, flush=True)
    print("final eval", {k: round(v, 1) for k, v in evaluate(trace, agent, seqs).items()}, flush=True)


if __name__ == "__main__":
    main()
