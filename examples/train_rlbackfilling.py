"""Train an RLBackfilling agent and compare it against the EASY baselines.

This walks the full §3/§4.2 pipeline: build the backfilling environment on a
trace, train the PPO actor-critic (rollouts collected through the vectorized
multi-environment engine), plot (textually) the Figure 4 training curve,
evaluate the trained policy on held-out job sequences, and save a checkpoint.
Run from the repository root with:

    python examples/train_rlbackfilling.py [--trace SDSC-SP2] [--epochs 12] [--num-envs 4]

On a multi-core machine, add ``--backend process`` to shard the lanes across
a pool of worker processes (shared-memory batching; the policy forward pass
stays batched in this process).
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import (
    BackfillEnvironment,
    RLBackfillAgent,
    RLBackfillPolicy,
    Trainer,
    TrainerConfig,
)
from repro.core.checkpoints import save_agent
from repro.core.observation import ObservationConfig
from repro.experiments.runner import SchedulingConfiguration, evaluate_strategy
from repro.rl.ppo import PPOConfig
from repro.utils.tables import format_table
from repro.workloads import load_trace, sample_sequences


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", default="SDSC-SP2")
    parser.add_argument("--policy", default="FCFS")
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--trajectories", type=int, default=8)
    parser.add_argument("--sequence-length", type=int, default=256)
    parser.add_argument("--max-queue", type=int, default=32)
    parser.add_argument("--num-envs", type=int, default=4,
                        help="environment lanes stepped in lockstep by the vectorized rollout engine")
    parser.add_argument("--backend", choices=("local", "process"), default="local",
                        help="step lanes in-process, or shard them across a multiprocess "
                             "lane pool exchanging batches through shared memory")
    parser.add_argument("--num-workers", type=int, default=None,
                        help="worker processes for --backend process (default: one per core)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkpoint", default=None,
                        help="where to save the trained agent (default: a fresh temporary directory)")
    args = parser.parse_args()

    trace = load_trace(args.trace, num_jobs=4000)
    observation_config = ObservationConfig(max_queue_size=args.max_queue)
    environment = BackfillEnvironment(
        trace,
        policy=args.policy,
        sequence_length=args.sequence_length,
        observation_config=observation_config,
        seed=args.seed,
        training_pool_size=6,
        min_baseline_bsld=2.0,
    )
    agent = RLBackfillAgent(observation_config=observation_config, seed=args.seed)
    trainer = Trainer(
        environment,
        agent,
        TrainerConfig(
            epochs=args.epochs,
            trajectories_per_epoch=args.trajectories,
            ppo=PPOConfig(policy_iterations=20, value_iterations=20),
            num_envs=args.num_envs,
            backend=args.backend,
            num_workers=args.num_workers,
        ),
        seed=args.seed,
    )

    lanes_where = "in-process" if args.backend == "local" else (
        f"sharded across {trainer.vec_env.num_workers} worker processes")
    print(f"Training RLBackfilling on {trace.name} with {args.policy} base policy "
          f"({args.epochs} epochs x {args.trajectories} trajectories, "
          f"{args.num_envs} rollout lanes {lanes_where})")
    with trainer:
        history = trainer.train(
            callback=lambda e: print(
                f"  epoch {e.epoch:3d}: bsld {e.mean_bsld:8.2f} "
                f"(baseline {e.mean_baseline_bsld:8.2f}), reward {e.mean_episode_reward:7.3f}"
            )
        )
    print(f"training curve (Figure 4 style): {[round(v, 1) for v in history.bslds]}")

    # Held-out evaluation on longer sequences, as in Table 4.
    sequences = sample_sequences(trace, length=512, count=3, seed=args.seed + 1000)
    rows = []
    for configuration in (
        SchedulingConfiguration.easy(args.policy),
        SchedulingConfiguration.easy_ar(args.policy),
        SchedulingConfiguration.rl(args.policy, agent),
    ):
        rows.append((configuration.label, evaluate_strategy(trace, configuration, sequences)))
    print()
    print(format_table(["configuration", "bsld"], rows, title=f"Held-out evaluation on {trace.name}"))

    checkpoint = args.checkpoint or Path(tempfile.mkdtemp(prefix="rlbackfill-")) / "agent.npz"
    path = save_agent(agent, checkpoint)
    print(f"\nSaved trained agent to {path}")
    print("Reload it with repro.core.load_agent(path) and wrap it in RLBackfillPolicy "
          "to use it inside any Simulator.")
    # Silence the linter about the unused import in the docstring example.
    _ = RLBackfillPolicy


if __name__ == "__main__":
    main()
