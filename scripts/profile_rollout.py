"""Per-phase wall-time breakdown of rollout collection.

Runs the same warm rollout workload through the in-process engine
(``backend="local"``) and the multiprocess lane pool (``backend="process"``),
and prints where the time goes per configuration:

* **encode**  -- batched observation feature encoding
  (:meth:`ObservationBuilder.encode_batch`; worker-side for the pool),
* **forward** -- the batched policy/value forward pass (always parent-side),
* **step**    -- simulator stepping + episode resets (worker-side for the
  pool; includes the baseline simulations of resets),
* **ipc wait** -- parent time blocked on result frames, and the workers'
  mean idle fraction while blocked on command frames.

The numbers come from ``engine.stats()`` (cumulative; this script diffs
snapshots around the measured block), so the breakdown is exactly what the
``Trainer`` logs at epoch boundaries.

Usage:
    PYTHONPATH=src python scripts/profile_rollout.py [--num-envs 16]
        [--trajectories 24] [--num-workers N] [--trace SDSC-SP2]
        [--configs local process]
"""

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import BackfillEnvironment, RLBackfillAgent, Trainer, TrainerConfig
from repro.core.observation import ObservationConfig
from repro.obs import (
    enable_tracing,
    engine_stats_delta,
    export_chrome_trace,
    get_tracer,
    set_trace_spool_dir,
)
from repro.rl.buffer import TrajectoryBuffer
from repro.workloads import load_trace


def profile(args, backend: str) -> dict:
    environment = BackfillEnvironment(
        load_trace(args.trace, num_jobs=4000),
        policy="FCFS",
        sequence_length=args.sequence_length,
        observation_config=ObservationConfig(max_queue_size=args.max_queue),
        seed=7,
        training_pool_size=4,
    )
    agent = RLBackfillAgent(observation_config=environment.observation_config, seed=7)
    config = TrainerConfig(
        epochs=1,
        trajectories_per_epoch=4,
        num_envs=args.num_envs,
        backend=backend,
        num_workers=args.num_workers,
    )
    with Trainer(environment, agent, config, seed=7) as trainer:
        # Warm the lanes' training pools so measured resets reuse cached
        # baseline simulations, mirroring the benchmark methodology.
        scratch = TrajectoryBuffer()
        trainer.collect_rollouts(scratch, 2 * args.num_envs)
        before = trainer.vec_env.stats()

        buffer = TrajectoryBuffer()
        start = time.perf_counter()
        infos = trainer.collect_rollouts(buffer, args.trajectories)
        elapsed = time.perf_counter() - start
        after = trainer.vec_env.stats()

    # engine_stats_delta recomputes worker_idle_fraction over the measured
    # block only (the stats() value is cumulative since pool construction and
    # would fold in the warmup) -- the same helper behind the Trainer's
    # epoch-boundary engine log.
    delta = engine_stats_delta(after, before)
    decisions = sum(info["episode_steps"] for info in infos)
    return {
        "label": backend,
        "decisions_per_sec": decisions / elapsed,
        "wall_s": elapsed,
        "idle_fraction": delta.pop("worker_idle_fraction", 0.0),
        **{key: value for key, value in delta.items() if not isinstance(value, str)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--trace", default="SDSC-SP2")
    parser.add_argument("--num-envs", type=int, default=16)
    parser.add_argument("--num-workers", type=int, default=None)
    parser.add_argument("--trajectories", type=int, default=24)
    parser.add_argument("--sequence-length", type=int, default=256)
    parser.add_argument("--max-queue", type=int, default=32)
    parser.add_argument(
        "--configs",
        nargs="+",
        choices=("local", "process"),
        default=["local", "process"],
        metavar="BACKEND",
        help="backends to profile (default: local process)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="enable span tracing and write a Chrome trace-event JSON "
        "(chrome://tracing / Perfetto) covering every profiled rollout",
    )
    args = parser.parse_args()

    spool_dir = None
    if args.trace_out:
        enable_tracing()
        # Process-backend workers drain their span rings into sidecar files
        # here at pool shutdown; the export below merges them with the parent
        # ring so the trace is no longer parent-only (mostly empty) for
        # process configurations.
        spool_dir = tempfile.mkdtemp(prefix="repro-spans-")
        set_trace_spool_dir(spool_dir)

    phases = ("encode_s", "forward_s", "step_s", "result_wait_s")
    rows = []
    for backend in args.configs:
        print(f"profiling {backend} ...", flush=True)
        rows.append(profile(args, backend))

    if args.trace_out:
        trace_path = Path(args.trace_out)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        summary = export_chrome_trace(trace_path, spool_dir=spool_dir)
        print(
            f"wrote {trace_path} ({summary['events']} spans merged from "
            f"{len(summary['sources'])} ring(s))"
        )
        for label in summary["overflowed"]:
            print(
                f"WARNING: span ring overflowed in {label}; "
                "its oldest spans are missing from the merged trace"
            )
        set_trace_spool_dir(None)
        shutil.rmtree(spool_dir, ignore_errors=True)

    header = (
        f"{'configuration':<18} {'dec/s':>8} {'wall':>7} "
        + "".join(f"{phase[:-2]:>9} " for phase in phases)
        + f"{'other':>8} {'idle%':>6}"
    )
    print()
    print(header)
    print("-" * len(header))
    for row in rows:
        accounted = sum(row[phase] for phase in phases)
        other = max(0.0, row["rollout_s"] - accounted)
        print(
            f"{row['label']:<18} {row['decisions_per_sec']:>8,.0f} "
            f"{row['wall_s']:>6.2f}s "
            + "".join(
                f"{row[phase]:>8.2f}s " for phase in phases
            )
            + f"{other:>7.2f}s {row['idle_fraction']:>6.1%}"
        )
    print(
        "\nphases: encode/step are worker-side for the process backend; "
        "result_wait is parent time blocked on result frames; idle% is the "
        "workers' mean command-wait fraction (0 for local)."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
