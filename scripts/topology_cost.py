"""What a node-group machine costs per job, beside the scalar machine.

Prints the in-process cost of scheduling one job -- process-time
microseconds, best of ``--repeats`` -- under FCFS with the user's estimate,
without backfilling (``NoBackfill``) and with EASY, on fixed seed-0 sequences:

* ``paper`` rows: four 1024-job sequences of each of six ``eval-rl-paper``
  scenarios (every one but ``node-failure-requeue``: node failures need the
  scalar machine), on the scalar machine and on the one-group topology
  ``ClusterTopology.homogeneous(n)``.  The two schedule alike except where
  running jobs share EASY's reservation instant (ROADMAP item 2), so the
  ratio is nearly the cost of the layout alone.
* one pair of rows per node-group scenario: six 256-job sequences on its node
  groups, drains included, and on the scalar machine (``topology=None``, no
  drains) as the floor.  The floor ignores memory, GPUs, partitions and
  drains, so it is not the same schedule.

The table has one row per (sequences, layout), and the last column is the
row's EASY cost over its layout's scalar row.  ``--smoke`` shrinks the traces
and the sequences eightfold, which keeps every row (for checking that the
tool runs, not for reading its times).  Run from anywhere with:

    python scripts/topology_cost.py [--smoke] [--repeats 3] [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.cluster.resources import ClusterTopology  # noqa: E402
from repro.experiments import ExperimentScale  # noqa: E402
from repro.prediction.predictors import UserEstimate  # noqa: E402
from repro.scenarios import get_scenario  # noqa: E402
from repro.scenarios.evaluate import scenario_sequences  # noqa: E402
from repro.scenarios.registry import HETERO_SUITE  # noqa: E402
from repro.scheduler import EasyBackfill, NoBackfill, Simulator  # noqa: E402

PAPER_SCENARIOS = (
    "baseline-sdsc", "baseline-lublin", "load-surge-2x", "burst-storm", "estimate-noise",
    "downtime-half",
)
STRATEGIES = {"none": NoBackfill, "easy": EasyBackfill}
COLUMNS = ("sequences", "layout", "jobs", "none_us", "easy_us", "easy_vs_scalar")


def _cells(built, length: int, samples: int, trace_jobs: int, node_groups: bool):
    """``(jobs, simulator kwargs)`` of each sequence of ``built`` on one layout."""
    scale = ExperimentScale(
        name="topology-cost", trace_jobs=trace_jobs, eval_sequence_length=length,
        eval_samples=samples, train_sequence_length=length, max_queue_size=32,
    )
    topology = built.topology if built.topology is not None else ClusterTopology.homogeneous(
        built.trace.num_processors
    )
    cells = []
    for jobs in scenario_sequences(built, scale, seed=0):
        span = max(job.submit_time for job in jobs) - min(job.submit_time for job in jobs)
        kwargs = {"num_processors": built.trace.num_processors}
        if node_groups:
            kwargs.update(topology=topology, allocator=built.allocator)
        if node_groups or built.topology is None:
            kwargs["capacity_schedule"] = built.capacity_schedule(span)
        cells.append((jobs, kwargs))
    return cells


def _microseconds_per_job(cells, strategy, repeats: int) -> float:
    jobs = sum(len(sequence) for sequence, _ in cells)
    best = float("inf")
    for _ in range(repeats):
        started = time.process_time()
        for sequence, kwargs in cells:
            Simulator(
                policy="FCFS", backfill=strategy(), estimator=UserEstimate(), **kwargs
            ).run(sequence)
        best = min(best, time.process_time() - started)
    return best / jobs * 1e6


def measure(smoke: bool, repeats: int) -> list:
    shrink = 8 if smoke else 1
    trace_jobs = 1_500 if smoke else 10_000
    groups = [
        ("paper", [get_scenario(name).build(seed=0, num_jobs=trace_jobs) for name in PAPER_SCENARIOS],
         1024 // shrink, 4, ("scalar", "one-group")),
    ] + [
        (name, [get_scenario(name).build(seed=0, num_jobs=trace_jobs)], 256 // shrink, 6,
         ("scalar", "node-groups"))
        for name in HETERO_SUITE
    ]
    rows = []
    for label, built, length, samples, layouts in groups:
        scalar_easy = None
        for layout in layouts:
            cells = [
                cell
                for one in built
                for cell in _cells(one, length, samples, trace_jobs, layout != "scalar")
            ]
            costs = {
                name: _microseconds_per_job(cells, strategy, repeats)
                for name, strategy in STRATEGIES.items()
            }
            scalar_easy = costs["easy"] if scalar_easy is None else scalar_easy
            rows.append({
                "sequences": label, "layout": layout,
                "jobs": f"{len(cells)}x{length}",
                "none_us": costs["none"], "easy_us": costs["easy"],
                "easy_vs_scalar": costs["easy"] / scalar_easy,
            })
    return rows


def render(rows: list) -> str:
    lines = [
        f"{'sequences':24s} {'layout':12s} {'jobs':>8s} {'none us/job':>12s} "
        f"{'EASY us/job':>12s} {'EASY/scalar':>12s}"
    ]
    for row in rows:
        lines.append(
            f"{row['sequences']:24s} {row['layout']:12s} {row['jobs']:>8s} "
            f"{row['none_us']:12.1f} {row['easy_us']:12.1f} {row['easy_vs_scalar']:12.2f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="shrunken traces and sequences")
    parser.add_argument("--repeats", type=int, default=3, help="best of this many runs")
    parser.add_argument("--json", type=Path, help="also write the rows here")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    rows = measure(args.smoke, args.repeats)
    print(render(rows))
    if args.json is not None:
        args.json.write_text(json.dumps({"columns": COLUMNS, "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
