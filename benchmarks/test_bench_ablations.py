"""Ablation benchmarks: the design parameters the paper fixes without ablation.

* heuristic backfilling comparison (no-backfill / EASY / EASY-AR / EASY-SJF /
  conservative / greedy) -- frames the headroom available to a learned policy;
* delay-violation penalty magnitude;
* observation size (MAX_OBSV_SIZE).
"""

from benchmarks.conftest import run_once
from repro.experiments.ablations import run_ablations, run_heuristic_comparison


def test_heuristic_backfilling_comparison(benchmark, bench_scale):
    values = run_once(benchmark, run_heuristic_comparison, bench_scale, seed=5)
    print("\nHeuristic backfilling comparison (FCFS base, SDSC-SP2):")
    for label, value in values.items():
        print(f"  {label:14s} {value:8.2f}")
    benchmark.extra_info["measured"] = {k: round(v, 2) for k, v in values.items()}
    # Any backfilling beats no backfilling; greedy (delay-ignoring) is valid but unprotected.
    assert values["EASY"] <= values["no-backfill"] * 1.05
    assert values["conservative"] <= values["no-backfill"] * 1.05


def test_rlbackfilling_design_ablations(benchmark, bench_scale):
    result = run_once(
        benchmark,
        run_ablations,
        bench_scale,
        delay_penalties=(0.0, -2.0),
        queue_sizes=(16, 32),
        include_heuristics=False,
        seed=6,
    )
    print("\n" + result.to_text())
    benchmark.extra_info["delay_penalty"] = {str(k): round(v, 2) for k, v in result.delay_penalty.items()}
    benchmark.extra_info["queue_size"] = {str(k): round(v, 2) for k, v in result.queue_size.items()}
    assert all(v >= 1.0 for v in result.delay_penalty.values())
    assert all(v >= 1.0 for v in result.queue_size.values())
