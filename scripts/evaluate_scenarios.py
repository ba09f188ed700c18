"""Evaluate backfilling policies across the scenario suite.

Fans every (scenario x policy) cell of a scenario suite across a process
worker pool, aggregates per-cell scheduling metrics, and writes one
deterministic JSON report with per-scenario policy rankings -- the harness
behind the ``scenario-matrix`` CI job and the robustness claims in
``docs/scenarios.md``.

The report is byte-identical across runs with the same ``--seed`` (and across
worker counts); wall-clock telemetry goes to a separate timing JSON that
``scripts/check_benchmark_trend.py --scenario-report`` folds into the
throughput trend check.

Usage:
    python scripts/evaluate_scenarios.py --suite core [--scale quick]
        [--policies easy,conservative,rl] [--seed 0] [--workers N]
        [--agent CHECKPOINT.npz] [--out report.json] [--timing-out timing.json]
        [--quick] [--list]

``--quick`` is the CI preset: heuristic policies only on the smoke scale.
``--workers 0`` evaluates inline (no worker processes).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.checkpoints import load_agent  # noqa: E402
from repro.scenarios.evaluate import (  # noqa: E402
    DEFAULT_POLICIES,
    HEURISTIC_POLICIES,
    AgentBundle,
    evaluate_suite,
    report_to_json,
)
from repro.scenarios.registry import get_scenario, scenario_names, suite_scenarios  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--suite", default="core",
                        help="suite name ('core') or comma-separated scenario names")
    parser.add_argument("--scale", default=None, help="experiment scale (smoke/quick/paper; default quick)")
    parser.add_argument("--seed", type=int, default=0, help="suite seed (report is a pure function of it)")
    parser.add_argument("--policies", default=None,
                        help="comma-separated policy names (easy, conservative, rl; "
                             f"default {','.join(DEFAULT_POLICIES)})")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (0 = inline; default: min(cells, cores))")
    parser.add_argument("--agent", default=None,
                        help="trained agent checkpoint (.npz) for the rl policy; "
                             "omitted = train a fresh one deterministically from --seed")
    parser.add_argument("--out", default="scenario-report.json", help="report JSON path")
    parser.add_argument("--timing-out", default=None,
                        help="timing JSON path (default: <out> with a .timing.json suffix)")
    parser.add_argument("--quick", action="store_true",
                        help="CI preset: smoke scale, heuristic policies only")
    parser.add_argument("--list", action="store_true", help="list registered scenarios and exit")
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")

    if args.list:
        for name in scenario_names():
            spec = get_scenario(name)
            print(f"{name:24s} {spec.description}")
        return 0

    # --quick presets scale and policies, but explicit flags still win: an
    # explicitly given --scale/--policies overrides the preset, and a loaded
    # --agent checkpoint keeps the rl policy in the matrix.
    if args.quick:
        scale = args.scale or "smoke"
        if args.policies is not None:
            policies = [p for p in args.policies.split(",") if p]
        elif args.agent is not None:
            policies = [*HEURISTIC_POLICIES, "rl"]
        else:
            policies = list(HEURISTIC_POLICIES)
    else:
        scale = args.scale or "quick"
        policies = [p for p in (args.policies or ",".join(DEFAULT_POLICIES)).split(",") if p]

    agent_bundle = None
    if args.agent is not None:
        if "rl" not in policies:
            parser.error("--agent was given but the policy set excludes 'rl'")
        agent_bundle = AgentBundle.from_agent(load_agent(args.agent))

    scenarios = suite_scenarios(args.suite)
    print(
        f"evaluating {len(scenarios)} scenario(s) x {len(policies)} policy(ies) "
        f"at scale {scale!r}, seed {args.seed}"
        + (f", {args.workers} worker(s)" if args.workers is not None else "")
    )
    started = time.perf_counter()
    report, timing = evaluate_suite(
        suite=args.suite,
        scale=scale,
        seed=args.seed,
        policies=policies,
        num_workers=args.workers,
        agent_bundle=agent_bundle,
    )
    wall = time.perf_counter() - started

    out_path = Path(args.out)
    out_path.write_text(report_to_json(report))
    timing_path = (
        Path(args.timing_out)
        if args.timing_out is not None
        else out_path.with_suffix(".timing.json")
    )
    timing_path.write_text(json.dumps(timing, indent=2, sort_keys=True) + "\n")

    for name, block in report["scenarios"].items():
        bslds = ", ".join(
            f"{policy}={block['policies'][policy]['average_bounded_slowdown']:.2f}"
            for policy in report["policies"]
        )
        print(f"  {name:24s} best={block['best_policy']:14s} bsld: {bslds}")
    wins = report["summary"]["wins"]
    print(f"wins: {wins}; report -> {out_path}, timing -> {timing_path} ({wall:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
