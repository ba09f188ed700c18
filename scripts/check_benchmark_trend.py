"""CI rollout-throughput trend check.

Compares metrics recorded in a pytest-benchmark JSON artifact against the
committed baseline in ``benchmarks/throughput_baseline.json`` and exits
non-zero when any metric regresses by more than the configured tolerance
(default 20%).

A baseline metric reads one value per benchmark, in one of two forms:

* ``key`` -- a ratio the benchmark itself recorded in its ``extra_info``
  (e.g. ``speedup_vec16_vs_serial``, ``overhead_pool1_vs_vec16``);
* ``stat`` -- a pytest-benchmark timing statistic of the benchmark run
  (e.g. ``mean``, ``median``).

An absolute timing statistic does not transfer across runner hardware, so a
``stat`` metric should declare ``relative_to`` -- another
``{benchmark, stat|key}`` reference the measurement is divided by before
comparison.  That turns two machine-dependent timings into one
machine-relative ratio (e.g. the EASY-backfill simulator's mean run time per
policy-forward mean), which is what the committed baselines store.  Metrics
may override the file-level ``tolerance`` per entry.  Each metric declares
``higher_is_better``; lower-is-better metrics regress when the measurement
exceeds ``baseline * (1 + tolerance)``.

One non-verdict outcome exists: ``MISSING`` -- the benchmark or the metric's
field is absent from the results JSON.  MISSING warns by default -- the
(deliberately non-blocking) benchmark job's own failure covers that case --
and fails the check under ``--strict``.

Scenario-evaluation telemetry joins the same check: ``--scenario-report
TIMING.json`` ingests the timing document written by
``scripts/evaluate_scenarios.py`` (``--timing-out``) as a pseudo-benchmark
named ``scenario_evaluation`` -- its total wall-clock becomes ``stats.mean``
and the cell/worker counts land in ``extra_info`` -- so baseline metrics can
reference it like any other benchmark.  The timing document also carries
``reference_cell_seconds`` (one representative cell re-timed inline on the
same machine), which is what the committed scenario metric divides by: the
suite/reference-cell ratio transfers across runners where the old absolute
30s wall-clock ceiling did not.

Service-load telemetry likewise: ``--service-report TIMING.json`` ingests
the document written by ``scripts/load_service.py --out`` as a
pseudo-benchmark named ``service_load`` (``stats.mean`` = live wall seconds;
decision rate, tail latencies, and the machine-relative
``p99_latency_per_forward`` / ``decision_throughput_x_forward`` ratios in
``extra_info``).

Chaos telemetry completes the set: ``--chaos-report TIMING.json`` ingests the
document written by ``scripts/chaos_smoke.py --out`` as a pseudo-benchmark
named ``chaos_smoke`` (``stats.mean`` = harness wall seconds; the
machine-relative ``recovery_overhead_vs_clean`` ratio plus the hard
``pool_parity_ok`` / ``service_recovery_ok`` bits in ``extra_info``).

Usage:
    python scripts/check_benchmark_trend.py [--strict]
        [--scenario-report TIMING.json] [--service-report TIMING.json]
        [--chaos-report TIMING.json] RESULTS.json [BASELINE.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "throughput_baseline.json"


def load_benchmarks(results_path: Path) -> dict[str, dict]:
    """Map benchmark name fragments to their recorded result dicts."""
    with results_path.open() as handle:
        results = json.load(handle)
    benches: dict[str, dict] = {}
    for bench in results.get("benchmarks", []):
        # pytest-benchmark names look like "test_bench_lane_pool" or
        # "benchmarks/test_bench_lane_pool.py::test_bench_lane_pool".
        benches[bench["name"].split("::")[-1]] = bench
    return benches


#: Name under which an ingested scenario-evaluation timing document appears.
SCENARIO_BENCH_NAME = "scenario_evaluation"


def ingest_scenario_report(benches: dict[str, dict], timing_path: Path) -> None:
    """Fold a scenario-evaluation timing JSON into the benchmark map.

    The timing document is the non-deterministic sidecar of the (byte-stable)
    scenario report: total wall seconds, cell count, worker count.  It is
    mapped onto the pytest-benchmark result shape so baseline metrics address
    it uniformly (``stats.mean`` = total wall seconds).
    """
    timing = json.loads(timing_path.read_text())
    wall = timing.get("scenario_eval_wall_seconds")
    if wall is None:
        raise ValueError(
            f"{timing_path}: not a scenario timing document "
            "(missing 'scenario_eval_wall_seconds')"
        )
    extra_info = {
        "cells": timing.get("cells"),
        "workers": timing.get("workers"),
        "cells_per_second": timing.get("cells_per_second"),
        "scenario_eval_wall_seconds": float(wall),
    }
    reference = timing.get("reference_cell_seconds")
    if reference is not None:
        extra_info["reference_cell_seconds"] = float(reference)
        extra_info["reference_cell"] = timing.get("reference_cell")
    benches[SCENARIO_BENCH_NAME] = {
        "name": SCENARIO_BENCH_NAME,
        "stats": {"mean": float(wall)},
        "extra_info": extra_info,
    }


#: Name under which an ingested service-load timing document appears.
SERVICE_BENCH_NAME = "service_load"


def ingest_service_report(benches: dict[str, dict], timing_path: Path) -> None:
    """Fold a service-load timing JSON into the benchmark map.

    The document is written by ``scripts/load_service.py --out``; its live
    wall seconds become ``stats.mean`` and the throughput/latency metrics --
    including the two machine-relative ratios the committed baseline gates --
    land in ``extra_info``.
    """
    timing = json.loads(timing_path.read_text())
    wall = timing.get("service_load_wall_seconds")
    if wall is None:
        raise ValueError(
            f"{timing_path}: not a service timing document "
            "(missing 'service_load_wall_seconds')"
        )
    replay = timing.get("replay") or {}
    benches[SERVICE_BENCH_NAME] = {
        "name": SERVICE_BENCH_NAME,
        "stats": {"mean": float(wall)},
        "extra_info": {
            "decisions": timing.get("decisions"),
            "decisions_per_second": timing.get("decisions_per_second"),
            "latency_p50_ms": timing.get("latency_p50_ms"),
            "latency_p95_ms": timing.get("latency_p95_ms"),
            "latency_p99_ms": timing.get("latency_p99_ms"),
            "reference_forward_seconds": timing.get("reference_forward_seconds"),
            "p99_latency_per_forward": timing.get("p99_latency_per_forward"),
            "decision_throughput_x_forward": timing.get("decision_throughput_x_forward"),
            "replay_matched": 1.0 if replay.get("matched") else 0.0,
        },
    }


#: Name under which an ingested chaos-smoke timing document appears.
CHAOS_BENCH_NAME = "chaos_smoke"


def ingest_chaos_report(benches: dict[str, dict], timing_path: Path) -> None:
    """Fold a chaos-smoke timing JSON into the benchmark map.

    The document is written by ``scripts/chaos_smoke.py --out``; its total
    wall seconds become ``stats.mean`` and the gated quantities land in
    ``extra_info``: ``recovery_overhead_vs_clean`` (fault-injected pool wall
    over clean pool wall -- machine-relative, transfers across runners) plus
    the two hard parity bits (``pool_parity_ok``, ``service_recovery_ok``).
    """
    timing = json.loads(timing_path.read_text())
    wall = timing.get("chaos_wall_seconds")
    if wall is None:
        raise ValueError(
            f"{timing_path}: not a chaos timing document "
            "(missing 'chaos_wall_seconds')"
        )
    benches[CHAOS_BENCH_NAME] = {
        "name": CHAOS_BENCH_NAME,
        "stats": {"mean": float(wall)},
        "extra_info": {
            "recovery_overhead_vs_clean": timing.get("recovery_overhead_vs_clean"),
            "pool_parity_ok": timing.get("pool_parity_ok"),
            "service_recovery_ok": timing.get("service_recovery_ok"),
        },
    }


def read_value(benches: dict[str, dict], spec: dict) -> tuple[float | None, str, str]:
    """Resolve one ``{benchmark, key|stat}`` reference.

    Returns ``(value, label, problem)``; ``value`` is ``None`` when the
    benchmark or field is missing and ``problem`` says which.
    """
    bench_name = spec["benchmark"]
    if "key" in spec:
        field, source = spec["key"], "extra_info"
    else:
        field, source = spec["stat"], "stats"
    label = f"{bench_name}:{field}"
    bench = benches.get(bench_name)
    if bench is None:
        return None, label, f"{label}: benchmark missing from results JSON"
    value = bench.get(source, {}).get(field)
    if value is None:
        return None, label, f"{label}: {source}[{field!r}] missing from benchmark"
    return float(value), label, ""


def check(
    results_path: Path,
    baseline_path: Path,
    strict: bool = False,
    scenario_report: Path | None = None,
    service_report: Path | None = None,
    chaos_report: Path | None = None,
) -> int:
    baseline = json.loads(baseline_path.read_text())
    default_tolerance = float(baseline.get("tolerance", 0.2))
    benches = load_benchmarks(results_path)
    if scenario_report is not None:
        ingest_scenario_report(benches, scenario_report)
    if service_report is not None:
        ingest_service_report(benches, service_report)
    if chaos_report is not None:
        ingest_chaos_report(benches, chaos_report)

    failures: list[str] = []
    missing: list[str] = []
    passed: list[str] = []
    for metric in baseline["metrics"]:
        reference = float(metric["baseline"])
        tolerance = float(metric.get("tolerance", default_tolerance))
        higher_is_better = bool(metric.get("higher_is_better", True))
        measured, label, problem = read_value(benches, metric)
        if measured is None:
            missing.append(problem)
            continue
        relative_to = metric.get("relative_to")
        if relative_to is not None:
            ref_value, ref_label, problem = read_value(benches, relative_to)
            if ref_value is None:
                missing.append(problem)
                continue
            if ref_value == 0.0:
                missing.append(f"{label}: relative_to {ref_label} measured 0")
                continue
            measured = measured / ref_value
            label = f"{label}/{ref_label}"
        if higher_is_better:
            limit = reference * (1.0 - tolerance)
            regressed = measured < limit
            bound = f"floor {limit:.3f} (-{tolerance:.0%})"
        else:
            limit = reference * (1.0 + tolerance)
            regressed = measured > limit
            bound = f"ceiling {limit:.3f} (+{tolerance:.0%})"
        verdict = f"{label}: measured {measured:.3f}, baseline {reference:.3f}, {bound}"
        if regressed:
            failures.append(f"REGRESSION {verdict}")
        else:
            passed.append(f"ok {verdict}")

    for line in passed:
        print(line)
    for line in missing:
        # ::warning:: renders as an annotation on GitHub runners and is
        # harmless plain text elsewhere.
        print(f"::warning::trend check MISSING {line}")
    if strict and missing:
        failures.extend(f"MISSING {line}" for line in missing)
    if failures:
        print()
        for line in failures:
            print(line, file=sys.stderr)
        print(
            f"\nrollout-throughput trend check FAILED "
            f"({len(failures)} metric(s) regressed or missing)",
            file=sys.stderr,
        )
        return 1
    summary = f"{len(passed)} metric(s) ok"
    if missing:
        summary += f", {len(missing)} MISSING (non-strict)"
    print(f"\nrollout-throughput trend check passed ({summary})")
    return 0


def main(argv: list[str]) -> int:
    args: list[str] = []
    strict = False
    scenario_report: Path | None = None
    service_report: Path | None = None
    chaos_report: Path | None = None
    rest = list(argv[1:])
    while rest:
        arg = rest.pop(0)
        if arg == "--strict":
            strict = True
        elif arg == "--scenario-report":
            if not rest:
                print("--scenario-report needs a path", file=sys.stderr)
                return 2
            scenario_report = Path(rest.pop(0))
        elif arg == "--service-report":
            if not rest:
                print("--service-report needs a path", file=sys.stderr)
                return 2
            service_report = Path(rest.pop(0))
        elif arg == "--chaos-report":
            if not rest:
                print("--chaos-report needs a path", file=sys.stderr)
                return 2
            chaos_report = Path(rest.pop(0))
        else:
            args.append(arg)
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    results_path = Path(args[0])
    baseline_path = Path(args[1]) if len(args) == 2 else DEFAULT_BASELINE
    if not results_path.is_file():
        print(f"results file not found: {results_path}", file=sys.stderr)
        return 2
    if scenario_report is not None and not scenario_report.is_file():
        print(f"scenario timing file not found: {scenario_report}", file=sys.stderr)
        return 2
    if service_report is not None and not service_report.is_file():
        print(f"service timing file not found: {service_report}", file=sys.stderr)
        return 2
    if chaos_report is not None and not chaos_report.is_file():
        print(f"chaos timing file not found: {chaos_report}", file=sys.stderr)
        return 2
    return check(
        results_path,
        baseline_path,
        strict=strict,
        scenario_report=scenario_report,
        service_report=service_report,
        chaos_report=chaos_report,
    )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
