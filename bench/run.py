#!/usr/bin/env python3
"""One benchmark for the three paths: train, evaluate, serve.

    python bench/run.py                          # all six workloads, untraced
    python bench/run.py --traced                 # per-layer rows instead
    python bench/run.py --workload eval-hetero --seed 3 --seconds 10 --trace 0
    python bench/run.py --out A.json             # add this set to A.json
    python bench/run.py --compare A.json B.json

Each workload runs in a fresh interpreter (``--worker``), which sets up from
``--seed``, measures for ``--seconds``, checks its outputs and prints every
metric by name with its unit.  End-to-end numbers are taken with the
program's tracing and global metrics registry off; ``--traced`` turns them on
for alternating slices of the run, adds harness-side stopwatches around the
calls into each layer, and prints the per-layer rows.  With exactly one
``--workload`` the last line of output is the result object of the contract
in ``BENCHMARK.json``; otherwise it is a summary of the set.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402

#: Which module implements which workload.
MODULES = {
    "train-sdsc-quick": "wl_train",
    "rollout-local-16": "wl_rollout",
    "eval-rl-paper": "wl_eval",
    "eval-conservative": "wl_eval",
    "eval-hetero": "wl_eval",
    "serve-closed-2": "wl_serve",
}
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 170.0


# -- the worker: one workload in this interpreter -------------------------------

def _plain(value):
    """numpy scalars, as the numbers they hold."""
    return value.item()


def worker(args: argparse.Namespace) -> int:
    benchlib.use_checkout_source()
    (name,) = args.workload
    module = importlib.import_module(MODULES[name])
    size = module.SIZES["smoke" if args.smoke else "full"]
    state = module.setup(name, args.seed, size)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    traced = bool(args.trace)
    measured = module.measure(state, args.seconds, traced)
    region = measured.pop("region")
    work = measured.pop("work")
    kept = region.kept()
    rates = [op["work"] / op["wall_s"] for op in kept if op["work"]]
    # One operation of a batch workload (an epoch, a block, a pass) is as
    # long as the decisions it happens to hold, so its latency is given per
    # 1000 decisions; the service's operations are its submit round trips.
    op_ms = measured.pop("op_ms", None) or [1e6 / rate for rate in rates]
    checks = measured["checks"]
    failed = int(measured["failed"])
    measured["correct"] = failed == 0 and all(checks.values()) and work > 0
    measured["metrics"] = {
        "setup_s": benchlib.metric(setup_s, "s"),
        # Medians over the run's operations: a burst of interference from a
        # neighbour slows a few of them and leaves the median where it was.
        "decisions_per_s": benchlib.metric(benchlib.median(rates), "1/s"),
        "op_p50_ms": benchlib.metric(benchlib.median(op_ms), "ms"),
        "peak_rss_mb": benchlib.metric(benchlib.peak_rss_mb(), "MB"),
    }
    measured["info"].update({
        "wall_s": region.wall_s, "cpu_s": region.cpu_s,
        # Above zero when the process waited for a core it did not get.
        "disturbance": region.wall_s / region.cpu_s - 1.0 if region.cpu_s > 0 else 0.0,
        "operations": len(region.ops), "operations_kept": len(kept),
        "probe_ms_usual": region.probe.usual_s() * 1e3,
        "probe_ms_worst": max(region.probe.samples) * 1e3,
        "decisions_per_s_whole_region": work / region.wall_s,
        "decisions_per_s_all_operations": benchlib.median(
            [op["work"] / op["wall_s"] for op in region.ops if op["work"]]
        ),
        "ops_attempted": int(measured["attempted"]), "ops_failed": failed,
        "failed_fraction": failed / max(1, int(measured["attempted"])),
    })
    measured.update({
        "workload": name, "seed": args.seed, "seconds": args.seconds, "traced": traced,
        "smoke": bool(args.smoke),
    })
    print(json.dumps(measured, sort_keys=True, default=_plain))
    return 0


# -- the parent: spawn workers, collect, print ----------------------------------

def _spawn(name: str, seed: int, seconds: float, traced: bool, smoke: bool,
           setup_only: bool = False) -> dict:
    """Run one worker to its end and return the object on its last line."""
    env = dict(os.environ)
    env.update({variable: "1" for variable in benchlib.THREAD_ENV})
    command = [
        sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
        "--spawned-at", repr(time.monotonic()),
    ]
    if smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=benchlib.ROOT)
    try:
        output, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise SystemExit(f"bench: worker for {name} did not finish in {WORKER_TIMEOUT_S:.0f} s")
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(f"bench: worker for {name} failed (exit code {process.returncode})")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """One run of one workload: its set-ups, its measurement, its checks."""
    setups = []
    if not traced:
        setups = [
            _spawn(name, seed, seconds, traced, smoke, setup_only=True)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
    result = _spawn(name, seed, seconds, traced, smoke)
    setups.append(result["metrics"]["setup_s"]["value"])
    result["info"]["setup_samples_s"] = setups
    result["metrics"]["setup_s"] = benchlib.metric(benchlib.median(setups), "s")
    return result


def contract_object(result: dict, contract: dict) -> dict:
    """The result object of the contract: every end-to-end metric untraced,
    every per-layer metric traced.  A per-layer row reads 0 on a workload
    that does not go through that layer."""
    if result["traced"]:
        metrics = {
            row["name"]: result["layers"].get(row["name"], benchlib.metric(0.0, row["unit"]))
            for row in contract["per_layer"]
        }
    else:
        metrics = {row["name"]: result["metrics"][row["name"]] for row in contract["end_to_end"]}
    return {
        "correct": bool(result["correct"]), "attempted": int(result["attempted"]),
        "failed": int(result["failed"]), "metrics": metrics,
    }


def print_result(result: dict) -> None:
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']}  seed={result['seed']}  {mode}  "
          f"{result['seconds']:g} s measured")
    shown = result["layers"] if result["traced"] else {**result["metrics"], **result["named"]}
    for name in sorted(shown):
        print(f"  {name:<52} {shown[name]['value']:>14.4f} {shown[name]['unit']}")
    for key, value in sorted(result["info"].items()):
        print(f"  . {key} = {value}")
    for check, passed in sorted(result["checks"].items()):
        print(f"  check {check}: {'ok' if passed else 'FAILED'}")
    print(f"  correct={result['correct']}")


# -- comparing two result files -------------------------------------------------

def _values(document: dict, metric_name: str, workload: str) -> list:
    return [
        entry["results"][workload]["metrics"][metric_name]["value"]
        for entry in document["sets"]
        if not entry["traced"] and workload in entry["results"]
    ]


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    differing = benchlib.comparable(a["fingerprint"], b["fingerprint"])
    if differing:
        print(f"not comparable: the machine fingerprints differ in {', '.join(differing)}")
        return 2
    contract = benchlib.load_contract()
    regressed = 0
    print(f"{'metric':<22} {'workload':<20} {'A':>12} {'B':>12} {'change':>8}  verdict")
    for row in contract["end_to_end"]:
        for workload in (w["name"] for w in contract["workloads"]):
            va, vb = _values(a, row["name"], workload), _values(b, row["name"], workload)
            if not va or not vb:
                continue
            ma, mb = benchlib.median(va), benchlib.median(vb)
            change = (mb - ma) / ma
            worse = change if row["better"] == "lower" else -change
            verdict = "within-bound"
            if worse > row["bound"]:
                # Wider than the bound between a side's own sets, and the
                # sides overlap: the runs cannot tell the two apart.
                spread = max((max(v) - min(v)) / benchlib.median(v) for v in (va, vb))
                overlap = min(vb) <= max(va) if row["better"] == "lower" else max(vb) >= min(va)
                if len(va) > 1 and len(vb) > 1 and spread > row["bound"] and overlap:
                    verdict = "unresolved"
                else:
                    verdict = "regressed"
                    regressed += 1
            print(f"{row['name']:<22} {workload:<20} {ma:>12.4f} {mb:>12.4f} "
                  f"{change:>+8.1%}  {verdict}")
    return 1 if regressed else 0


# -- command line -----------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(MODULES), metavar="NAME")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness tests")
    parser.add_argument("--out", metavar="FILE", help="add this set of results to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return worker(args)
    if args.compare:
        return compare(*args.compare)

    # Fails here, before any run, where there is no program to measure.
    benchlib.use_checkout_source()
    contract = benchlib.load_contract()
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    names = args.workload or [workload["name"] for workload in contract["workloads"]]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke)
            print_result(results[name])
    finally:
        shutil.rmtree(benchlib.WORK_DIR, ignore_errors=True)

    if args.out:
        path = Path(args.out)
        document = {"fingerprint": benchlib.fingerprint(), "sets": []}
        if path.exists():
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
            differing = benchlib.comparable(document["fingerprint"], benchlib.fingerprint())
            if differing:
                raise SystemExit(f"bench: {path} was measured on another machine ({differing})")
        document["sets"].append({
            "seed": args.seed, "seconds": seconds, "traced": bool(args.trace), "results": results,
        })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")

    correct = all(result["correct"] for result in results.values())
    if len(names) == 1:
        print(json.dumps(contract_object(results[names[0]], contract)))
    else:
        print(json.dumps({
            "workloads": {name: bool(result["correct"]) for name, result in results.items()},
            "correct": correct, "claim": None,
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
