"""Exactness guard: the three evaluation workloads still schedule as recorded.

Runs ``bench/run.py --workload W --seed 0 --seconds 1 --trace 0`` for
``eval-rl-paper``, ``eval-conservative`` and ``eval-hetero`` and compares the
``report_digest`` each prints with the seed-0 digest recorded for that
workload in ``bench/results/BENCH_12.json`` (read only).  A digest covers
every cell's schedule, so a change that moves one decision of one cell moves
it.  Exit codes:

* 0 -- every digest equals the recorded one,
* 1 -- a digest differs, is not printed, or the run failed.

Run from anywhere with:

    python scripts/check_report_digests.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "bench" / "results" / "BENCH_12.json"
WORKLOADS = ("eval-rl-paper", "eval-conservative", "eval-hetero")
_DIGEST = re.compile(r"^\s*\. report_digest = ([0-9a-f]+)\s*$", re.MULTILINE)


def recorded_digests(seed: int = 0) -> dict:
    """``{workload: report_digest}`` of the untraced ``seed`` sets of the record."""
    document = json.loads(RECORD.read_text(encoding="utf-8"))
    digests = {}
    for entry in document["sets"]:
        if entry["seed"] != seed or entry["traced"]:
            continue
        for workload, result in entry["results"].items():
            digest = result.get("info", {}).get("report_digest")
            if digest is not None:
                digests.setdefault(workload, digest)
    return digests


def printed_digest(workload: str) -> tuple:
    """``(report_digest or None, the run's output)`` of one one-second run."""
    command = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", "1", "--trace", "0",
    ]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    output = run.stdout + run.stderr
    found = _DIGEST.findall(run.stdout)
    return (found[-1] if run.returncode == 0 and found else None), output


def main() -> int:
    expected = recorded_digests()
    failures = 0
    for workload in WORKLOADS:
        digest, output = printed_digest(workload)
        want = expected.get(workload)
        if digest is not None and digest == want:
            print(f"{workload}: report_digest {digest[:8]} matches {RECORD.name}")
            continue
        failures += 1
        print(f"{workload}: report_digest {digest} != recorded {want}", file=sys.stderr)
        if digest is None:
            print(output, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
