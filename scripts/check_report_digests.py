"""Exactness guard: the three evaluation workloads still schedule as recorded.

Runs ``bench/run.py --workload W --seed 0 --seconds 1 --trace 0`` for
``eval-rl-paper``, ``eval-conservative`` and ``eval-hetero`` and compares the
``report_digest`` each prints with the one recorded for that workload in
``tests/golden/reports.json``.  A digest covers every cell's schedule, so a
change that moves one decision of one cell moves it.  A change meant to move
schedules rewrites the record with ``scripts/update_golden.py`` in its own
diff.  Exit codes:

* 0 -- every digest equals the recorded one,
* 1 -- a digest differs, is not printed, or the run failed.

Run from anywhere with:

    python scripts/check_report_digests.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.golden import corpus  # noqa: E402


def main() -> int:
    expected = corpus.load(corpus.REPORTS_FILE)
    record = corpus.REPORTS_FILE.relative_to(ROOT)
    failures = 0
    for workload in corpus.REPORT_WORKLOADS:
        digest, output = corpus.report_digest(workload)
        want = expected.get(workload)
        if digest is not None and digest == want:
            print(f"{workload}: report_digest {digest[:8]} matches {record}")
            continue
        failures += 1
        print(f"{workload}: report_digest {digest} != recorded {want}", file=sys.stderr)
        if digest is None:
            print(output, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
