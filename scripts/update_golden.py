"""Recompute the golden decision streams, training weights and report
digests, and rewrite ``tests/golden/decisions.json``,
``tests/golden/training.json`` and ``tests/golden/reports.json``.

Every cell of the corpus (``tests/golden/corpus.py``) is run again; the file
is rewritten with the new digests, and the keys that were added, removed or
moved are printed.  The tiny training run's weight statistics are rewritten
only if they moved beyond the tolerance ``tests/test_golden.py`` allows, so a
machine whose last bits differ leaves the file alone.  The report digests come
from ``bench/run.py --workload W --seed 0 --seconds 1 --trace 0``, the run
``scripts/check_report_digests.py`` checks.  A change that moves a schedule or
the weights commits the rewritten files in its own diff.

Usage:
    PYTHONPATH=src python scripts/update_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.golden import corpus  # noqa: E402


def main() -> int:
    old = corpus.load() if corpus.GOLDEN_FILE.exists() else {}
    new = corpus.compute()
    hung = [key for key, digest in new.items() if digest == "hung"]
    if hung:
        print(f"{hung[0]} ran over {corpus.CELL_SECONDS} s; nothing written")
        return 1
    corpus.GOLDEN_FILE.write_text(corpus.dumps(new))
    changes = corpus.diff(old, new)
    for line in changes:
        print(line)
    written = corpus.GOLDEN_FILE.relative_to(ROOT)
    print(f"{len(new)} digests written to {written}; {len(changes)} changed")

    old_training = corpus.load(corpus.TRAINING_FILE) if corpus.TRAINING_FILE.exists() else {}
    training = corpus.training_summary()
    moved = corpus.training_moved(old_training, training)
    if moved:
        corpus.TRAINING_FILE.write_text(corpus.dumps(training))
    print(f"training weights: {len(moved)} of {len(training)} arrays moved")

    old_reports = corpus.load(corpus.REPORTS_FILE) if corpus.REPORTS_FILE.exists() else {}
    reports = {}
    for workload in corpus.REPORT_WORKLOADS:
        digest, output = corpus.report_digest(workload)
        if digest is None:
            print(f"{workload} printed no report_digest; reports not written\n{output}")
            return 1
        reports[workload] = digest
    corpus.REPORTS_FILE.write_text(corpus.dumps(reports))
    changes = corpus.diff(old_reports, reports)
    for line in changes:
        print(line)
    print(f"report digests: {len(changes)} of {len(reports)} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
