"""Recompute the golden decision streams and training weights, and rewrite
``tests/golden/decisions.json`` and ``tests/golden/training.json``.

Every cell of the corpus (``tests/golden/corpus.py``) is run again; the file
is rewritten with the new digests, and the keys that were added, removed or
moved are printed.  The tiny training run's weight statistics are rewritten
only if they moved beyond the tolerance ``tests/test_golden.py`` allows, so a
machine whose last bits differ leaves the file alone.  A change that moves a
schedule or the weights commits the rewritten files in its own diff.

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
