"""Shared pieces of the benchmark harness: statistics, stopwatches, the
machine fingerprint, the metric catalogue read from ``BENCHMARK.json``.

Nothing here imports :mod:`repro`; the workload modules do, after
:func:`use_checkout_source` has put this checkout's ``src/`` first on the
path, so a ``repro`` installed elsewhere can never be the one measured.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch space of a run (replay logs); removed when the run ends.
WORK_DIR = BENCH_DIR / ".work"

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: BLAS pools are pinned to one thread in the workload process.  On the
#: 2-core reference box the default (two OpenBLAS threads beside the Python
#: thread) made identical training runs read 604..1117 decisions/s; pinned
#: they read 887..915.  The values found in the environment are recorded in
#: the fingerprint next to the pin.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def use_checkout_source() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` and insist it holds repro."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))


def load_contract() -> Dict[str, object]:
    """``BENCHMARK.json``: the one list of workloads, metrics, units and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- statistics ---------------------------------------------------------------

def percentile(samples: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of raw samples (``q`` in percent)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """``percentile(samples, q)``, or ``None`` unless at least ten samples lie
    beyond it (p99 therefore needs 1000 samples)."""
    if len(samples) * (1.0 - q / 100.0) < 10.0 - 1e-9:
        return None
    return percentile(samples, q)


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def sums_to(parts: Iterable[float], whole: float, tolerance: float = 0.03) -> bool:
    """Whether ``parts`` add up to ``whole`` within ``tolerance`` of it."""
    return whole > 0.0 and abs(sum(parts) - whole) <= tolerance * whole


def all_finite(values: Iterable[float]) -> bool:
    return all(math.isfinite(float(value)) for value in values)


def digest(payload: bytes | str) -> str:
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# -- stopwatches --------------------------------------------------------------

class Stopwatches:
    """Harness-side timers wrapped around calls into a layer's public functions.

    Timers nest: a wrapped call made while another wrapped call is running is
    its child, and :meth:`self_s` is a timer's total minus the time its
    children cover.  While :attr:`enabled` is false a wrapped function costs
    one attribute test.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.total_s: Dict[str, float] = {}
        self.child_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[List[object]] = []

    def wrap(self, name: str, function: Callable) -> Callable:
        self.total_s.setdefault(name, 0.0)
        self.child_s.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)

        def timed(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            started = self.clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = self.clock() - started
                self._stack.pop()
                self.total_s[name] += elapsed
                self.child_s[name] += frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed

        return timed

    def self_s(self, name: str) -> float:
        return self.total_s[name] - self.child_s[name]


def span_durations(events: Iterable[tuple], name: str, **args_equal) -> List[float]:
    """Durations (seconds) of the program's own complete spans called ``name``
    whose ``args`` carry every ``args_equal`` item (``repro.obs`` ring records)."""
    found = []
    for phase, span_name, _cat, _start, duration_ns, _pid, args, _flow in events:
        if phase != "X" or span_name != name:
            continue
        if args_equal and not all((args or {}).get(k) == v for k, v in args_equal.items()):
            continue
        found.append(duration_ns / 1e9)
    return found


# -- the measured region ------------------------------------------------------

class QuietProbe:
    """A fixed piece of work that tells a disturbed machine from a quiet one.

    The reference box is a shared VM.  For a minute or two at a time its
    neighbours slow memory-bound Python (and so every workload here) by up to
    40%, while a tight arithmetic loop barely notices.  Random access into a
    few megabytes of small objects notices most of all: in runs that lost
    40% of their rate this probe took 1.4 to 7.5 times its usual 5 ms, in
    undisturbed runs it stayed within 3%.  It is the program's code that is
    being measured, never this; the probe only marks which operations to keep.
    """

    OBJECTS = 20_000
    PROBES = 4_000
    #: A sample this many times the usual one marks a disturbance.  The usual
    #: one is the lower quartile of the samples taken so far: right after an
    #: operation, with the caches as the program left them.
    TOLERANCE = 1.25

    def __init__(self):
        self._objects = [(float(i), i, {"a": i}) for i in range(self.OBJECTS)]
        self._order = [(i * 7919) % self.OBJECTS for i in range(self.PROBES)]
        self.samples: List[float] = []

    def sample(self) -> float:
        objects, heap, total = self._objects, [], 0
        started = time.perf_counter()
        for index in self._order:
            item = objects[index]
            total += item[2]["a"]
            heapq.heappush(heap, (item[0], index))
            if len(heap) > 64:
                heapq.heappop(heap)
        seconds = time.perf_counter() - started
        self.samples.append(seconds)
        return seconds

    def usual_s(self) -> float:
        return percentile(self.samples, 25.0)

    def quiet(self, seconds: float) -> bool:
        return seconds <= self.TOLERANCE * self.usual_s()


class Region:
    """One measured region: its clocks, its operations, its deadline.

    Operations are recorded back to back, a :class:`QuietProbe` sample between
    each two.  An operation whose two bracketing samples are both quiet is
    *clean*; the region stays open until ``seconds`` have passed and, if the
    machine was disturbed, up to twice as long until :attr:`MIN_CLEAN`
    operations are clean.  Metrics are taken over the clean operations (over
    all of them when there are too few to choose from).
    """

    MIN_CLEAN = 5
    STRETCH = 2.0

    def __init__(self, seconds: float):
        self.seconds = float(seconds)
        self.probe = QuietProbe()
        self.ops: List[dict] = []
        self._last_sample = 0.0      # nothing ran before the first operation
        self.wall_start = time.perf_counter()
        self.cpu_start = time.process_time()
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def done(self, work: float, wall_s: float, **extra) -> None:
        """Record one finished operation and sample the probe after it."""
        sample = self.probe.sample()
        self.ops.append(
            {"work": work, "wall_s": wall_s, "before": self._last_sample, "after": sample, **extra}
        )
        self._last_sample = sample

    def _clean(self, op: dict) -> bool:
        return self.probe.quiet(op["before"]) and self.probe.quiet(op["after"])

    def open(self, min_ops: int = 1) -> bool:
        """True while the region should run another operation."""
        elapsed = time.perf_counter() - self.wall_start
        if elapsed < self.seconds or len(self.ops) < min_ops:
            return True
        enough = sum(self._clean(op) for op in self.ops) >= self.MIN_CLEAN
        return not enough and elapsed < self.STRETCH * self.seconds

    def close(self) -> None:
        self.wall_s = time.perf_counter() - self.wall_start
        self.cpu_s = time.process_time() - self.cpu_start

    def kept(self) -> List[dict]:
        """The operations the metrics are taken over."""
        clean = [op for op in self.ops if self._clean(op)]
        return clean if len(clean) >= min(self.MIN_CLEAN, len(self.ops)) else self.ops


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# -- fingerprint --------------------------------------------------------------

def _git(*arguments: str) -> str:
    try:
        done = subprocess.run(
            ["git", *arguments], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def _git_commit() -> str:
    """The commit measured, ``-dirty`` when the tree differs from it."""
    commit = _git("rev-parse", "HEAD")
    if not commit:
        return "unknown"
    return commit + ("-dirty" if _git("status", "--porcelain") else "")


def fingerprint() -> Dict[str, object]:
    """What a result was measured on; results compare only when these agree."""
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return {
        "usable_cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_found": {name: os.environ.get(name) for name in THREAD_ENV},
        "blas_threads_pinned": 1,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


#: Fingerprint fields that must agree for two results to be comparable (the
#: commit is what is being compared, so it is not one of them).
COMPARABLE_FIELDS = (
    "usable_cores", "python", "numpy", "blas", "blas_threads_pinned", "platform", "machine",
)


def comparable(a: Mapping[str, object], b: Mapping[str, object]) -> List[str]:
    """Names of the fingerprint fields on which ``a`` and ``b`` differ."""
    return [name for name in COMPARABLE_FIELDS if a.get(name) != b.get(name)]
