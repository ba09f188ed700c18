"""Process-local deterministic metrics registry.

One :class:`MetricsRegistry` holds monotonic :class:`Counter`\\ s,
:class:`Gauge`\\ s, and fixed-bucket :class:`Histogram`\\ s.  Three properties
make the registry safe to leave compiled into hot paths:

* **Near-zero disabled cost.**  Every recording method checks its registry's
  ``enabled`` flag first and returns immediately when collection is off --
  two attribute loads and a branch, no allocation, no clock read.  The
  global registry (:func:`get_metrics`) starts disabled unless
  ``REPRO_OBS_METRICS=1`` is set; subsystems that *are* their own telemetry
  surface (rollout engines backing ``stats()``, the scheduling service
  backing its ``metrics`` wire op) construct private always-enabled
  registries instead.
* **Byte-deterministic snapshots.**  Histogram bucket bounds are compiled-in
  constants (:data:`LATENCY_BUCKETS_S`, :data:`SIZE_BUCKETS`), metric
  identity is the sorted ``(name, labels)`` pair, and :meth:`snapshot`
  orders everything lexicographically -- given deterministic inputs, two
  processes produce byte-identical ``json.dumps(snapshot, sort_keys=True)``.
* **Determinism-contract safe.**  Counters record *counts of events that are
  themselves deterministic* (schedule passes, decision points, profile
  builds); clock reads happen only at call sites outside bit-parity-checked
  computation and never feed back into scheduling or training math.  The
  parity matrix (``tests/test_parity_matrix.py``) runs with collection
  enabled to assert exactly that.

Shared-memory awareness: worker processes do not share a registry with the
parent.  :data:`WORKER_PUBLISHED_COUNTERS` names the global counters a lane
pool worker accumulates locally and publishes as per-frame *deltas* through
the existing shared-memory result rings; the parent folds the deltas into
its own registry (see :mod:`repro.rl.lane_pool`).

Naming scheme (see ``docs/observability.md``): ``<subsystem>_<what>_<unit>``
with ``_total`` for counters, ``_seconds``/``_ns`` for durations, labels for
low-cardinality dimensions (``{op=...}``, ``{worker=...}``).
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS",
    "WORKER_PUBLISHED_COUNTERS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "metrics_enabled",
    "enable_metrics",
    "disable_metrics",
    "diff_snapshots",
    "engine_stats_delta",
    "parse_prometheus_text",
]

#: Environment variable propagating the global enable switch to worker
#: processes (``fork`` children inherit the live registry; ``spawn`` children
#: re-read this at import).
METRICS_ENV = "REPRO_OBS_METRICS"

#: Largest value a counter may reach (int64, so counter deltas round-trip
#: through the lane pool's shared-memory ``int64`` frames losslessly).
_INT64_MAX = 2**63 - 1

#: Compiled-in latency bucket upper bounds (seconds): a 1-2-5 decade ladder
#: from 1 microsecond to 100 seconds.  Compiled-in so histogram snapshots are
#: byte-identical across processes and sessions.
LATENCY_BUCKETS_S: Tuple[float, ...] = tuple(
    round(base * 10.0**exp, 12)
    for exp in range(-6, 3)
    for base in (1.0, 2.0, 5.0)
)

#: Compiled-in size bucket upper bounds (counts): powers of two up to 64k.
SIZE_BUCKETS: Tuple[float, ...] = tuple(float(2**i) for i in range(17))

#: Global counters a lane-pool worker process accumulates locally and
#: publishes through its shared-memory result frames as per-frame deltas.
#: The tuple is part of the ring-frame layout (one int64 slot per name), so
#: order and length are wire-format constants.
WORKER_PUBLISHED_COUNTERS: Tuple[str, ...] = (
    "sim_schedule_passes_total",
    "sim_decision_points_total",
    "sim_backfill_starts_total",
    "backfill_profile_builds_total",
    "sim_preemptions_total",
    "sim_requeues_total",
)


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _sample_name(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Metric:
    """Shared plumbing: identity and the enabled check."""

    __slots__ = ("name", "labels", "_registry")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...], registry):
        self.name = name
        self.labels = labels
        self._registry = registry

    @property
    def enabled(self) -> bool:
        registry = self._registry
        return registry is None or registry.enabled

    @property
    def sample_name(self) -> str:
        return _sample_name(self.name, self.labels)


class Counter(_Metric):
    """Monotonic int64 counter.

    Rejects negative deltas (monotonicity) and increments past int64
    (overflow would corrupt the shared-memory delta frames) loudly rather
    than wrapping silently.
    """

    __slots__ = ("_value",)

    def __init__(self, name: str, labels=(), registry=None):
        super().__init__(name, tuple(labels), registry)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        registry = self._registry
        if registry is not None and not registry.enabled:
            return
        if amount < 0:
            raise ValueError(
                f"counter {self.sample_name} is monotonic; negative delta {amount} rejected"
            )
        value = self._value + amount
        if value > _INT64_MAX:
            raise OverflowError(
                f"counter {self.sample_name} would exceed int64 ({self._value} + {amount})"
            )
        self._value = value

    @property
    def value(self) -> int:
        return self._value

    def _reset(self) -> None:
        self._value = 0


class Gauge(_Metric):
    """Last-written value (queue depths, in-flight counts)."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels=(), registry=None):
        super().__init__(name, tuple(labels), registry)
        self._value = 0.0

    def set(self, value: float) -> None:
        registry = self._registry
        if registry is not None and not registry.enabled:
            return
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Histogram(_Metric):
    """Fixed-bucket histogram with Prometheus ``le`` (inclusive) semantics.

    ``bounds`` are compiled-in upper bounds; a value lands in the first
    bucket whose bound is ``>= value`` (a value exactly on a bound belongs to
    that bound's bucket -- deterministic, no float jitter at the edges), with
    one overflow bucket past the last bound.  Construct standalone (always
    recording) or through a registry (gated by its ``enabled`` flag).
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count")

    def __init__(self, name: str, bounds: Sequence[float], labels=(), registry=None):
        super().__init__(name, tuple(labels), registry)
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be non-empty and strictly increasing")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        registry = self._registry
        if registry is not None and not registry.enabled:
            return
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts, overflow bucket last."""
        return list(self._counts)

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile, ``q`` in ``[0, 1]``.

        Linear interpolation inside the containing bucket (lower edge 0 for
        the first); the overflow bucket reports its lower bound (there is no
        upper edge to interpolate toward).  With no observations, 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if index == len(self.bounds):
                    return self.bounds[-1]
                lo = 0.0 if index == 0 else self.bounds[index - 1]
                hi = self.bounds[index]
                fraction = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
            cumulative += bucket_count
        return self.bounds[-1]  # pragma: no cover - unreachable with count > 0

    def _reset(self) -> None:
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0


class MetricsRegistry:
    """Get-or-create store of metrics keyed by ``(name, sorted labels)``."""

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], _Metric] = {}

    # -- switches -----------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric *in place* (module-level handles stay valid)."""
        for metric in self._metrics.values():
            metric._reset()

    # -- get-or-create ------------------------------------------------------
    def _get(self, cls, name: str, labels: Dict[str, str], *args):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, *args, labels=key[1], registry=self)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {key[0]!r} already registered as {type(metric).__name__}, "
                f"not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS_S, **labels: str
    ) -> Histogram:
        metric = self._get(Histogram, name, labels, buckets)
        if metric.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with different bucket bounds"
            )
        return metric

    def metrics(self) -> List[_Metric]:
        return [self._metrics[key] for key in sorted(self._metrics)]

    # -- snapshots ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic nested dict: ``{"counters": .., "gauges": ..,
        "histograms": ..}``, sample names sorted lexicographically."""
        out: Dict[str, Dict[str, object]] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self.metrics():
            key = metric.sample_name
            if isinstance(metric, Counter):
                out["counters"][key] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][key] = metric.value
            else:
                out["histograms"][key] = {
                    "buckets": metric.bucket_counts(),
                    "sum": metric.sum,
                    "count": metric.count,
                }
        return out

    def snapshot_json(self) -> str:
        """The byte-deterministic serialized form of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))

    # -- Prometheus text exposition -----------------------------------------
    def to_prometheus(self) -> str:
        """Text exposition format 0.0.4 (cumulative buckets, ``+Inf``,
        ``_sum``/``_count``), families sorted by name."""
        lines: List[str] = []
        seen_types: set = set()
        for metric in self.metrics():
            if isinstance(metric, Counter):
                kind = "counter"
            elif isinstance(metric, Gauge):
                kind = "gauge"
            else:
                kind = "histogram"
            if metric.name not in seen_types:
                lines.append(f"# TYPE {metric.name} {kind}")
                seen_types.add(metric.name)
            if isinstance(metric, (Counter, Gauge)):
                value = metric.value
                rendered = repr(value) if isinstance(value, float) else str(value)
                lines.append(f"{metric.sample_name} {rendered}")
                continue
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.bucket_counts()):
                cumulative += count
                labels = metric.labels + (("le", repr(bound)),)
                lines.append(f"{_sample_name(metric.name + '_bucket', labels)} {cumulative}")
            labels = metric.labels + (("le", "+Inf"),)
            lines.append(f"{_sample_name(metric.name + '_bucket', labels)} {metric.count}")
            lines.append(f"{_sample_name(metric.name + '_sum', metric.labels)} {repr(metric.sum)}")
            lines.append(f"{_sample_name(metric.name + '_count', metric.labels)} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse text exposition back into ``{sample_name: value}``.

    Covers the subset :meth:`MetricsRegistry.to_prometheus` emits (which is
    what ``scripts/load_service.py`` scrapes from the service's ``metrics``
    wire op); comment/``# TYPE`` lines are skipped.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            continue
        samples[name] = float(value)
    return samples


def diff_snapshots(
    before: Dict[str, Dict[str, object]], after: Dict[str, Dict[str, object]]
) -> Dict[str, Dict[str, object]]:
    """Per-interval delta of two :meth:`MetricsRegistry.snapshot` dicts.

    Counters and histogram buckets/sums/counts subtract; gauges are
    last-written values, so the ``after`` reading is reported as is.
    Samples absent from ``before`` diff against zero.
    """
    out: Dict[str, Dict[str, object]] = {"counters": {}, "gauges": {}, "histograms": {}}
    for key, value in after.get("counters", {}).items():
        out["counters"][key] = value - before.get("counters", {}).get(key, 0)
    out["gauges"] = dict(after.get("gauges", {}))
    for key, hist in after.get("histograms", {}).items():
        prev = before.get("histograms", {}).get(
            key, {"buckets": [0] * len(hist["buckets"]), "sum": 0.0, "count": 0}
        )
        out["histograms"][key] = {
            "buckets": [a - b for a, b in zip(hist["buckets"], prev["buckets"])],
            "sum": hist["sum"] - prev["sum"],
            "count": hist["count"] - prev["count"],
        }
    return out


#: ``engine.stats()`` keys that describe configuration, not accumulation.
_STATS_CONFIG_KEYS = ("engine", "num_workers")


def engine_stats_delta(after: Dict[str, object], before: Dict[str, object]) -> Dict[str, object]:
    """Per-interval delta of two rollout-engine ``stats()`` snapshots.

    The one shared implementation behind the Trainer's epoch-boundary engine
    log and ``scripts/profile_rollout.py``'s per-phase breakdown.  Config
    fields (engine/num_workers) pass through unchanged, every counter
    subtracts, and ``worker_idle_fraction`` -- a cumulative ratio -- is
    recomputed from *this interval's* wait/wall deltas so the result is the
    interval's own idle fraction, not the lifetime running mean.
    """
    delta: Dict[str, object] = {}
    for key, value in after.items():
        if key in _STATS_CONFIG_KEYS or isinstance(value, str):
            delta[key] = value
        elif key == "worker_idle_fraction":
            continue
        else:
            delta[key] = value - before.get(key, 0)
    if "worker_idle_fraction" in after:
        wait = float(delta.get("worker_wait_s", 0.0))
        wall = float(delta.get("rollout_s", 0.0))
        workers = int(after.get("num_workers", 0) or 0)
        delta["worker_idle_fraction"] = (
            round(wait / (workers * wall), 4) if workers and wall > 0 else 0.0
        )
    return delta


#: The process-global registry.  Disabled by default; the environment
#: variable seeds the switch so ``spawn``-started workers agree with a parent
#: that enabled collection before building its pool.
_REGISTRY = MetricsRegistry(enabled=os.environ.get(METRICS_ENV, "") == "1")


def get_metrics() -> MetricsRegistry:
    """The process-global registry (module-level handles stay valid forever:
    :meth:`MetricsRegistry.reset` zeroes in place, it never drops metrics)."""
    return _REGISTRY


def metrics_enabled() -> bool:
    return _REGISTRY.enabled


def enable_metrics() -> None:
    """Enable global collection, including in worker processes forked or
    spawned *after* this call (via :data:`METRICS_ENV`)."""
    _REGISTRY.enable()
    os.environ[METRICS_ENV] = "1"


def disable_metrics() -> None:
    _REGISTRY.disable()
    os.environ.pop(METRICS_ENV, None)
