"""Tests for the unified observability subsystem (repro.obs).

Covers the determinism-critical surfaces named in docs/observability.md:
histogram bucket-edge determinism, counter overflow/negative-delta
rejection, span ring wraparound, Chrome-trace JSON schema validity, the
Prometheus exposition round-trip, and the shared engine-stats delta helper.
"""

import json

import pytest

from repro.obs import (
    LATENCY_BUCKETS_S,
    WORKER_PUBLISHED_COUNTERS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanTracer,
    diff_snapshots,
    engine_stats_delta,
    parse_prometheus_text,
)
from repro.obs.metrics import _INT64_MAX


# -- counters ------------------------------------------------------------------
class TestCounter:
    def test_basic_increment(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("events_total")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_negative_delta_rejected(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("events_total")
        counter.inc(5)
        with pytest.raises(ValueError, match="monotonic"):
            counter.inc(-1)
        assert counter.value == 5  # rejection left the value untouched

    def test_overflow_rejected_at_int64(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("events_total")
        counter.inc(_INT64_MAX)
        assert counter.value == _INT64_MAX
        with pytest.raises(OverflowError):
            counter.inc()
        assert counter.value == _INT64_MAX

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("events_total")
        counter.inc(10)
        assert counter.value == 0
        registry.enable()
        counter.inc(10)
        assert counter.value == 10

    def test_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry(enabled=True)
        a = registry.counter("events_total", op="x")
        b = registry.counter("events_total", op="x")
        assert a is b
        assert registry.counter("events_total", op="y") is not a

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("thing")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("thing")

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("events_total")
        counter.inc(7)
        registry.reset()
        assert counter.value == 0  # the module-level handle stays valid
        counter.inc()
        assert registry.counter("events_total").value == 1


class TestGauge:
    def test_set_and_read(self):
        registry = MetricsRegistry(enabled=True)
        gauge = registry.gauge("queue_depth")
        gauge.set(17)
        gauge.set(3)
        assert gauge.value == 3.0


# -- histograms ----------------------------------------------------------------
class TestHistogram:
    def test_bucket_edges_are_deterministic(self):
        """A value exactly on a bound lands in that bound's bucket (le
        semantics), and repeated runs produce identical bucket vectors."""
        hist = Histogram("latency_seconds", (1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.0000001, 2.0, 4.9, 5.0, 5.1):
            hist.observe(value)
        # 0.5 and 1.0 -> le=1.0; 1.0000001 and 2.0 -> le=2.0;
        # 4.9 and 5.0 -> le=5.0; 5.1 -> overflow.
        assert hist.bucket_counts() == [2, 2, 2, 1]
        assert hist.count == 7

    def test_compiled_in_bounds_are_strictly_increasing(self):
        assert all(b > a for a, b in zip(LATENCY_BUCKETS_S, LATENCY_BUCKETS_S[1:]))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", (2.0, 1.0))

    def test_bound_mismatch_on_reregistration_rejected(self):
        registry = MetricsRegistry(enabled=True)
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="bucket bounds"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_quantile_interpolation(self):
        hist = Histogram("h", (1.0, 2.0, 4.0))
        for _ in range(100):
            hist.observe(1.5)  # all in the (1.0, 2.0] bucket
        assert hist.quantile(0.0) == pytest.approx(1.0)
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert hist.quantile(1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_overflow_bucket_reports_last_bound(self):
        hist = Histogram("h", (1.0, 2.0))
        hist.observe(100.0)
        assert hist.quantile(0.99) == 2.0

    def test_quantile_empty(self):
        assert Histogram("h", (1.0,)).quantile(0.5) == 0.0


# -- snapshots and exposition --------------------------------------------------
class TestSnapshots:
    @staticmethod
    def _populated_registry() -> MetricsRegistry:
        registry = MetricsRegistry(enabled=True)
        registry.counter("requests_total", op="submit").inc(3)
        registry.counter("requests_total", op="tick").inc(1)
        registry.gauge("queue_depth").set(5)
        hist = registry.histogram("latency_seconds", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.002, 0.05, 1.0):
            hist.observe(value)
        return registry

    def test_snapshot_json_is_byte_deterministic(self):
        a = self._populated_registry().snapshot_json()
        b = self._populated_registry().snapshot_json()
        assert a == b
        # and registration order does not matter
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("latency_seconds", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.002, 0.05, 1.0):
            hist.observe(value)
        registry.gauge("queue_depth").set(5)
        registry.counter("requests_total", op="tick").inc(1)
        registry.counter("requests_total", op="submit").inc(3)
        assert registry.snapshot_json() == a

    def test_prometheus_round_trip(self):
        registry = self._populated_registry()
        text = registry.to_prometheus()
        samples = parse_prometheus_text(text)
        assert samples['requests_total{op="submit"}'] == 3
        assert samples['requests_total{op="tick"}'] == 1
        assert samples["queue_depth"] == 5.0
        # cumulative buckets, +Inf == _count
        assert samples['latency_seconds_bucket{le="0.001"}'] == 1
        assert samples['latency_seconds_bucket{le="0.01"}'] == 2
        assert samples['latency_seconds_bucket{le="0.1"}'] == 3
        assert samples['latency_seconds_bucket{le="+Inf"}'] == 4
        assert samples["latency_seconds_count"] == 4
        assert samples["latency_seconds_sum"] == pytest.approx(1.0525)

    def test_diff_snapshots(self):
        registry = self._populated_registry()
        before = registry.snapshot()
        registry.counter("requests_total", op="submit").inc(2)
        registry.gauge("queue_depth").set(9)
        registry.histogram("latency_seconds", buckets=(0.001, 0.01, 0.1)).observe(0.002)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["counters"]['requests_total{op="submit"}'] == 2
        assert delta["counters"]['requests_total{op="tick"}'] == 0
        assert delta["gauges"]["queue_depth"] == 9.0
        hist = delta["histograms"]["latency_seconds"]
        assert hist["count"] == 1
        assert hist["buckets"] == [0, 1, 0, 0]


class TestEngineStatsDelta:
    def test_config_passthrough_and_counter_subtraction(self):
        before = {
            "engine": "process", "num_workers": 2,
            "decisions": 100, "worker_wait_s": 1.0, "rollout_s": 2.0,
            "worker_idle_fraction": 0.25,
        }
        after = {
            "engine": "process", "num_workers": 2,
            "decisions": 150, "worker_wait_s": 1.5, "rollout_s": 3.0,
            "worker_idle_fraction": 0.25,
        }
        delta = engine_stats_delta(after, before)
        assert delta["engine"] == "process"
        assert delta["num_workers"] == 2
        assert delta["decisions"] == 50
        # idle fraction recomputed over THIS interval: 0.5 / (2 * 1.0)
        assert delta["worker_idle_fraction"] == pytest.approx(0.25)

    def test_interval_idle_fraction_differs_from_cumulative(self):
        before = {
            "engine": "process", "num_workers": 1, "worker_idle_fraction": 0.5,
            "worker_wait_s": 5.0, "rollout_s": 10.0,
        }
        after = {
            "engine": "process", "num_workers": 1, "worker_idle_fraction": 0.4583,
            "worker_wait_s": 5.5, "rollout_s": 12.0,
        }
        delta = engine_stats_delta(after, before)
        # interval idle: 0.5 wait / 2.0 wall = 0.25, not the stale 0.46
        assert delta["worker_idle_fraction"] == pytest.approx(0.25)

    def test_local_engine_has_no_idle_fraction(self):
        delta = engine_stats_delta(
            {"engine": "local", "decisions": 10}, {"engine": "local", "decisions": 4}
        )
        assert delta == {"engine": "local", "decisions": 6}


# -- tracer --------------------------------------------------------------------
class TestSpanTracer:
    def test_disabled_records_nothing(self):
        tracer = SpanTracer(capacity=8, enabled=False)
        tracer.complete("x", 0, 10)
        with tracer.span("y"):
            pass
        assert tracer.recorded == 0

    def test_ring_wraparound(self):
        tracer = SpanTracer(capacity=4, enabled=True)
        for index in range(10):
            tracer.complete(f"span-{index}", start_ns=index * 100, duration_ns=50)
        assert tracer.recorded == 10
        assert tracer.dropped == 6
        events = tracer.events()
        assert len(events) == 4
        # oldest-first: the four survivors are spans 6..9 in order
        assert [event[1] for event in events] == [
            "span-6", "span-7", "span-8", "span-9",
        ]

    def test_events_before_wraparound_keep_order(self):
        tracer = SpanTracer(capacity=8, enabled=True)
        for index in range(3):
            tracer.complete(f"span-{index}", start_ns=index, duration_ns=1)
        assert [event[1] for event in tracer.events()] == [
            "span-0", "span-1", "span-2",
        ]
        assert tracer.dropped == 0

    def test_chrome_trace_schema(self, tmp_path):
        tracer = SpanTracer(capacity=16, enabled=True)
        tracer.complete("work", start_ns=1_000, duration_ns=2_000, cat="engine",
                        args={"lanes": 4})
        tracer.instant("marker", cat="engine")
        doc = tracer.to_chrome()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        complete, instant = doc["traceEvents"]
        assert complete["ph"] == "X"
        assert complete["name"] == "work"
        assert complete["cat"] == "engine"
        assert complete["ts"] == pytest.approx(1.0)   # microseconds
        assert complete["dur"] == pytest.approx(2.0)
        assert complete["args"] == {"lanes": 4}
        assert isinstance(complete["pid"], int) and isinstance(complete["tid"], int)
        assert instant["ph"] == "i"
        assert "dur" not in instant
        # export round-trips through json
        path = tmp_path / "trace.json"
        tracer.export(path)
        assert json.loads(path.read_text()) == json.loads(json.dumps(doc))

    def test_span_context_manager_records_duration(self):
        tracer = SpanTracer(capacity=4, enabled=True)
        with tracer.span("timed", cat="test"):
            pass
        ((ph, name, cat, start_ns, duration_ns, pid, args, flow_id),) = tracer.events()
        assert (ph, name, cat) == ("X", "timed", "test")
        assert duration_ns >= 0
        assert flow_id is None

    def test_flow_events_chrome_schema(self):
        tracer = SpanTracer(capacity=16, enabled=True)
        tracer.complete("handle", start_ns=1_000, duration_ns=500, cat="svc")
        tracer.flow_start("req", 7, 1_000, cat="svc")
        tracer.flow_step("req", 7, 1_600, cat="svc")
        tracer.flow_end("req", 7, 2_000, cat="svc")
        doc = tracer.to_chrome()
        start, step, end = [e for e in doc["traceEvents"] if e["ph"] in "stf"]
        assert start["ph"] == "s" and start["id"] == 7
        assert start["ts"] == pytest.approx(1.0)  # microseconds
        assert step["ph"] == "t" and step["id"] == 7
        assert end["ph"] == "f" and end["id"] == 7
        # flow termini bind to the enclosing slice; flow events carry no dur
        assert end["bp"] == "e"
        assert "bp" not in start and "bp" not in step
        assert all("dur" not in e for e in (start, step, end))
        assert all(e["name"] == "req" for e in (start, step, end))

    def test_flow_events_respect_enabled_switch(self):
        tracer = SpanTracer(capacity=8, enabled=False)
        tracer.flow_start("req", 1, 0)
        tracer.flow_step("req", 1, 1)
        tracer.flow_end("req", 1, 2)
        assert tracer.recorded == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(capacity=0)


# -- wire-format constants -----------------------------------------------------
def test_worker_published_counters_is_stable():
    """The tuple is part of the shared-memory frame layout; changing its
    order or length is a wire-format break that must be deliberate."""
    assert WORKER_PUBLISHED_COUNTERS == (
        "sim_schedule_passes_total",
        "sim_decision_points_total",
        "sim_backfill_starts_total",
        "backfill_profile_builds_total",
        "sim_preemptions_total",
        "sim_requeues_total",
    )


def test_worker_counter_deltas_fit_int64():
    counter = Counter("sim_schedule_passes_total")
    counter.inc(_INT64_MAX)
    with pytest.raises(OverflowError):
        counter.inc(1)
