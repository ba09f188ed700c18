"""Cross-process span collection: sidecars, deterministic merge, respawns.

Covers the distributed half of ``repro.obs``:

* sidecar write/read round-trips preserve events, labels, and ring
  accounting (``recorded``/``dropped``) exactly;
* the merged Chrome trace is a pure function of the event *set* -- bytes
  are identical no matter how events were chunked across sidecar files or
  in which order the files are enumerated;
* ring wraparound surfaces as per-source ``dropped`` counts and an
  ``overflowed`` label list in the merge summary, never silently;
* a real :class:`ProcessLanePool` run with fault-injected worker kills
  exports per-worker sidecars, tags the respawned worker's label with its
  generation (``.r1``), and marks replayed recovery rounds with
  ``args.replay`` in the merged timeline.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import RLBackfillAgent
from repro.faults import FaultPlan
from repro.obs import (
    disable_tracing,
    enable_tracing,
    export_chrome_trace,
    get_tracer,
    merge_chrome_trace,
    read_sidecar,
    set_trace_spool_dir,
    trace_spool_dir,
    tracing_enabled,
)
from repro.obs.collect import sidecar_path, sidecar_paths, write_sidecar
from repro.obs.trace import SpanTracer
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.lane_pool import ProcessLanePool
from tests.test_parity_matrix import OBS_CONFIG, make_training_env


def make_events(count, pid, base_ts=1_000):
    """``count`` synthetic complete events on lane ``pid``."""
    return [
        ("X", f"phase-{i % 3}", "test", base_ts + 100 * i, 50, pid, {"i": i}, None)
        for i in range(count)
    ]


def tracer_with(events, capacity=64):
    tracer = SpanTracer(capacity=capacity, enabled=True)
    for event in events:
        tracer._record(event)
    return tracer


class TestSidecarRoundTrip:
    def test_write_read_preserves_events_and_accounting(self, tmp_path):
        events = make_events(5, pid=1234)
        tracer = tracer_with(events)
        path = write_sidecar(tmp_path / "w.spans.json", tracer, label="worker-7")
        source = read_sidecar(path)
        assert source["label"] == "worker-7"
        assert source["recorded"] == 5
        assert source["dropped"] == 0
        # JSON turns tuples into lists and None stays None; read_sidecar
        # restores tuple records that chrome_event accepts unchanged.
        assert source["events"] == [tuple(e) for e in events]

    def test_wraparound_accounting_round_trips(self, tmp_path):
        tracer = SpanTracer(capacity=4, enabled=True)
        for event in make_events(10, pid=99):
            tracer._record(event)
        assert tracer.recorded == 10
        assert tracer.dropped == 6
        source = read_sidecar(write_sidecar(tmp_path / "x.spans.json", tracer, label="hot"))
        assert source["recorded"] == 10
        assert source["dropped"] == 6
        # Only the newest capacity-many events survive, oldest first.
        assert [e[0] for e in source["events"]] == ["X"] * 4
        assert [e[6]["i"] for e in source["events"]] == [6, 7, 8, 9]

    def test_overflowed_sources_named_in_merge_summary(self, tmp_path):
        tracer = SpanTracer(capacity=4, enabled=True)
        for event in make_events(10, pid=99):
            tracer._record(event)
        write_sidecar(sidecar_path(tmp_path, "hot-worker"), tracer, label="hot-worker")
        calm = tracer_with(make_events(2, pid=41))
        write_sidecar(sidecar_path(tmp_path, "calm"), calm, label="calm")
        sources = [read_sidecar(p) for p in sidecar_paths(tmp_path)]
        _, summary = merge_chrome_trace(sources)
        assert summary["overflowed"] == ["hot-worker"]
        rows = {row["label"]: row for row in summary["sources"]}
        assert rows["hot-worker"]["dropped"] == 6
        assert rows["calm"]["dropped"] == 0

    def test_sidecar_path_sanitizes_label(self, tmp_path):
        path = sidecar_path(tmp_path, "lane pool/worker:3.r1")
        assert path.parent == tmp_path
        assert "/" not in path.name[: -len(".spans.json")]
        assert path.name.startswith("lane-pool-worker-3.r1-p")
        assert path.name.endswith(".spans.json")

    def test_sidecar_paths_empty_for_missing_dir(self, tmp_path):
        assert sidecar_paths(tmp_path / "nope") == []

    def test_read_rejects_unknown_version(self, tmp_path):
        bad = tmp_path / "bad.spans.json"
        bad.write_text(json.dumps({"version": 99, "pid": 1, "label": "x", "events": []}))
        with pytest.raises(ValueError, match="version"):
            read_sidecar(bad)


class TestDeterministicMerge:
    """Merged bytes depend on the event set, not the chunking or file order."""

    def events_by_lane(self):
        return {
            4001: make_events(6, pid=4001, base_ts=1_000),
            4002: make_events(6, pid=4002, base_ts=1_050),
        }

    @staticmethod
    def chunk(events, pieces):
        """Split one lane's events into ``pieces`` interleaved slices."""
        return [events[i::pieces] for i in range(pieces)]

    def render(self, sources):
        doc, _ = merge_chrome_trace(sources)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def test_bytes_invariant_to_sidecar_chunking(self):
        lanes = self.events_by_lane()
        coarse = [
            {"pid": pid, "label": f"worker-{pid}", "recorded": 6, "dropped": 0, "events": evs}
            for pid, evs in lanes.items()
        ]
        fine = [
            {"pid": pid, "label": f"worker-{pid}", "recorded": 3, "dropped": 0, "events": part}
            for pid, evs in lanes.items()
            for part in self.chunk(evs, 3)
        ]
        assert len(fine) == 3 * len(coarse)
        assert self.render(coarse) == self.render(fine)

    def test_bytes_invariant_to_source_order(self):
        lanes = self.events_by_lane()
        sources = [
            {"pid": pid, "label": f"worker-{pid}", "recorded": 6, "dropped": 0, "events": evs}
            for pid, evs in lanes.items()
        ]
        assert self.render(sources) == self.render(list(reversed(sources)))

    def test_metadata_names_lanes_and_precedes_spans(self):
        lanes = self.events_by_lane()
        sources = [
            {"pid": pid, "label": f"worker-{pid}", "recorded": 6, "dropped": 0, "events": evs}
            for pid, evs in lanes.items()
        ]
        doc, summary = merge_chrome_trace(sources)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert [m["pid"] for m in meta] == sorted(lanes)
        assert [m["args"]["name"] for m in meta] == [f"worker-{pid}" for pid in sorted(lanes)]
        assert doc["traceEvents"][: len(meta)] == meta
        spans = doc["traceEvents"][len(meta) :]
        assert [s["ts"] for s in spans] == sorted(s["ts"] for s in spans)
        assert summary["events"] == len(spans) == 12

    def test_shared_pid_labels_deduplicate_and_join(self):
        sources = [
            {"pid": 7, "label": "worker-0", "recorded": 1, "dropped": 0,
             "events": make_events(1, pid=7)},
            {"pid": 7, "label": "worker-0.r1", "recorded": 1, "dropped": 0,
             "events": make_events(1, pid=7, base_ts=2_000)},
        ]
        doc, _ = merge_chrome_trace(sources)
        (meta,) = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta["args"]["name"] == "worker-0+worker-0.r1"

    def test_flow_events_survive_merge_with_ids(self):
        flow = [
            ("s", "req", "svc", 1_000, 0, 31, None, 5),
            ("f", "req", "svc", 2_000, 0, 32, None, 5),
        ]
        sources = [
            {"pid": 31, "label": "a", "recorded": 1, "dropped": 0, "events": flow[:1]},
            {"pid": 32, "label": "b", "recorded": 1, "dropped": 0, "events": flow[1:]},
        ]
        doc, _ = merge_chrome_trace(sources)
        start, end = [e for e in doc["traceEvents"] if e["ph"] in "sf"]
        assert start["id"] == end["id"] == 5
        assert end["bp"] == "e"

    def test_export_bytes_deterministic_across_spool_layouts(self, tmp_path):
        lanes = self.events_by_lane()
        spool_a, spool_b = tmp_path / "a", tmp_path / "b"
        for pid, evs in lanes.items():
            write_sidecar(
                spool_a / f"worker-{pid}{'' if pid else ''}.spans.json",
                tracer_with(evs),
                label=f"worker-{pid}",
            )
            for j, part in enumerate(self.chunk(evs, 2)):
                write_sidecar(
                    spool_b / f"chunk{j}-worker-{pid}.spans.json",
                    tracer_with(part),
                    label=f"worker-{pid}",
                )
        parent = SpanTracer(capacity=4, enabled=False)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        summary_a = export_chrome_trace(out_a, spool_dir=spool_a, parent=parent)
        summary_b = export_chrome_trace(out_b, spool_dir=spool_b, parent=parent)
        assert out_a.read_bytes() == out_b.read_bytes()
        assert summary_a["events"] == summary_b["events"] == 12


@pytest.fixture
def span_spool(tmp_path):
    """Tracing on + spool dir set, fully restored afterwards."""
    was_tracing = tracing_enabled()
    was_spool = trace_spool_dir()
    enable_tracing()
    set_trace_spool_dir(tmp_path)
    yield tmp_path
    set_trace_spool_dir(was_spool)
    if not was_tracing:
        disable_tracing()
    get_tracer().clear()


class TestLanePoolSpanExport:
    def test_workers_export_sidecars_with_respawn_tagging(self, small_trace, span_spool):
        lanes = 8
        pool = ProcessLanePool.from_template(
            make_training_env(small_trace),
            lanes,
            seed=11,
            num_workers=2,
            work_stealing=False,
            fault_plan=FaultPlan(worker_kills=((0, 0),)),
        )
        agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
        with pool:
            buffer = TrajectoryBuffer()
            pool.rollout(
                agent, lanes, buffer,
                rngs=[np.random.default_rng(i) for i in range(lanes)],
            )
            stats = pool.stats()
        assert stats["respawns"] == 1

        paths = sidecar_paths(span_spool)
        labels = {read_sidecar(p)["label"] for p in paths}
        # The SIGKILLed generation-0 worker 0 never reaches its drain; its
        # replacement exports under the generation tag, worker 1 plainly.
        assert "lane-pool-worker-0.r1" in labels
        assert "lane-pool-worker-1" in labels

        summary = export_chrome_trace(span_spool / "merged.json", spool_dir=span_spool)
        doc = json.loads((span_spool / "merged.json").read_text())
        assert {row["label"] for row in summary["sources"]} == labels | {"parent"}
        steps = [e for e in doc["traceEvents"] if e.get("name") == "worker.step"]
        assert steps, "merged trace must contain worker-side step spans"
        assert all("dur" in e and e["cat"] == "worker" for e in steps)
        by_worker = {e["args"]["worker"] for e in steps}
        assert by_worker == {0, 1}
        # The respawned worker replays the killed generation's rounds from
        # the command history; those catch-up spans are tagged.
        replayed = [e for e in steps if e["args"].get("replay")]
        assert replayed
        assert {e["args"]["worker"] for e in replayed} == {0}
        # Replay tagging is per-round, not per-worker: worker 0 also has
        # fresh (untagged) spans from rounds after it caught up.
        fresh_w0 = [
            e for e in steps if e["args"]["worker"] == 0 and not e["args"].get("replay")
        ]
        assert fresh_w0

    def test_no_sidecars_written_without_spool_dir(self, small_trace, tmp_path):
        was_tracing = tracing_enabled()
        enable_tracing()
        set_trace_spool_dir(None)
        try:
            pool = ProcessLanePool.from_template(
                make_training_env(small_trace), 4, seed=11,
                num_workers=2, work_stealing=False,
            )
            agent = RLBackfillAgent(observation_config=OBS_CONFIG, seed=5)
            with pool:
                pool.rollout(
                    agent, 4, TrajectoryBuffer(),
                    rngs=[np.random.default_rng(i) for i in range(4)],
                )
            assert sidecar_paths(tmp_path) == []
        finally:
            if not was_tracing:
                disable_tracing()
            get_tracer().clear()
