"""Checks of the harness itself, at ``--smoke`` sizes.

    python -m pytest bench -q

Outside tier-1's ``testpaths``: these tests measure nothing about the
program, they pin the harness's arithmetic and its contract with
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import benchlib  # noqa: E402

CONTRACT = benchlib.load_contract()
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


# -- the contract file ------------------------------------------------------------

def test_names_and_units_are_well_formed():
    names = WORKLOADS + [
        row["name"] for row in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    ]
    assert all(benchlib.NAME_PATTERN.match(name) for name in names)
    assert len(names) == len(set(names))
    assert set(CONTRACT["paths"]) == {"bench"}
    assert {row["name"] for row in CONTRACT["end_to_end"]} >= {"setup_s"}
    assert all(0 < row["bound"] <= 0.25 for row in CONTRACT["end_to_end"])
    assert all(len(workload["why"]) <= 200 for workload in CONTRACT["workloads"])


# -- statistics -------------------------------------------------------------------

def test_percentile_is_exact_nearest_rank():
    samples = list(range(1, 101))          # 1..100
    assert benchlib.percentile(samples, 50) == 50
    assert benchlib.percentile(samples, 99) == 99
    assert benchlib.percentile(samples, 100) == 100
    assert benchlib.percentile([5.0], 99) == 5.0
    assert benchlib.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        benchlib.percentile([], 50)


def test_no_p99_below_a_thousand_samples():
    assert benchlib.tail_percentile(list(range(999)), 99) is None
    assert benchlib.tail_percentile(list(range(1000)), 99) == 989
    assert benchlib.tail_percentile(list(range(200)), 95) == 189
    assert benchlib.tail_percentile(list(range(199)), 95) is None


def test_sums_to_allows_three_percent():
    assert benchlib.sums_to([0.5, 0.48], 1.0)
    assert not benchlib.sums_to([0.5, 0.46], 1.0)
    assert not benchlib.sums_to([], 0.0)


def test_self_time_of_nested_stopwatches():
    now = [0.0]

    def tick(seconds):
        now[0] += seconds

    watches = benchlib.Stopwatches(clock=lambda: now[0])
    inner = watches.wrap("inner", lambda: tick(2.0))

    def outer_body():
        tick(1.0)
        inner()
        inner()
        tick(0.5)

    outer = watches.wrap("outer", outer_body)
    outer()
    inner()                                   # a call outside any parent
    assert watches.total_s == {"inner": 6.0, "outer": 5.5}
    assert watches.calls == {"inner": 3, "outer": 1}
    assert watches.self_s("outer") == pytest.approx(1.5)
    assert watches.self_s("inner") == pytest.approx(6.0)
    watches.enabled = False
    outer()
    assert watches.calls["outer"] == 1


def test_span_durations_filters_by_name_and_args():
    events = [
        ("X", "service.handle", "service", 0, 2_000_000, 1, {"op": "submit"}, None),
        ("X", "service.handle", "service", 0, 5_000_000, 1, {"op": "tick"}, None),
        ("s", "service.handle", "service", 0, 0, 1, None, 7),
        ("X", "service.advance", "service", 0, 1_000_000, 1, None, None),
    ]
    assert benchlib.span_durations(events, "service.handle", op="submit") == [0.002]
    assert benchlib.span_durations(events, "service.handle") == [0.002, 0.005]


def test_a_refused_or_not_ok_reply_is_a_failed_operation():
    from wl_serve import request_failed

    admitted = {"ok": True, "results": [{"admitted": True}, {"admitted": True}]}
    assert not request_failed(admitted)
    assert request_failed({"ok": False, "error": "overloaded", "retryable": True})
    assert request_failed({"ok": False, "error": "draining", "results": []})
    assert request_failed(
        {"ok": True, "results": [{"admitted": True}, {"admitted": False, "reason": "throttled"}]}
    )


def test_fingerprints_must_agree_to_compare():
    a = {"usable_cores": 2, "python": "3.11.7", "numpy": "2.4", "git_commit": "aaa"}
    assert benchlib.comparable(a, dict(a, git_commit="bbb")) == []
    assert benchlib.comparable(a, dict(a, usable_cores=8)) == ["usable_cores"]


# -- every workload, end to end, at smoke size --------------------------------------

def _run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *arguments],
        capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=WORKLOADS)
def smoke(request):
    """The contract objects of one untraced and one traced smoke run."""
    objects = {}
    for trace in ("0", "1"):
        done = _run(
            "--workload", request.param, "--seed", "3", "--seconds", "0.3", "--trace", trace,
            "--smoke",
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        objects[trace] = (json.loads(done.stdout.strip().splitlines()[-1]), done.stdout)
    return request.param, objects


def test_untraced_run_emits_exactly_the_end_to_end_metrics(smoke):
    _name, objects = smoke
    result, _ = objects["0"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {row["name"]: row["unit"] for row in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_traced_run_emits_exactly_the_per_layer_metrics(smoke):
    name, objects = smoke
    result, printed = objects["1"]
    expected = {row["name"]: row["unit"] for row in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] is True
    # Rows that claim to sum to a wall are checked by the run itself.
    assert "FAILED" not in printed
    if name == "train-sdsc-quick":
        assert "check train_rows_sum_to_wall: ok" in printed
    if name.startswith("eval-"):
        assert "check cell_rows_sum_to_wall: ok" in printed
        own = [key for key, value in result["metrics"].items()
               if key.startswith("scenarios.cell_s.") and value["value"] > 0]
        assert own, "a traced eval run times its own cells"


def test_two_runs_of_a_seed_agree_on_digests_and_counts():
    first = _run("--workload", "eval-hetero", "--seed", "5", "--seconds", "0.2", "--smoke")
    second = _run("--workload", "eval-hetero", "--seed", "5", "--seconds", "0.2", "--smoke")
    assert first.returncode == 0 and second.returncode == 0

    def stable(output: str) -> list:
        return [line for line in output.splitlines()
                if "report_digest" in line or "decisions_first_pass" in line
                or "sched_bsld_mean" in line]

    assert stable(first.stdout) and stable(first.stdout) == stable(second.stdout)


def test_no_program_no_result(tmp_path):
    """In a directory that holds only the benchmark, the run fails loudly."""
    import shutil

    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-hetero", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
