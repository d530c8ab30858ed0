"""Self-tests of the end-to-end benchmark.

Run from the repository root (the runs are short: a twentieth of the
nominal length, with the same mix of operations)::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
WORKLOADS = ("ingest-small", "bulk-large", "tiered-churn")
SECONDS = 2
#: A seed no tuning run used; later speed claims are checked on it too.
HELD_OUT_SEED = 9173
#: Per op kind, the spans' self times must add up to the client-measured
#: wall time within this share of it plus PER_OP_ALLOWANCE_S per call (the
#: clock readings between the client's timing and the root span's, and any
#: thread switch between them); a single op may miss by at most
#: MAX_OP_GAP_S.
ATTRIBUTION_TOLERANCE = 0.02
PER_OP_ALLOWANCE_S = 20e-6
MAX_OP_GAP_S = 0.002


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_pairs() -> dict:
    """Two traced runs of every workload with the same seed."""
    return {workload: (_run(workload, 3, 1), _run(workload, 3, 1)) for workload in WORKLOADS}


def _repeatable(result: dict) -> dict:
    """Everything in a traced result that must not depend on timing."""
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] != "s" and name != "trace_overhead_ratio"
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_counts(traced_pairs, workload):
    (report_a, result_a), (report_b, result_b) = traced_pairs[workload]
    assert _repeatable(result_a) == _repeatable(result_b)
    assert report_a["inventory"] == report_b["inventory"]
    assert report_a["samples"] == report_b["samples"]
    for key in ("attempted", "failed", "correct"):
        assert result_a[key] == result_b[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(traced_pairs, workload):
    (_, result), _ = traced_pairs[workload]
    names = {metric["name"] for metric in _benchmark()["per_layer"]}
    assert set(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        if metric["unit"] == "s":
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_op_wall_time(traced_pairs, workload):
    (report, _), _ = traced_pairs[workload]
    detail = report["detail"]
    for kind, times in detail["attribution"].items():
        assert times["wall_s"] > 0, kind
        gap = abs(times["attributed_s"] - times["wall_s"])
        allowed = ATTRIBUTION_TOLERANCE * times["wall_s"] + PER_OP_ALLOWANCE_S * detail["ops"][kind]
        assert gap <= allowed, (kind, times)
    assert detail["worst_op_gap_s"] <= MAX_OP_GAP_S


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_runs_clean(workload):
    report, result = _run(workload, HELD_OUT_SEED, 0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert report["errors"] == {}
    gated = {metric["name"] for metric in _benchmark()["end_to_end"]}
    # The p90 figures need a full-length run (ten samples beyond p90).
    assert gated - set(result["metrics"]) <= {"store_p90_ms", "retrieve_p90_ms"}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_exits_nonzero_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "ingest-small", "--seed", "1",
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_host_speed_adjusts_calls_to_the_reference_speed(monkeypatch):
    sys.path.insert(0, str(BENCH))
    import workloads

    probes = iter([2.0, 4.0])
    speed = workloads.HostSpeed()
    monkeypatch.setattr(
        speed.probe, "ms", lambda: next(probes) * workloads.PROBE_REFERENCE_MS
    )
    before = speed.current()
    assert before == 2.0
    # A short call is divided by the reading taken before it ...
    assert speed.adjust(workloads.PROBE_EVERY_S / 2, before) == workloads.PROBE_EVERY_S / 4
    # ... a long one by the mean of the readings before and after it.
    assert speed.adjust(1.5, before) == 0.5
    assert speed.readings == [2.0, 4.0]
