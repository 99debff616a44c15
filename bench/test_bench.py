"""Smoke tests of the benchmark itself: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import Tracer

ROOT = run.ROOT
sys.path.insert(0, str(run.SRC))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_emits_every_metric_and_fails_nothing(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), (m["name"], got)


def test_same_seed_same_inputs():
    ref = run.load_reference()
    for workload in run.WORKLOADS:
        a = run.draw_inputs(workload, 11, ref, False)
        b = run.draw_inputs(workload, 11, ref, False)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert run.steps_and_runs(workload, a) == run.steps_and_runs(
            workload, run.draw_inputs(workload, 12, ref, False))


def test_compare_flags_a_changed_column():
    entry = run.load_reference()["cli"]["stock"]["+x"]
    rows = [list(r) for r in entry["rows"]]
    assert run.compare(rows, entry["final"], entry) is None
    rows[5][2] *= 1.0 + 1e-6
    assert "err_eb" in run.compare(rows, entry["final"], entry)


def test_missing_hook_target_reports_null_with_reason():
    tracer = Tracer()
    tracer._rebind("rhs", ["lieobs.integrate._no_such_factory"], lambda f: f)
    metrics = tracer.layer_metrics(None, None)
    value, reason = metrics["observers.rhs_calls"]
    assert value is None and "_no_such_factory" in reason
    assert metrics["kinematics.truth_calls"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = bench("--workload", "stock", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
