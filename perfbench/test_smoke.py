"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py

For every workload, both the untraced and the traced run must pass all their
jobs (exit codes, pinned digests of the default seed, traced-run honesty) and
print every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_and_prints_every_metric(workload, trace, group):
    ctx, result = run("--workload", workload, "--seed", "0", "--seconds", "0.2", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert ctx["workload"] == workload and ctx["failed_ops"] == {"value": 0.0, "unit": "ratio"}
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if group == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for name in ("job_s", "span_s", "verify_s"):
            assert ctx[name]["unit"] == "s" and ctx[name]["value"] > 0


def test_other_seed_passes_without_pinned_digests():
    _, result = run("--workload", "eft", "--seed", "7", "--seconds", "0.2", "--trace", "0")
    assert result["correct"] is True and result["failed"] == 0


def test_growth_mode_reports_log2_ratios():
    _, result = run("--workload", "weighted", "--seed", "0", "--growth")
    assert result["correct"] is True
    assert "span_s.log2_ratio" in result["metrics"]
    assert result["metrics"]["weighted.has_cluster.calls.log2_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program_sources():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "eft", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert proc.returncode != 0
    assert proc.stdout == ""
