"""Tests of the benchmark itself: smoke runs of every workload, and the
independent metric implementations the output check relies on.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cli-default", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _brute(scores, positive):
    """Definitions applied literally, one threshold or pair at a time."""
    pos, neg = scores[positive], scores[~positive]
    auroc = np.mean([(p > n) + 0.5 * (p == n) for p in pos for n in neg])
    area, prev = 0.0, 0.0
    for t in np.unique(scores)[::-1]:
        flagged = scores >= t
        recall = (flagged & positive).sum() / positive.sum()
        area += (recall - prev) * (flagged & positive).sum() / flagged.sum()
        prev = recall
    distinct = np.unique(scores)
    fprs = [
        (scores > t)[~positive].mean()
        for t in [-np.inf, *(0.5 * (distinct[:-1] + distinct[1:])), np.inf]
        if (scores > t)[positive].mean() >= 0.95
    ]
    return auroc, area, min(fprs, default=1.0)


@pytest.mark.parametrize("seed", range(5))
def test_reference_metrics_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 12, size=60) / 11.0  # heavy ties, as with dead heads
    positive = rng.random(60) < 0.3
    positive[:2] = [True, False]
    auroc, aupr, fpr95 = _brute(scores, positive)
    assert checks.ref_auroc(scores, positive) == pytest.approx(auroc, abs=1e-12)
    assert checks.ref_aupr(scores, positive) == pytest.approx(aupr, abs=1e-12)
    assert checks.ref_fpr95(scores, positive) == fpr95
