"""Smoke test of the quality grid, ``quality/run.py``, on a 1 x 2 grid.

The module is loaded from its path without writing a bytecode cache, and
is not registered in ``sys.modules``. The full grid is not run here.
"""

import importlib.util
import sys
from pathlib import Path

GRID = Path(__file__).resolve().parent.parent / "quality" / "run.py"


def _load_grid():
    spec = importlib.util.spec_from_file_location("_quality_run", GRID)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_two_run_grid_summarizes_every_metric():
    grid = _load_grid()
    data_seed, train_seed = grid.CANONICAL
    summary = grid.run_grid([data_seed], [train_seed, train_seed + 1])
    assert set(summary) == {"runs", *grid.METRICS, "runs_f1_normal_below_0.9",
                            "runs_auroc_below_0.5", "canonical", "acceptance"}
    assert summary["runs"] == 2
    assert 0 <= summary["runs_f1_normal_below_0.9"] <= 2
    assert 0 <= summary["runs_auroc_below_0.5"] <= 2
    assert set(summary["canonical"]) == set(summary["acceptance"]) == set(grid.METRICS)
    for name in grid.METRICS:
        stats = summary[name]
        assert set(stats) == {"median", "q1", "min"}
        assert 0.0 <= stats["min"] <= stats["q1"] <= stats["median"] <= 1.0
        assert 0.0 <= summary["canonical"][name] <= 1.0
        assert 0.0 <= summary["acceptance"][name] <= 1.0
