"""evidkit quality grid: known-class and unknown-detection quality over seeds.

    python3 quality/run.py

Run from the root of a source checkout; the package is imported from
./src, with BLAS pinned to one thread through EDL_NUM_THREADS=1. The grid
is data seeds 0-7 x train seeds 0-5, one run after another (about 25 s
on one core). Each run generates the default dataset with
``GenConfig(seed=d)``, draws its CIW table with ``random_ciw_table(...,
seed=d)``, trains at ``TrainConfig(seed=t)`` and scores the validation
rows: F1_Normal and F2_CIW on the known rows, and the AUROC of max
vacuity for unknown detection over all rows. One JSON object goes to
stdout: the median, first quartile and minimum of each metric, the
number of runs with F1_Normal below 0.9 and with AUROC below 0.5, and the
values of the canonical run (data seed 7, train seed 0), which
acceptance criteria 4 and 5 use.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":  # one BLAS thread, and the package of this checkout
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.pop(var, None)
    os.environ["EDL_NUM_THREADS"] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from evidkit.base_rates import base_rate_arrays  # noqa: E402
from evidkit.datasets import (  # noqa: E402
    GenConfig,
    generate_dataset,
    random_ciw_table,
    samples_to_arrays,
)
from evidkit.evaluation import auroc, f1_normal, f2_ciw, predict_batch  # noqa: E402
from evidkit.network import TrainConfig, batch_evidence, train_model  # noqa: E402

DATA_SEEDS = range(8)
TRAIN_SEEDS = range(6)
CANONICAL = (GenConfig().seed, TrainConfig().seed)
METRICS = ("auroc", "f1_normal", "f2_ciw")


def run_one(data_seed: int, train_seed: int) -> dict[str, float]:
    """The three metrics of one (data seed, train seed) run."""
    split = generate_dataset(GenConfig(seed=data_seed))
    ciw = random_ciw_table(split.known_classes, seed=data_seed)
    _, x, y, _ = samples_to_arrays(split.train, split.k_known, split.dim)
    result = train_model(x, y, TrainConfig(seed=train_seed), ciw)
    _, xv, yv, unknown = samples_to_arrays(split.validation, split.k_known, split.dim)
    batch = predict_batch(batch_evidence(result.mlp, result.head, xv), *base_rate_arrays(ciw))
    known = ~unknown
    return {
        "auroc": auroc(batch.uncertainty, unknown),
        "f1_normal": f1_normal(batch.labels[known], yv[known]),
        "f2_ciw": f2_ciw(batch.labels[known], yv[known], ciw),
    }


def run_grid(data_seeds, train_seeds) -> dict:
    """Summary of every (data seed, train seed) run; "canonical" is None
    unless the grid holds the canonical run."""
    runs = {(d, t): run_one(d, t) for d in data_seeds for t in train_seeds}
    summary = {"runs": len(runs)}
    for name in METRICS:
        values = np.array([r[name] for r in runs.values()])
        summary[name] = {"median": float(np.median(values)),
                         "q1": float(np.percentile(values, 25)),
                         "min": float(values.min())}
    summary["runs_f1_normal_below_0.9"] = sum(r["f1_normal"] < 0.9 for r in runs.values())
    summary["runs_auroc_below_0.5"] = sum(r["auroc"] < 0.5 for r in runs.values())
    summary["canonical"] = runs.get(CANONICAL)
    return summary


if __name__ == "__main__":
    print(json.dumps(run_grid(DATA_SEEDS, TRAIN_SEEDS), indent=2))
