"""Output checks that do not trust the code under test.

Byte-identity across iterations is checked in `workloads`. The checks
here look at the first iteration's outputs: row counts, report
consistency, the refit's promise to keep the backbone byte-identical,
and the ranking metrics recomputed from the scores by independent
sort-based implementations of the same definitions.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import yaml
from evidkit.opinions import DEFAULT_PRIOR_WEIGHT

# summation order differs from the code under test, so sums may differ
# in the last bits; FPR95 is a ratio of counts and must match exactly
SUM_TOLERANCE = 1e-9


def ref_auroc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney statistic with average ranks for ties."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]
    n_pos = int(positive.sum())
    n_neg = scores.size - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def ref_aupr(scores: np.ndarray, positive: np.ndarray) -> float:
    """Step-wise area under precision-recall, one step per distinct score."""
    _, inverse = np.unique(-scores, return_inverse=True)
    tp = np.cumsum(np.bincount(inverse, weights=positive.astype(np.float64)))
    flagged = np.cumsum(np.bincount(inverse))
    recall = tp / positive.sum()
    precision = tp / flagged
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))


def ref_fpr95(scores: np.ndarray, positive: np.ndarray, target: float = 0.95) -> float:
    """FPR at the first TPR >= target, thresholds at distinct-score midpoints."""
    distinct = np.unique(scores)
    thresholds = np.concatenate(([-np.inf], 0.5 * (distinct[:-1] + distinct[1:]), [np.inf]))
    pos = np.sort(scores[positive])
    neg = np.sort(scores[~positive])
    tpr = (pos.size - np.searchsorted(pos, thresholds, side="right")) / pos.size
    fpr = (neg.size - np.searchsorted(neg, thresholds, side="right")) / neg.size
    reached = tpr >= target
    return float(fpr[reached].min()) if reached.any() else 1.0


def check_ranking(scores, positive, auroc, aupr, fpr95, where: str) -> list[str]:
    problems = []
    for name, got, want, tol in (
        ("auroc", auroc, ref_auroc(scores, positive), SUM_TOLERANCE),
        ("aupr", aupr, ref_aupr(scores, positive), SUM_TOLERANCE),
        ("fpr95", fpr95, ref_fpr95(scores, positive), 0.0),
    ):
        if not (math.isfinite(got) and abs(got - want) <= tol):
            problems.append(f"{where}: {name} {got!r} != independent {want!r}")
    return problems


def _data_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def _backbone_lines(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[: next(i for i, l in enumerate(lines) if l.startswith("param head."))]


def check_cli_outputs(workdir: Path, size: dict) -> tuple[list[str], dict[str, float]]:
    """Check one pass of the CLI walkthrough; returns (problems, quality)."""
    problems = []
    try:
        for split, n in (("train", size["n_train"]), ("val", size["n_val"])):
            rows = _data_rows(workdir / f"data/{split}.edlset")
            if rows != n:
                problems.append(f"data/{split}.edlset has {rows} rows, expected {n}")
        for sub, epochs in (("run", size["epochs"]), ("run2", size["refit_epochs"])):
            log = yaml.safe_load((workdir / sub / "train_log.yaml").read_text(encoding="utf-8"))
            losses = log["epoch_losses"]
            if len(losses) != epochs or not all(math.isfinite(v) for v in losses):
                problems.append(f"{sub}/train_log.yaml: expected {epochs} finite epoch losses")
        if _backbone_lines(workdir / "run/model.ckpt") != _backbone_lines(
            workdir / "run2/model.ckpt"
        ):
            problems.append("refit changed the frozen backbone in run2/model.ckpt")

        with open(workdir / "run/ood_scores.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        scores = np.array([float(r[1]) for r in rows])
        positive = np.array([r[2] == "1" for r in rows])
        ood = yaml.safe_load((workdir / "run/ood_report.yaml").read_text(encoding="utf-8"))
        ev = yaml.safe_load((workdir / "run/eval_report.yaml").read_text(encoding="utf-8"))
        m, e = ood["metrics"], ev["metrics"]
        if len(rows) != size["n_val"]:
            problems.append(f"ood_scores.csv has {len(rows)} rows, expected {size['n_val']}")
        if ood["counts"] != {"known": int((~positive).sum()), "unknown": int(positive.sum())}:
            problems.append("ood_report.yaml counts disagree with ood_scores.csv")
        if ev["counts"] != ood["counts"]:
            problems.append("eval and ood reports count different validation samples")
        problems += check_ranking(scores, positive, m["auroc"], m["aupr"], m["fpr95"], "ood")
        for name in ("f1_normal", "f2_ciw"):
            if not 0.0 <= e[name] <= 1.0:
                problems.append(f"eval_report.yaml: {name} {e[name]!r} outside [0, 1]")
        quality = {"auroc": m["auroc"], "aupr": m["aupr"], "fpr95": m["fpr95"],
                   "f1_normal": e["f1_normal"], "f2_ciw": e["f2_ciw"]}
    except (OSError, KeyError, TypeError, ValueError, StopIteration, yaml.YAMLError) as exc:
        problems.append(f"outputs missing or malformed: {exc!r}")
        quality = {}
    return problems, quality


def check_library_results(results: dict, inputs: dict) -> tuple[list[str], dict[str, float]]:
    """Check one scoring pass against independent recomputation."""
    problems = []
    positive = inputs["unknown"]
    for agg in ("max", "sum", "top2"):
        scores = results[f"predict_batch.{agg}"].uncertainty
        problems += check_ranking(
            scores, positive, results[f"auroc.{agg}"], results[f"aupr.{agg}"],
            results[f"fpr95.{agg}"], f"library {agg}",
        )
    # vacuity u = W / S with S = sum of evidence + W
    ev = results["evidence"]
    u = DEFAULT_PRIOR_WEIGHT / (ev.sum(axis=2) + DEFAULT_PRIOR_WEIGHT)
    if not np.allclose(results["predict_batch.sum"].uncertainty, u.sum(axis=1), rtol=1e-12):
        problems.append("library: summed vacuity disagrees with W / S from the evidence")
    for name in ("f1_normal", "f2_ciw"):
        if not 0.0 <= results[name] <= 1.0:
            problems.append(f"library: {name} {results[name]!r} outside [0, 1]")
    if "refit" not in results:
        problems.append("library: the refit did not return")
    else:
        refitted = results["refit"]
        frozen = all(np.array_equal(w, w0) and np.array_equal(b, b0)
                     for (w, b), (w0, b0) in zip(refitted.mlp.layers, inputs["backbone"]))
        if not frozen or len(refitted.mlp.layers) != len(inputs["backbone"]):
            problems.append("library: the frozen-backbone refit changed the backbone")
        if len(refitted.epoch_losses) != 20 or not np.all(np.isfinite(refitted.epoch_losses)):
            problems.append("library: refit losses are not 20 finite values")
    quality = {k: results[f"{k}.max"] for k in ("auroc", "aupr", "fpr95")}
    quality.update(f1_normal=results["f1_normal"], f2_ciw=results["f2_ciw"])
    return problems, quality
