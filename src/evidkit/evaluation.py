"""Inference-time prediction, uncertainty aggregation, and evaluation metrics.

Known-class scoring uses F1 of the binary "no label at all" decision
(f1_normal) and an importance-weighted macro F-beta with beta=2 (f2_ciw).
Unknown detection treats unknown samples as the positive class and ranks
by aggregated per-class uncertainty; auroc / aupr / fpr_at_95_tpr plus
two baseline scorers cover that task. The three ranking metrics share one
O(n log n) sort and a cumulative-count sweep over the distinct scores
(Fawcett 2006, Alg. 1-2): tied samples are scored as a group, and FPR95
is read at the operating points "flag every score >= d". The sweep reads
its counts only at tie-group ends, so the sort need not be stable and
numpy's default (introsort) argsort is used. The sort is shared through
a one-entry memo: ranking the same (scores, labels) again, as callers
do when they report all three metrics, reuses the last vector's tie
groups instead of sorting again. The memo holds read-only copies of that
one vector, its labels and its groups, at most 25 bytes per score, and
no reference to a caller's array. The groups depend only on comparisons,
so every result is the same, bit for bit, as with a fresh sort. All
metric functions are pure and permutation-invariant over samples, bit
for bit. Labels are bool or exactly 0 or 1; anything else is a
ValueError naming the first bad entry, never coerced.

Reports are plain dicts; ``render_report`` is the one writer of the YAML
report format, used for the train log and the eval and ood reports.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import yaml

from .base_rates import CIWTable
from .errors import ConfigError
from .fileio import atomic_open
from .opinions import DEFAULT_PRIOR_WEIGHT

DEFAULT_THRESHOLD = 0.5
_TPR_TARGET = 0.95  # the true-positive rate fpr_at_95_tpr must reach
_HALF_MAX = np.finfo(np.float64).max / 2


@dataclass(frozen=True)
class AggregationMode:
    """How per-class uncertainties collapse to one score: max, sum, or topm."""

    kind: str
    m: int = 1

    def __post_init__(self):
        if self.kind not in ("max", "sum", "topm"):
            raise ConfigError(f"unknown aggregation kind {self.kind!r}")
        if self.m < 1:
            raise ConfigError(f"aggregation m must be >= 1, got {self.m}")

    def __str__(self) -> str:
        return f"top{self.m}" if self.kind == "topm" else self.kind


MAX_AGGREGATION = AggregationMode("max")


def parse_aggregation(text: str) -> AggregationMode:
    """Parse an aggregation flag: 'max', 'sum', or 'topN' (e.g. 'top5')."""
    lowered = text.strip().lower()
    if lowered in ("max", "sum"):
        return AggregationMode(lowered)
    m = re.fullmatch(r"top(\d+)", lowered)
    if m:
        return AggregationMode("topm", int(m.group(1)))
    raise ConfigError(f"unknown aggregation {text!r} (expected max, sum, or topN)")


def _fold_columns(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``op.reduce(a, axis=1)`` as a left-to-right fold over the K columns.

    numpy reduces a short last axis slowly, while K column-wise calls
    each stream over all N rows. For an exact ``op`` (maximum,
    logical_or) the fold gives the reduction's bits. With K = 1 the
    result is a copy of the column; with K = 0 it is the reduction's own
    result or error.
    """
    if a.shape[1] == 0:
        return op.reduce(a, axis=1)
    out = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        op(out, a[:, k], out=out)
    return out


def _aggregate_rows(u: np.ndarray, mode: AggregationMode) -> np.ndarray:
    """Collapse (N, K) per-class uncertainties to one score per row."""
    if mode.kind == "max":
        return _fold_columns(np.maximum, u)
    if mode.kind == "sum":
        return u.sum(axis=1)
    m = min(mode.m, u.shape[1])
    part = np.partition(u, u.shape[1] - m, axis=1)
    return part[:, u.shape[1] - m:].sum(axis=1)


@dataclass(frozen=True)
class BatchPrediction:
    probabilities: np.ndarray
    uncertainties: np.ndarray
    uncertainty: np.ndarray
    labels: np.ndarray


def predict_batch(
    evidence: np.ndarray,
    a_pos: np.ndarray,
    a_neg: np.ndarray,
    threshold: float = DEFAULT_THRESHOLD,
    agg: AggregationMode = MAX_AGGREGATION,
) -> BatchPrediction:
    """Per-class expected probability and vacuity for (N, K, 2) evidence.

    With the fixed prior weight W = DEFAULT_PRIOR_WEIGHT (2) and
    S = e_pos + e_neg + W, p = (e_pos + a_pos * W) / S and u = W / S; a
    class is labeled present iff p exceeds the threshold, and each row's
    uncertainties collapse to one score by agg. ``a_neg`` is not read: p
    needs only a_pos, and u no base rate at all. Evidence that is negative
    or not finite, or a class whose e_pos + e_neg overflows float64, is a
    ValueError, raised before any arithmetic warns.
    """
    ev = np.asarray(evidence, dtype=np.float64)
    a_pos = np.asarray(a_pos, dtype=np.float64)
    if ev.ndim != 3 or ev.shape[2] != 2 or ev.shape[1] != a_pos.shape[0]:
        raise ValueError(f"evidence shape {ev.shape} does not match {a_pos.shape[0]} classes")
    # NaN fails both comparisons; empty evidence has no extrema to check
    top = ev.max() if ev.size else 0.0
    if ev.size and not (ev.min() >= 0.0 and top < np.inf):
        raise ValueError("evidence must be finite and non-negative")
    # the same operations in the same order as S = e_pos + e_neg + W and
    # p = (e_pos + a_pos * W) / S, written into the fresh sums
    with np.errstate(over="ignore"):
        strength = ev[:, :, 0] + ev[:, :, 1]
    # e_pos + e_neg <= 2 * top, so only a top above half of float64's max can overflow
    if top > _HALF_MAX and not np.isfinite(strength).all():
        raise ValueError("evidence e_pos + e_neg must not overflow float64")
    strength += DEFAULT_PRIOR_WEIGHT
    probs = ev[:, :, 0] + a_pos * DEFAULT_PRIOR_WEIGHT
    probs /= strength
    uncs = DEFAULT_PRIOR_WEIGHT / strength
    return BatchPrediction(
        probabilities=probs,
        uncertainties=uncs,
        uncertainty=_aggregate_rows(uncs, agg),
        labels=probs > threshold,
    )


def _as_bool_labels(labels: np.ndarray, what: str = "labels") -> np.ndarray:
    """Labels as bool; an entry that is not bool, 0 or 1 is a ValueError
    whose message calls the array `what`.

    A cast would read 0.5 or NaN as True, so the first such entry is
    named instead, as the trainer does for its labels.
    """
    if labels.dtype == bool:
        return labels
    hard = (labels == 0) | (labels == 1)
    if not hard.all():
        bad = int(np.flatnonzero(~hard)[0])
        where = (f"index {bad}" if labels.ndim == 1
                 else "row {}, class {}".format(*np.unravel_index(bad, labels.shape)))
        value = labels.ravel()[bad:bad + 1].tolist()[0]
        raise ValueError(f"{what} must be 0 or 1, but {where} is {value!r}")
    return labels.astype(bool)


def _as_label_matrix(a) -> np.ndarray:
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError(f"expected an (N, K) label matrix, got shape {m.shape}")
    return _as_bool_labels(m)


def f1_normal(pred_labels, true_labels) -> float:
    """F1 of the binary "no label" decision; normal is the positive class.

    A zero denominator is defined as 0.0 and emits a warning.
    """
    pred = _as_label_matrix(pred_labels)
    true = _as_label_matrix(true_labels)
    if pred.shape != true.shape or pred.shape[0] == 0:
        raise ValueError("prediction and truth must be non-empty and the same shape")
    pred_normal = ~_fold_columns(np.logical_or, pred)
    true_normal = ~_fold_columns(np.logical_or, true)
    tp = int(np.sum(pred_normal & true_normal))
    fp = int(np.sum(pred_normal & ~true_normal))
    fn = int(np.sum(~pred_normal & true_normal))
    denom = 2 * tp + fp + fn
    if denom == 0:
        warnings.warn("f1_normal undefined (no normal samples predicted or present); using 0.0")
        return 0.0
    return 2.0 * tp / denom


def _fbeta(precision: float, recall: float, beta: float = 2.0) -> float:
    denom = beta * beta * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * precision * recall / denom


def per_class_f2(pred_labels, true_labels):
    """Per-class (precision, recall, F2) rows.

    A class absent from both truth and predictions counts as vacuously
    perfect (1.0, 1.0, 1.0), so flawless predictions score 1.0 whether or
    not every class occurs.
    """
    pred = _as_label_matrix(pred_labels)
    true = _as_label_matrix(true_labels)
    if pred.shape != true.shape or pred.shape[0] == 0:
        raise ValueError("prediction and truth must be non-empty and the same shape")
    rows = []
    for k in range(pred.shape[1]):
        tp = int(np.sum(pred[:, k] & true[:, k]))
        fp = int(np.sum(pred[:, k] & ~true[:, k]))
        fn = int(np.sum(~pred[:, k] & true[:, k]))
        if tp + fp + fn == 0:
            rows.append((1.0, 1.0, 1.0))
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        rows.append((precision, recall, _fbeta(precision, recall)))
    return rows


def f2_ciw(pred_labels, true_labels, ciw: CIWTable) -> float:
    """Importance-weighted macro F2: sum_k w_k F2_k / sum_k w_k.

    With uniform weights this equals the plain macro F2 exactly. The
    weights must be >= 0, so the score is a weighted mean within [0, 1].
    """
    pred = _as_label_matrix(pred_labels)
    if pred.shape[1] != len(ciw):
        raise ConfigError(
            f"CIW table has {len(ciw)} classes but labels have {pred.shape[1]}"
        )
    weights = np.asarray(ciw.weights, dtype=np.float64)
    total = float(weights.sum())
    if (weights < 0.0).any() or total <= 0.0:
        raise ConfigError("F2_CIW needs CIW weights >= 0 with a positive sum")
    rows = per_class_f2(pred_labels, true_labels)
    f2s = np.array([r[2] for r in rows])
    return float(np.dot(weights, f2s) / total)


def _check_scores(scores, labels, need_neg=True):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or s.shape != y.shape or s.size == 0:
        raise ValueError("scores and labels must be matching non-empty vectors")
    y = _as_bool_labels(y)
    if np.isnan(s).any():
        raise ValueError("scores contain NaN")
    n_pos = int(y.sum())
    n_neg = int(s.size - n_pos)
    if n_pos == 0:
        raise ValueError("metric undefined: no positive (unknown) samples")
    if need_neg and n_neg == 0:
        raise ValueError("metric undefined: no negative (known) samples")
    return s, y, n_pos, n_neg


# (s, y, flagged, tp) of the last _tie_groups call that sorted, all
# read-only copies. One tuple, read once and replaced whole, so threads
# that race at worst sort twice.
_last_ranked = None


def _tie_groups(s: np.ndarray, y: np.ndarray):
    """One descending sort; per tie group, the cumulative counts.

    Returns (flagged, tp), read-only: for each distinct score d_i, highest
    first, the number of samples with score >= d_i and how many of them
    are positive. Both are read only at the last position of each tie
    group, where the running count covers every sample of the group and
    of the groups before it, whatever order the sort left the tied samples
    in. So the sort need not be stable, and numpy's default argsort is
    used. -0.0 and 0.0 compare equal and share a group.

    The groups depend only on comparisons, so inputs equal element by
    element to the last sorted ones (signed zeros included) get that
    call's groups back without a sort. The memo keeps copies, never the
    caller's arrays, so editing them in place cannot reach it.
    """
    global _last_ranked
    last = _last_ranked
    if last is not None and np.array_equal(last[0], s) and np.array_equal(last[1], y):
        return last[2], last[3]
    order = np.argsort(-s)
    s_sorted = s[order]
    ends = np.flatnonzero(np.r_[s_sorted[1:] != s_sorted[:-1], True])
    memo = (s.copy(), y.copy(), ends + 1, np.cumsum(y[order])[ends])
    for a in memo:
        a.flags.writeable = False
    _last_ranked = memo
    return memo[2], memo[3]


def auroc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties at 1/2.

    Mann-Whitney rank statistic; scores are oriented so higher means more
    likely unknown and labels mark the unknown (positive) samples. Each
    tie group takes the average of the ascending ranks it spans; the rank
    sum is a sum of half-integers, so it is exact in any order.
    """
    s, y, n_pos, n_neg = _check_scores(scores, labels)
    flagged, tp = _tie_groups(s, y)
    # a group spanning descending positions [a, b) holds ascending ranks
    # n - b + 1 .. n - a, whose average is (2n - a - b + 1) / 2
    avg_rank = 0.5 * (2 * s.size - np.r_[0, flagged[:-1]] - flagged + 1)
    rank_sum = float(np.sum(np.diff(tp, prepend=0) * avg_rank))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def aupr(scores, labels) -> float:
    """Area under precision-recall with precision right-constant in recall.

    One step per tie group, highest score first: the step adds
    (recall_i - recall_{i-1}) * precision_i, summed left to right.
    """
    s, y, n_pos, _ = _check_scores(scores, labels, need_neg=False)
    flagged, tp = _tie_groups(s, y)
    recall = tp / n_pos
    terms = np.diff(recall, prepend=0.0) * (tp / flagged)
    # cumsum adds strictly left to right; np.sum's pairwise order would
    # change the last bits
    return float(np.cumsum(terms)[-1])


def fpr_at_95_tpr(scores, labels) -> float:
    """Smallest false-positive rate among operating points reaching the TPR target.

    The operating points are "flag nothing" and, for each distinct score
    d, "flag every sample with score >= d"; ties are flagged as a group.
    Returns 1.0 when no operating point reaches the target.
    """
    s, y, n_pos, n_neg = _check_scores(scores, labels)
    flagged, tp = _tie_groups(s, y)
    tpr = np.r_[0, tp] / n_pos
    fpr = np.r_[0, flagged - tp] / n_neg
    reached = tpr >= _TPR_TARGET
    return float(fpr[reached].min()) if reached.any() else 1.0


def baseline_ood_scores(logits, method: str) -> np.ndarray:
    """Unknown-ness scores from raw per-class logits; higher = more unknown.

    MaxLogit: -max_k logit_k. JointEnergy: -sum_k log(1 + exp(logit_k)).
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError(f"expected (N, K) logits, got shape {np.asarray(logits).shape}")
    name = method.strip().lower()
    if name == "maxlogit":
        return -z.max(axis=1)
    if name == "jointenergy":
        return -np.logaddexp(0.0, z).sum(axis=1)
    raise ValueError(f"unknown baseline method {method!r}")


def render_report(doc: dict) -> str:
    """Serialize a report as deterministic YAML: the one statement of the format.

    Every value under ``doc["metrics"]`` must be finite and in [0, 1], and
    every value under ``doc["counts"]`` must be >= 0; either section may be
    absent. Keys are sorted, so the text does not depend on insertion order.
    """
    for name, v in doc.get("metrics", {}).items():
        if not (0.0 <= v <= 1.0 and math.isfinite(v)):
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    if any(v < 0 for v in doc.get("counts", {}).values()):
        raise ValueError("sample counts must be >= 0")
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)


def write_scores_csv(path, ids, uncertainties, flags) -> None:
    """Per-sample score table: sample_id, uncertainty, is_unknown."""
    ids = list(ids)
    u = np.asarray(uncertainties, dtype=np.float64)
    f = np.asarray(flags)
    if u.ndim != 1 or f.ndim != 1:
        raise ValueError(f"uncertainties and flags must be vectors, got shapes {u.shape} "
                         f"and {f.shape}")
    f = _as_bool_labels(f, "flags")
    if len(ids) != u.size or u.size != f.size:
        raise ValueError("ids, uncertainties, and flags must have equal length")
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "uncertainty", "is_unknown"])
        writer.writerows(zip(ids, map(repr, u.tolist()), f.astype(int).tolist()))
