"""Acceptance suite: eight go/no-go criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see every verdict line;
without -s the lines still appear in captured output on failure. Criteria
4-6 share one canonical training run: the default synthetic dataset, the
default training configuration, and uniform importance weights of 0.5.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import evidkit
from evidkit.base_rates import CIWTable, adjust_base_rates, sigmoid
from evidkit.cli import (
    CHECKPOINT_FILENAME,
    CIW_FILENAME,
    EVAL_REPORT_FILENAME,
    OOD_REPORT_FILENAME,
    OOD_SCORES_FILENAME,
    TRAIN_LOG_FILENAME,
)
from evidkit.datasets import (
    TRAIN_FILENAME,
    VAL_FILENAME,
    GenConfig,
    generate_dataset,
    samples_to_arrays,
)
from evidkit.evaluation import (
    AggregationMode,
    auroc,
    aupr,
    f1_normal,
    f2_ciw,
    fpr_at_95_tpr,
    predict_batch,
)
from evidkit.losses import batch_nll_grad
from evidkit.network import (
    TrainConfig,
    batch_evidence,
    batch_loss_grads,
    init_model,
    train_model,
)
from evidkit.opinions import (
    BaseRatePair,
    EvidencePair,
    dirichlet_from_evidence,
    expected_probability,
    opinion_from_evidence,
    probability_from_opinion,
)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_opinion_identities():
    """10k random (evidence, base rate, prior weight) draws: belief masses
    plus uncertainty sum to 1 and the opinion projection equals the Beta
    expectation, both within 1e-12; the zero-evidence case is exact."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_mass = worst_gap = 0.0
    for _ in range(10_000):
        e = EvidencePair(*rng.uniform(0.0, 200.0, size=2))
        a_pos = float(rng.uniform(0.005, 0.995))
        a = BaseRatePair(a_pos, 1.0 - a_pos)
        w = float(rng.uniform(0.1, 50.0))
        o = opinion_from_evidence(e, a, w)
        worst_mass = max(worst_mass, abs(o.b_pos + o.b_neg + o.u - 1.0))
        projected = probability_from_opinion(o)
        expected = expected_probability(dirichlet_from_evidence(e, a, w))
        worst_gap = max(worst_gap, abs(projected[0] - expected[0]),
                        abs(projected[1] - expected[1]))
    vacuous = opinion_from_evidence(EvidencePair(0.0, 0.0), BaseRatePair(0.3, 0.7))
    exact = (
        vacuous.u == 1.0
        and vacuous.b_pos == 0.0
        and probability_from_opinion(vacuous) == (0.3, 0.7)
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        worst_mass <= 1e-12 and worst_gap <= 1e-12 and exact and elapsed < 1.0,
        f"mass dev {worst_mass:.2e}, projection gap {worst_gap:.2e}, "
        f"zero-evidence exact: {exact}, {elapsed:.2f}s",
    )


def test_criterion_2_base_rate_assignment():
    """Uniform-prior base rates equal sigmoid(weight) within 1e-12, are
    strictly monotone in the weight, and weight 0 leaves the prior alone."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    monotone = True
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        weights = np.sort(rng.uniform(-8.0, 8.0, size=k))
        table = CIWTable.from_pairs(
            (f"c{i}", float(w)) for i, w in enumerate(weights)
        )
        rates = adjust_base_rates(table)
        for w, pair in zip(weights, rates):
            worst = max(worst, abs(pair.a_pos - sigmoid(float(w))))
        a_pos = [pair.a_pos for pair in rates]
        if any(lo >= hi for lo, hi in zip(a_pos, a_pos[1:])):
            monotone = False
    neutral = adjust_base_rates(CIWTable.uniform(["a", "b"], 0.0))
    identity = all(pair == BaseRatePair(0.5, 0.5) for pair in neutral)
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        worst <= 1e-12 and monotone and identity and elapsed < 1.0,
        f"sigmoid gap {worst:.2e}, monotone: {monotone}, "
        f"zero-weight identity: {identity}, {elapsed:.2f}s",
    )


def _mean_loss(mlp, head, x, y, prior):
    return float(batch_nll_grad(batch_evidence(mlp, head, x), y, prior)[0].mean())


def test_criterion_3_end_to_end_gradients():
    """Analytic loss gradients match central differences through the full
    backbone + head on 100 random small configurations, worst relative
    error below 1e-4."""
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        hidden = [(), (5,), (6, 4)][int(rng.integers(3))]
        mlp, head = init_model(4, 2, hidden=hidden, feature_dim=4, seed=rng)
        x = rng.normal(size=(3, 4))
        y = rng.integers(0, 2, size=(3, 2)).astype(np.float64)
        a_pos = rng.uniform(0.1, 0.9, size=2)
        prior = 2.0 * np.column_stack([a_pos, 1.0 - a_pos])
        rng.uniform(0.5, 5.0)  # unused; kept so that the draws after it are unchanged

        _, layer_grads, d_head_w, d_head_b = batch_loss_grads(mlp, head, x, y, prior)
        analytic = [g for pair in layer_grads for g in pair] + [d_head_w, d_head_b]
        params = [p for layer in mlp.layers for p in layer] + [head.weight, head.bias]

        for param, grad in zip(params, analytic):
            flat = param.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = _mean_loss(mlp, head, x, y, prior)
                flat[i] = orig - h
                down = _mean_loss(mlp, head, x, y, prior)
                flat[i] = orig
                numeric = (up - down) / (2.0 * h)
                g = grad.reshape(-1)[i]
                rel = abs(g - numeric) / max(abs(g), abs(numeric), 1e-3)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        worst < 1e-4 and elapsed < 10.0,
        f"worst relative gradient error {worst:.2e} over 100 configs, {elapsed:.2f}s",
    )


@pytest.fixture(scope="module")
def canonical():
    """One default-configuration run shared by criteria 4-6."""
    split = generate_dataset(GenConfig())
    _, x_train, y_train, _ = samples_to_arrays(split.train, split.k_known, split.dim)
    ciw = CIWTable.uniform(split.known_classes, 0.5)
    t0 = time.perf_counter()
    result = train_model(x_train, y_train, TrainConfig(), ciw)
    train_seconds = time.perf_counter() - t0
    _, x_val, y_val, flags = samples_to_arrays(
        split.validation, split.k_known, split.dim
    )
    return {
        "ciw": ciw,
        "k": split.k_known,
        "evidence": batch_evidence(result.mlp, result.head, x_val),
        "y_val": y_val,
        "flags": np.asarray(flags, dtype=bool),
        "train_seconds": train_seconds,
    }


def test_criterion_4_known_class_quality(canonical):
    """The canonical run reaches F1_Normal >= 0.90 and uniform-weight
    F2_CIW >= 0.85 on known validation samples, training in under 60s."""
    known = ~canonical["flags"]
    rates = adjust_base_rates(canonical["ciw"])
    a_pos = np.array([p.a_pos for p in rates])
    a_neg = np.array([p.a_neg for p in rates])
    batch = predict_batch(canonical["evidence"][known], a_pos, a_neg)
    y_known = canonical["y_val"][known]
    f1 = f1_normal(batch.labels, y_known)
    f2 = f2_ciw(batch.labels, y_known, canonical["ciw"])
    seconds = canonical["train_seconds"]
    _verdict(
        4,
        f1 >= 0.90 and f2 >= 0.85 and seconds < 60.0,
        f"F1_Normal {f1:.4f} (>= 0.90), F2_CIW {f2:.4f} (>= 0.85), "
        f"training took {seconds:.1f}s (< 60s)",
    )


def _uncertainty_scores(canonical, kind):
    k = canonical["k"]
    uniform = np.full(k, 0.5)
    batch = predict_batch(
        canonical["evidence"], uniform, uniform, agg=AggregationMode(kind)
    )
    return batch.uncertainty


def test_criterion_5_unknown_detection(canonical):
    """Max-aggregated vacuity separates unknown from known validation
    samples: AUROC >= 0.80 and the unknown mean is strictly higher."""
    scores = _uncertainty_scores(canonical, "max")
    flags = canonical["flags"]
    a = auroc(scores, flags)
    mean_unknown = float(scores[flags].mean())
    mean_known = float(scores[~flags].mean())
    _verdict(
        5,
        a >= 0.80 and mean_unknown > mean_known,
        f"AUROC {a:.4f} (>= 0.80), mean uncertainty unknown {mean_unknown:.4f} "
        f"> known {mean_known:.4f}",
    )


def test_criterion_6_aggregation_ordering(canonical):
    """Max aggregation is at least as selective as Sum at 95% TPR."""
    flags = canonical["flags"]
    fpr_max = fpr_at_95_tpr(_uncertainty_scores(canonical, "max"), flags)
    fpr_sum = fpr_at_95_tpr(_uncertainty_scores(canonical, "sum"), flags)
    _verdict(
        6,
        fpr_max <= fpr_sum,
        f"FPR95 max {fpr_max:.4f} <= FPR95 sum {fpr_sum:.4f}",
    )


def _trapezoid_auroc(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    n_pos, n_neg = int(y.sum()), int((~y).sum())
    tpr, fpr = [0.0], [0.0]
    for t in np.unique(s)[::-1]:
        flagged = s >= t
        tpr.append(float((flagged & y).sum()) / n_pos)
        fpr.append(float((flagged & ~y).sum()) / n_neg)
    area = 0.0
    for i in range(len(tpr) - 1):
        area += 0.5 * (fpr[i + 1] - fpr[i]) * (tpr[i] + tpr[i + 1])
    return area


def _sweep_fpr95(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    n_pos, n_neg = int(y.sum()), int((~y).sum())
    best = 1.0
    for t in np.concatenate(([-np.inf], np.unique(s))):
        flagged = s > t
        if float((flagged & y).sum()) / n_pos >= 0.95:
            best = min(best, float((flagged & ~y).sum()) / n_neg)
    return best


def test_criterion_7_metric_oracles():
    """AUROC (rank form) equals ROC trapezoid integration within 1e-12 on
    tied 200-sample draws, FPR95 equals an exhaustive threshold sweep, and
    AUPR of random scores lands within 0.05 of the prevalence."""
    rng = np.random.default_rng(707)
    worst_auroc = 0.0
    fpr_exact = True
    for _ in range(20):
        scores = rng.integers(0, 30, size=200).astype(np.float64) / 7.0
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [1, 0]
        worst_auroc = max(
            worst_auroc, abs(auroc(scores, labels) - _trapezoid_auroc(scores, labels))
        )
        if fpr_at_95_tpr(scores, labels) != _sweep_fpr95(scores, labels):
            fpr_exact = False
    n = 10_000
    labels = (rng.uniform(size=n) < 0.3).astype(int)
    prevalence = float(labels.mean())
    aupr_gap = abs(aupr(rng.uniform(size=n), labels) - prevalence)
    _verdict(
        7,
        worst_auroc <= 1e-12 and fpr_exact and aupr_gap <= 0.05,
        f"AUROC trapezoid gap {worst_auroc:.2e}, FPR95 sweep exact: {fpr_exact}, "
        f"random AUPR within {aupr_gap:.3f} of prevalence {prevalence:.3f}",
    )


def _run_pipeline(workdir):
    commands = [
        ["generate", "--out", "data"],
        ["train", "--data", "data", "--ciw", f"data/{CIW_FILENAME}", "--out", "run"],
        ["eval", "--checkpoint", f"run/{CHECKPOINT_FILENAME}", "--data", "data",
         "--ciw", f"data/{CIW_FILENAME}", "--out", "run"],
        ["ood", "--checkpoint", f"run/{CHECKPOINT_FILENAME}", "--data", "data",
         "--out", "run"],
    ]
    # The children run in workdir, where a relative PYTHONPATH such as
    # "src" no longer resolves; point them at the evidkit package this
    # process imported, ahead of any inherited entries.
    package_root = str(Path(evidkit.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": package_root + (os.pathsep + inherited if inherited else ""),
    }
    for command in commands:
        # A hung stage fails with its command line, not a stalled suite.
        proc = subprocess.run(
            [sys.executable, "-m", "evidkit.cli", *command],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, f"{command[0]} failed: {proc.stderr}"


def test_criterion_8_pipeline_determinism(tmp_path):
    """Two fresh generate -> train -> eval -> ood runs with identical
    arguments produce byte-identical datasets, checkpoints, logs, reports,
    and score tables."""
    t0 = time.perf_counter()
    for name in ("one", "two"):
        (tmp_path / name).mkdir()
        _run_pipeline(tmp_path / name)
    artifacts = [
        f"data/{TRAIN_FILENAME}",
        f"data/{VAL_FILENAME}",
        f"data/{CIW_FILENAME}",
        f"run/{CHECKPOINT_FILENAME}",
        f"run/{TRAIN_LOG_FILENAME}",
        f"run/{EVAL_REPORT_FILENAME}",
        f"run/{OOD_REPORT_FILENAME}",
        f"run/{OOD_SCORES_FILENAME}",
    ]
    differing = [
        rel
        for rel in artifacts
        if (tmp_path / "one" / rel).read_bytes() != (tmp_path / "two" / rel).read_bytes()
    ]
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        not differing,
        f"{len(artifacts)} artifacts byte-identical across reruns, {elapsed:.1f}s"
        if not differing
        else f"artifacts differ between reruns: {differing}",
    )
