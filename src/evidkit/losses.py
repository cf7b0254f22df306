"""Per-head negative log-likelihood on Beta-distributed class probabilities.

Each class head is trained as a binary classifier whose probability
follows Beta(alpha_pos, alpha_neg). Marginalizing the Bernoulli label
over that Beta gives the closed-form loss

    L = sum_i y_i * (log(S) - log(alpha_i)),     S = alpha_pos + alpha_neg,

i.e. the negative log of the expected probability on the labeled side.
Driving the labeled side's evidence up is the only way to push L to zero;
evidence on the wrong side inflates S and strictly increases the loss.

The scalar functions define the contract; the ``*_batch`` variants are
the vectorized equivalents the trainer uses (fixed-order reductions, so
results are run-to-run identical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .opinions import (
    DEFAULT_PRIOR_WEIGHT,
    BaseRatePair,
    EvidencePair,
    dirichlet_from_evidence,
)


@dataclass(frozen=True)
class BinaryLabel:
    """One-hot label over {defective, non-defective} for a single head."""

    y_pos: int
    y_neg: int

    def __post_init__(self):
        if self.y_pos not in (0, 1) or self.y_neg not in (0, 1):
            raise ValueError(f"label bits must be 0 or 1, got ({self.y_pos!r}, {self.y_neg!r})")
        if self.y_pos + self.y_neg != 1:
            raise ValueError(f"label must be one-hot, got ({self.y_pos!r}, {self.y_neg!r})")


@dataclass(frozen=True)
class LossValue:
    """Total loss and its per-class decomposition."""

    total: float
    per_class: tuple[float, ...]


def binarize_labels(bits) -> list[BinaryLabel]:
    """Expand a multi-hot label vector into per-head one-hot labels."""
    labels = []
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"multi-hot entries must be 0 or 1, got {bit!r}")
        labels.append(BinaryLabel(y_pos=int(bit), y_neg=1 - int(bit)))
    return labels


def binary_nll(
    e: EvidencePair,
    y: BinaryLabel,
    a: BaseRatePair,
    prior_weight: float = DEFAULT_PRIOR_WEIGHT,
) -> float:
    """Loss of one head: log(S) - log(alpha_labeled)."""
    d = dirichlet_from_evidence(e, a, prior_weight)
    alpha_labeled = d.alpha_pos if y.y_pos == 1 else d.alpha_neg
    return math.log(d.strength) - math.log(alpha_labeled)


def binary_nll_grad(
    e: EvidencePair,
    y: BinaryLabel,
    a: BaseRatePair,
    prior_weight: float = DEFAULT_PRIOR_WEIGHT,
) -> tuple[float, float]:
    """Analytic gradient of binary_nll with respect to (e_pos, e_neg).

    dL/de_j = 1/S - y_j / alpha_j: negative on the labeled side (more
    correct evidence always helps), positive on the other.
    """
    d = dirichlet_from_evidence(e, a, prior_weight)
    inv_s = 1.0 / d.strength
    return (
        inv_s - (y.y_pos / d.alpha_pos if y.y_pos else 0.0),
        inv_s - (y.y_neg / d.alpha_neg if y.y_neg else 0.0),
    )


def multilabel_nll(
    evidences,
    bits,
    bases,
    prior_weight: float = DEFAULT_PRIOR_WEIGHT,
) -> LossValue:
    """Sum of per-head losses over all K classes of one sample."""
    if not (len(evidences) == len(bits) == len(bases)):
        raise ValueError(
            f"length mismatch: {len(evidences)} evidences, {len(bits)} label bits, "
            f"{len(bases)} base rates"
        )
    labels = binarize_labels(bits)
    per_class = tuple(
        binary_nll(e, y, a, prior_weight)
        for e, y, a in zip(evidences, labels, bases)
    )
    return LossValue(total=sum(per_class), per_class=per_class)


def _alphas(evidence: np.ndarray, a_pos: np.ndarray, a_neg: np.ndarray,
            prior_weight: float) -> np.ndarray:
    """Evidence (..., K, 2) plus per-class base rates -> alpha (..., K, 2)."""
    return evidence + np.stack([a_pos * prior_weight, a_neg * prior_weight], axis=-1)


def _nll(alpha: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample total loss from alpha (N, K, 2) and y (N, K), plus S (N, K)."""
    s = alpha[..., 0] + alpha[..., 1]
    log_alpha = np.log(alpha)
    log_labeled = np.where(y == 1, log_alpha[..., 0], log_alpha[..., 1])
    return (np.log(s) - log_labeled).sum(axis=-1), s


def batch_nll(
    evidence: np.ndarray,
    y: np.ndarray,
    a_pos: np.ndarray,
    a_neg: np.ndarray,
    prior_weight: float = DEFAULT_PRIOR_WEIGHT,
) -> np.ndarray:
    """Per-sample total loss for evidence (N, K, 2) and multi-hot y (N, K)."""
    return _nll(_alphas(evidence, a_pos, a_neg, prior_weight), y)[0]


def batch_nll_grad(
    evidence: np.ndarray,
    y: np.ndarray,
    a_pos: np.ndarray,
    a_neg: np.ndarray,
    prior_weight: float = DEFAULT_PRIOR_WEIGHT,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses (N,) and loss gradient w.r.t. evidence (N, K, 2)."""
    alpha = _alphas(evidence, a_pos, a_neg, prior_weight)
    losses, s = _nll(alpha, y)
    grad = (1.0 / s)[..., None] - np.stack([y, 1.0 - y], axis=-1) / alpha
    return losses, grad
