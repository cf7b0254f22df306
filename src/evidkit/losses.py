"""Per-head negative log-likelihood on Beta-distributed class probabilities.

Each class head is trained as a binary classifier whose probability
follows Beta(alpha_pos, alpha_neg). Marginalizing the Bernoulli label
over that Beta gives the closed-form loss

    L = sum_i y_i * (log(S) - log(alpha_i)),     S = alpha_pos + alpha_neg,

with alpha_i = e_i + a_i * W: the negative log of the expected
probability on the labeled side. The prior weight W is fixed at
``DEFAULT_PRIOR_WEIGHT`` = 2, the number of outcomes of a binary head;
the base rates a_i shift the prior, never its weight. Driving the
labeled side's evidence up is the only way to push L to zero; evidence
on the wrong side inflates S and strictly increases the loss.

``batch_nll_grad`` works on whole batches: evidence (N, K, 2), multi-hot
labels (N, K) and per-class base rates (K,); other shapes raise
ValueError rather than broadcast. Reductions have a fixed order, so
results are run-to-run identical. The scalar ``opinions`` API
states the same maths one head at a time, for any W; the tests use it
as the independent oracle for this kernel.
"""

from __future__ import annotations

import numpy as np

from .opinions import DEFAULT_PRIOR_WEIGHT


def _check_shapes(evidence, y, a_pos, a_neg) -> None:
    """Raise ValueError unless evidence is (N, K, 2), y (N, K), a_pos and a_neg (K,)."""
    nk = np.shape(y)
    shapes = (np.shape(evidence), nk, np.shape(a_pos), np.shape(a_neg))
    if len(nk) != 2 or shapes != (nk + (2,), nk, nk[1:], nk[1:]):
        raise ValueError(
            "expected evidence (N, K, 2), y (N, K), a_pos (K,) and a_neg (K,); "
            f"got {shapes[0]}, {shapes[1]}, {shapes[2]} and {shapes[3]}"
        )


def _alphas(evidence: np.ndarray, a_pos: np.ndarray, a_neg: np.ndarray) -> np.ndarray:
    """Evidence (..., K, 2) plus per-class base rates -> alpha (..., K, 2)."""
    prior = np.empty((len(a_pos), 2))
    np.multiply(a_pos, DEFAULT_PRIOR_WEIGHT, out=prior[:, 0])
    np.multiply(a_neg, DEFAULT_PRIOR_WEIGHT, out=prior[:, 1])
    return evidence + prior


def _nll(alpha: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample total loss from alpha (N, K, 2) and y (N, K), plus S (N, K)."""
    s = alpha[..., 0] + alpha[..., 1]
    log_alpha = np.log(alpha)
    log_labeled = np.where(y == 1, log_alpha[..., 0], log_alpha[..., 1])
    return (np.log(s) - log_labeled).sum(axis=-1), s


def batch_nll_grad(
    evidence: np.ndarray,
    y: np.ndarray,
    a_pos: np.ndarray,
    a_neg: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses (N,) and loss gradient w.r.t. evidence (N, K, 2).

    dL/de_j = 1/S - y_j / alpha_j: negative on the labeled side (more
    correct evidence always helps), positive on the other.
    """
    _check_shapes(evidence, y, a_pos, a_neg)
    alpha = _alphas(evidence, a_pos, a_neg)
    losses, s = _nll(alpha, y)
    # the labeled-side indicator [y, 1 - y], divided by alpha, then 1/S minus it
    grad = np.empty_like(alpha)
    grad[..., 0] = y
    np.subtract(1.0, y, out=grad[..., 1])
    grad /= alpha
    np.subtract((1.0 / s)[..., None], grad, out=grad)
    return losses, grad
