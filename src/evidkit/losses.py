"""Per-head negative log-likelihood on Beta-distributed class probabilities.

Each class head is trained as a binary classifier whose probability
follows Beta(alpha_pos, alpha_neg). Marginalizing the Bernoulli label
over that Beta gives the closed-form loss

    L = sum_i y_i * (log(S) - log(alpha_i)),     S = alpha_pos + alpha_neg,

with alpha = e + prior: the negative log of the expected probability on
the labeled side. The caller supplies the prior pseudo-counts, one
(K, 2) array W * (a_pos, a_neg) of prior weight times base rates; the
trainer builds it once per fit. Driving the labeled side's evidence up
is the only way to push L to zero; evidence on the wrong side inflates
S and strictly increases the loss.

``batch_nll_grad`` works on whole batches: evidence (N, K, 2), multi-hot
labels (N, K) and the prior (K, 2); other shapes raise ValueError rather
than broadcast. Reductions have a fixed order, so results are run-to-run
identical. The scalar ``opinions`` API states the same maths one head at
a time; the tests use it as the independent oracle for this kernel.
"""

from __future__ import annotations

import numpy as np


def _check_shapes(evidence, y, prior) -> None:
    """Raise ValueError unless evidence is (N, K, 2), y (N, K) and prior (K, 2)."""
    nk = y.shape
    if len(nk) != 2 or evidence.shape != nk + (2,) or prior.shape != nk[1:] + (2,):
        raise ValueError(
            "expected evidence (N, K, 2), y (N, K) and prior (K, 2); "
            f"got {evidence.shape}, {nk} and {prior.shape}"
        )


def batch_nll_grad(
    evidence: np.ndarray, y: np.ndarray, prior: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses (N,) and loss gradient w.r.t. evidence (N, K, 2).

    ``prior`` is the (K, 2) array W * (a_pos, a_neg), so alpha = evidence
    + prior. dL/de_j = 1/S - y_j / alpha_j: negative on the labeled side
    (more correct evidence always helps), positive on the other.
    """
    _check_shapes(evidence, y, prior)
    alpha = evidence + prior
    alpha_pos, alpha_neg = alpha[..., 0], alpha[..., 1]
    s = alpha_pos + alpha_neg
    nll = np.log(s)  # per head: log(S) - log(alpha on the labeled side)
    nll -= np.log(np.where(y == 1, alpha_pos, alpha_neg))
    losses = np.add.reduce(nll, axis=-1)
    # the labeled-side indicator [y, 1 - y], divided by alpha, then 1/S minus it
    grad = np.empty_like(alpha)
    grad[..., 0] = y
    np.subtract(1.0, y, out=grad[..., 1])
    grad /= alpha
    np.subtract(np.divide(1.0, s, out=s)[..., None], grad, out=grad)
    return losses, grad
