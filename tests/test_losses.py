"""Tests for the per-head negative log-likelihood and its analytic gradient.

The batch kernel ``batch_nll_grad`` is the only implementation; its
first output is the per-sample loss. The scalar ``opinions`` API (Beta
parameters and expectations one head at a time) and central finite
differences are the independent oracles it is checked against.
"""

import math

import numpy as np
import pytest

from evidkit.losses import batch_nll_grad
from evidkit.opinions import (
    BaseRatePair,
    EvidencePair,
    dirichlet_from_evidence,
    expected_probability,
)


def _prior(a_pos, a_neg):
    """The (K, 2) Beta prior W * (a_pos, a_neg) with W = 2, as the trainer builds it."""
    return 2.0 * np.column_stack([a_pos, a_neg])


def _arrays(e_pos, e_neg, y, a_pos):
    """One sample, one class: (1, 1, 2) evidence, (1, 1) label, (1, 2) prior."""
    return (
        np.array([[[e_pos, e_neg]]], dtype=np.float64),
        np.array([[y]], dtype=np.float64),
        _prior([a_pos], [1.0 - a_pos]),
    )


def _losses(evidence, y, a_pos, a_neg):
    """Per-sample losses (N,): the first output of batch_nll_grad."""
    return batch_nll_grad(evidence, y, _prior(a_pos, a_neg))[0]


def _nll(e_pos, e_neg, y, a_pos=0.5):
    return float(batch_nll_grad(*_arrays(e_pos, e_neg, y, a_pos))[0][0])


def _grad(e_pos, e_neg, y, a_pos=0.5):
    return batch_nll_grad(*_arrays(e_pos, e_neg, y, a_pos))[1][0, 0]


def _random_case(rng, n=16, k=5):
    evidence = rng.uniform(0, 30, size=(n, k, 2))
    y = (rng.random((n, k)) < 0.4).astype(float)
    a_pos = rng.uniform(0.1, 0.9, size=k)
    return evidence, y, a_pos, 1.0 - a_pos


def _opinion_nll(evidence, y, a_pos, a_neg):
    """-sum_k log E[p_labeled] per sample, through the scalar opinions API."""
    out = []
    for i in range(evidence.shape[0]):
        total = 0.0
        for k in range(evidence.shape[1]):
            d = dirichlet_from_evidence(
                EvidencePair(*evidence[i, k]), BaseRatePair(a_pos[k], a_neg[k]), 2.0
            )
            p_pos, p_neg = expected_probability(d)
            total -= math.log(p_pos if y[i, k] == 1 else p_neg)
        out.append(total)
    return np.array(out)


class TestBinaryNll:
    def test_vacuous_positive_sample(self):
        assert _nll(0.0, 0.0, 1) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_partial_evidence(self):
        assert _nll(2.0, 0.0, 1) == pytest.approx(math.log(4.0) - math.log(3.0), abs=1e-12)

    def test_loss_vanishes_as_correct_evidence_grows(self):
        losses = [_nll(e, 0.0, 1) for e in (1.0, 10.0, 100.0, 1e4, 1e8)]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-7

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            e_pos, e_neg = rng.uniform(0, 100, size=2)
            y = int(rng.random() < 0.5)
            assert _nll(e_pos, e_neg, y, rng.uniform(0.05, 0.95)) >= 0.0

    def test_wrong_side_evidence_strictly_hurts(self):
        losses = [_nll(3.0, wrong, 1) for wrong in (0.0, 0.5, 2.0, 10.0)]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_loss_is_negative_log_expected_probability(self):
        """Closed form: L equals -log of the labeled side's Beta expectation."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            e_pos, e_neg = rng.uniform(0, 50, size=2)
            a_pos = rng.uniform(0.05, 0.95)
            d = dirichlet_from_evidence(
                EvidencePair(e_pos, e_neg), BaseRatePair(a_pos, 1 - a_pos), 2.0
            )
            p_pos, p_neg = expected_probability(d)
            assert _nll(e_pos, e_neg, 1, a_pos) == pytest.approx(-math.log(p_pos), abs=1e-12)
            assert _nll(e_pos, e_neg, 0, a_pos) == pytest.approx(-math.log(p_neg), abs=1e-12)


class TestGradient:
    def test_vacuous_gradient_by_hand(self):
        g = _grad(0.0, 0.0, 1)
        assert g[0] == pytest.approx(-0.5, abs=1e-12)
        assert g[1] == pytest.approx(0.5, abs=1e-12)

    def test_partial_evidence_gradient_by_hand(self):
        g = _grad(2.0, 0.0, 1)
        assert g[0] == pytest.approx(-1.0 / 12.0, abs=1e-12)
        assert g[1] == pytest.approx(0.25, abs=1e-12)

    def test_labeled_side_gradient_never_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            e_pos, e_neg = rng.uniform(0, 100, size=2)
            g = _grad(e_pos, e_neg, 1, rng.uniform(0.05, 0.95))
            assert g[0] <= 0.0
            assert g[1] >= 0.0

    def test_matches_central_finite_differences(self):
        """dL/de within relative error 1e-5 over 1000 random draws."""
        rng = np.random.default_rng(5)
        h = 1e-4
        worst = 0.0
        for _ in range(1000):
            e_pos, e_neg = rng.uniform(h, 100, size=2)
            y = int(rng.random() < 0.5)
            a_pos = rng.uniform(0.05, 0.95)
            g = _grad(e_pos, e_neg, y, a_pos)
            fd_pos = (_nll(e_pos + h, e_neg, y, a_pos)
                      - _nll(e_pos - h, e_neg, y, a_pos)) / (2 * h)
            fd_neg = (_nll(e_pos, e_neg + h, y, a_pos)
                      - _nll(e_pos, e_neg - h, y, a_pos)) / (2 * h)
            for analytic, numeric in ((g[0], fd_pos), (g[1], fd_neg)):
                scale = max(abs(analytic), abs(numeric), 1e-12)
                worst = max(worst, abs(analytic - numeric) / scale)
        assert worst < 1e-5


class TestMultilabel:
    def test_all_vacuous_normal_sample(self):
        loss = _losses(np.zeros((1, 2, 2)), np.zeros((1, 2)), np.full(2, 0.5), np.full(2, 0.5))
        assert loss.shape == (1,)
        assert loss[0] == pytest.approx(2 * math.log(2.0), abs=1e-12)

    def test_single_class_reduces_to_binary(self):
        """One head's loss is log S - log alpha_labeled of its Beta parameters."""
        d = dirichlet_from_evidence(EvidencePair(1.5, 0.3), BaseRatePair(0.5, 0.5), 2.0)
        assert _nll(1.5, 0.3, 1) == pytest.approx(
            math.log(d.strength) - math.log(d.alpha_pos), rel=1e-15
        )

    def test_total_is_sum_of_per_class(self):
        rng = np.random.default_rng(6)
        evidence, y, a_pos, a_neg = _random_case(rng, n=4, k=5)
        total = _losses(evidence, y, a_pos, a_neg)
        per_class = sum(
            _losses(evidence[:, k:k + 1], y[:, k:k + 1], a_pos[k:k + 1], a_neg[k:k + 1])
            for k in range(5)
        )
        np.testing.assert_allclose(total, per_class, rtol=0, atol=1e-12)

    def test_permutation_leaves_total_unchanged(self):
        rng = np.random.default_rng(7)
        evidence = rng.uniform(0, 10, size=(1, 4, 2))
        y = np.array([[1.0, 0.0, 1.0, 0.0]])
        a_pos = np.array([0.3, 0.5, 0.6, 0.7])
        base_total = _losses(evidence, y, a_pos, 1.0 - a_pos)[0]
        perm = [2, 0, 3, 1]
        permuted = _losses(evidence[:, perm], y[:, perm], a_pos[perm], 1.0 - a_pos[perm])[0]
        assert permuted == pytest.approx(base_total, abs=1e-12)


class TestBatchForms:
    """The batch kernel against the scalar opinions contract."""

    def test_batch_nll_matches_scalar(self):
        """Per sample, the sum over K heads of -log E[p_labeled]."""
        rng = np.random.default_rng(8)
        evidence, y, a_pos, a_neg = _random_case(rng, n=200, k=5)
        np.testing.assert_allclose(
            _losses(evidence, y, a_pos, a_neg),
            _opinion_nll(evidence, y, a_pos, a_neg),
            rtol=0, atol=1e-12,
        )

    def test_batch_grad_matches_scalar(self):
        """dL/de_j = 1/S - y_j / alpha_j per head."""
        rng = np.random.default_rng(9)
        evidence, y, a_pos, a_neg = _random_case(rng, n=8, k=3)
        grads = batch_nll_grad(evidence, y, _prior(a_pos, a_neg))[1]
        for i in range(evidence.shape[0]):
            for k in range(evidence.shape[1]):
                d = dirichlet_from_evidence(
                    EvidencePair(*evidence[i, k]), BaseRatePair(a_pos[k], a_neg[k]), 2.0
                )
                expected = (1.0 / d.strength - y[i, k] / d.alpha_pos,
                            1.0 / d.strength - (1.0 - y[i, k]) / d.alpha_neg)
                np.testing.assert_allclose(grads[i, k], expected, rtol=0, atol=1e-12)


class TestShapes:
    """Mismatched shapes raise instead of broadcasting to a wrong loss."""

    ONES = np.ones((2, 2))  # the uniform prior of two classes

    # a parameter rather than a direct call, so that each test id names the kernel
    @pytest.mark.parametrize("kernel", [batch_nll_grad])
    @pytest.mark.parametrize("evidence, y, prior", [
        # one-class evidence against a two-class label broadcast to 2 log 2
        (np.zeros((1, 1, 2)), np.array([[1.0, 0.0]]), ONES[:1]),
        (np.zeros((2, 2, 2)), np.array([[1.0, 0.0]]), ONES),
        (np.zeros((1, 2, 1)), np.array([[1.0, 0.0]]), ONES),
        (np.zeros((2, 2)), np.array([1.0, 0.0]), ONES),
        # the prior: wrong K, a last axis other than 2, 1-D, a leading axis
        (np.zeros((1, 2, 2)), np.array([[1.0, 0.0]]), ONES[:1]),
        (np.zeros((1, 2, 2)), np.array([[1.0, 0.0]]), np.ones((2, 1))),
        (np.zeros((1, 2, 2)), np.array([[1.0, 0.0]]), np.ones(2)),
        (np.zeros((1, 2, 2)), np.array([[1.0, 0.0]]), ONES[None]),
    ], ids=["evidence-k", "evidence-n", "evidence-pair", "y-1d", "prior-k", "prior-pair",
            "prior-1d", "prior-3d"])
    def test_mismatched_shapes_raise(self, kernel, evidence, y, prior):
        with pytest.raises(ValueError, match=r"expected evidence \(N, K, 2\)"):
            kernel(evidence, y, prior)

    def test_empty_batch_is_accepted(self):
        losses, grad = batch_nll_grad(np.zeros((0, 3, 2)), np.zeros((0, 3)), np.ones((3, 2)))
        assert losses.shape == (0,) and grad.shape == (0, 3, 2)
