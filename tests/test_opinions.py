"""Tests for the evidence / Beta / opinion / probability algebra.

The load-bearing identities: alpha_i = e_i + a_i * W, b_i = e_i / S,
u = W / S, and the two probability routes (belief projection vs. Beta
expectation) agreeing to double precision.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidkit.evaluation import predict_batch
from evidkit.opinions import (
    DEFAULT_PRIOR_WEIGHT,
    BaseRatePair,
    DirichletPair,
    EvidencePair,
    Opinion,
    dirichlet_from_evidence,
    expected_probability,
    opinion_from_evidence,
    probability_from_opinion,
)

UNIFORM = BaseRatePair(0.5, 0.5)

# strategies kept away from the extreme tails so 1e-12 comparisons are
# about algebra, not float cancellation in the test itself
_evidence_values = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_base_values = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
_weights = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)


@st.composite
def evidence_pairs(draw):
    return EvidencePair(draw(_evidence_values), draw(_evidence_values))


@st.composite
def base_rate_pairs(draw):
    a_pos = draw(_base_values)
    return BaseRatePair(a_pos, 1.0 - a_pos)


class TestTypeValidation:
    def test_negative_evidence_rejected(self):
        with pytest.raises(ValueError):
            EvidencePair(-1.0, 0.0)

    def test_non_finite_evidence_rejected(self):
        with pytest.raises(ValueError):
            EvidencePair(float("nan"), 0.0)
        with pytest.raises(ValueError):
            EvidencePair(0.0, float("inf"))

    @pytest.mark.parametrize("e_pos", [1e10, 1e12])
    def test_large_evidence_matches_the_batch_kernel(self, e_pos):
        """The oracle states the kernel's maths at any finite evidence: no clamp."""
        e, a = EvidencePair(e_pos, 3.0), BaseRatePair(0.3, 0.7)
        assert (e.e_pos, e.e_neg) == (e_pos, 3.0)
        batch = predict_batch(np.array([[[e_pos, 3.0]]]), np.array([0.3]), np.array([0.7]))
        p_pos = expected_probability(dirichlet_from_evidence(e, a))[0]
        o = opinion_from_evidence(e, a)
        assert p_pos == pytest.approx(batch.probabilities[0, 0], rel=1e-12)
        assert probability_from_opinion(o)[0] == pytest.approx(p_pos, rel=1e-12)
        assert o.u == pytest.approx(batch.uncertainties[0, 0], rel=1e-12)

    def test_strength_that_overflows_rejected(self):
        """(1e308, 1e308) is finite evidence whose Beta strength is not, which
        ``predict_batch`` rejects too."""
        e = EvidencePair(1e308, 1e308)
        for route in (dirichlet_from_evidence, opinion_from_evidence):
            with pytest.raises(ValueError, match="overflows float64"):
                route(e, UNIFORM)
        with pytest.raises(ValueError, match="overflows float64"):
            DirichletPair(1e308, 1e308)

    def test_base_rates_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BaseRatePair(0.5, 0.6)

    def test_base_rates_must_lie_in_unit_interval(self):
        with pytest.raises(ValueError):
            BaseRatePair(1.2, -0.2)

    def test_opinion_masses_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Opinion(b_pos=0.5, b_neg=0.5, u=0.5, base=UNIFORM)

    def test_dirichlet_strength_must_be_positive(self):
        with pytest.raises(ValueError):
            DirichletPair(0.0, 0.0)

    def test_prior_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            dirichlet_from_evidence(EvidencePair(1.0, 1.0), UNIFORM, prior_weight=0.0)


class TestDirichletFromEvidence:
    def test_zero_evidence_uniform_base(self):
        d = dirichlet_from_evidence(EvidencePair(0.0, 0.0), UNIFORM, 2.0)
        assert d.alpha_pos == 1.0
        assert d.alpha_neg == 1.0
        assert d.strength == 2.0

    def test_uniform_base_collapses_to_evidence_plus_one(self):
        # with a = 1/2 and W = 2 each alpha is e + 1
        d = dirichlet_from_evidence(EvidencePair(3.0, 0.0), UNIFORM, 2.0)
        assert d.alpha_pos == 4.0
        assert d.alpha_neg == 1.0

    def test_asymmetric_evidence(self):
        d = dirichlet_from_evidence(EvidencePair(2.0, 0.0), UNIFORM, 2.0)
        assert (d.alpha_pos, d.alpha_neg, d.strength) == (3.0, 1.0, 4.0)


class TestOpinionFromEvidence:
    def test_zero_evidence_is_fully_vacuous(self):
        o = opinion_from_evidence(EvidencePair(0.0, 0.0), UNIFORM, 2.0)
        assert o.u == 1.0
        assert o.b_pos == 0.0
        assert o.b_neg == 0.0

    def test_two_against_zero(self):
        o = opinion_from_evidence(EvidencePair(2.0, 0.0), UNIFORM, 2.0)
        assert o.u == 0.5
        assert o.b_pos == 0.5
        assert o.b_neg == 0.0

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_symmetric_evidence_gives_symmetric_belief(self, k):
        o = opinion_from_evidence(EvidencePair(k, k), UNIFORM, 2.0)
        assert o.b_pos == o.b_neg


class TestProbabilityRoutes:
    def test_vacuous_opinion_returns_base_rate(self):
        o = Opinion(b_pos=0.0, b_neg=0.0, u=1.0, base=UNIFORM)
        assert probability_from_opinion(o) == (0.5, 0.5)

    def test_belief_projection_by_hand(self):
        o = Opinion(b_pos=0.5, b_neg=0.0, u=0.5, base=UNIFORM)
        p_pos, p_neg = probability_from_opinion(o)
        assert p_pos == pytest.approx(0.75, abs=1e-12)
        assert p_neg == pytest.approx(0.25, abs=1e-12)

    def test_dogmatic_opinion_returns_belief_exactly(self):
        o = Opinion(b_pos=0.3, b_neg=0.7, u=0.0, base=UNIFORM)
        assert probability_from_opinion(o) == (0.3, 0.7)

    def test_uniform_beta_expectation(self):
        assert expected_probability(DirichletPair(1.0, 1.0)) == (0.5, 0.5)

    def test_beta_expectation_by_hand(self):
        assert expected_probability(DirichletPair(3.0, 1.0)) == (0.75, 0.25)

    @given(evidence_pairs(), base_rate_pairs(), _weights)
    @settings(max_examples=300)
    def test_both_routes_agree(self, e, a, w):
        """Belief projection and Beta expectation give the same probability."""
        via_opinion = probability_from_opinion(opinion_from_evidence(e, a, w))
        via_beta = expected_probability(dirichlet_from_evidence(e, a, w))
        assert via_opinion[0] == pytest.approx(via_beta[0], abs=1e-12)
        assert via_opinion[1] == pytest.approx(via_beta[1], abs=1e-12)

    @given(evidence_pairs(), base_rate_pairs(), _weights)
    @settings(max_examples=300)
    def test_probabilities_sum_to_one(self, e, a, w):
        for route in (
            probability_from_opinion(opinion_from_evidence(e, a, w)),
            expected_probability(dirichlet_from_evidence(e, a, w)),
        ):
            assert route[0] + route[1] == pytest.approx(1.0, abs=1e-12)


class TestInvariants:
    @given(evidence_pairs(), base_rate_pairs(), _weights)
    @settings(max_examples=500)
    def test_masses_and_uncertainty_sum_to_one(self, e, a, w):
        o = opinion_from_evidence(e, a, w)
        assert o.b_pos + o.b_neg + o.u == pytest.approx(1.0, abs=1e-12)

    @given(base_rate_pairs())
    def test_zero_evidence_restores_prior_exactly(self, a):
        o = opinion_from_evidence(EvidencePair(0.0, 0.0), a, 2.0)
        assert o.u == 1.0
        assert probability_from_opinion(o) == (a.a_pos, a.a_neg)

    def test_positive_probability_increases_with_positive_evidence(self):
        probs = [
            expected_probability(
                dirichlet_from_evidence(EvidencePair(e, 1.0), UNIFORM, 2.0)
            )[0]
            for e in np.linspace(0.0, 50.0, 40)
        ]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_uncertainty_decreases_with_total_evidence(self):
        u = [
            opinion_from_evidence(EvidencePair(t / 2, t / 2), UNIFORM, 2.0).u
            for t in np.linspace(0.0, 100.0, 40)
        ]
        assert all(b < a for a, b in zip(u, u[1:]))


def test_default_prior_weight_is_two():
    # binary heads: one pseudo-count per outcome
    assert DEFAULT_PRIOR_WEIGHT == 2.0
